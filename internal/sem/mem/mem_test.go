package mem

import (
	"testing"

	"repro/internal/lang/parser"
	"repro/internal/lattice"
)

func prog(t *testing.T, src string) *Memory {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return New(p)
}

func TestScalarGetSet(t *testing.T) {
	m := prog(t, "var x : L; var y : H; skip;")
	if m.Get("x") != 0 {
		t.Error("zero-initialized")
	}
	m.Set("x", 42)
	if m.Get("x") != 42 {
		t.Error("set/get")
	}
	if !m.HasScalar("x") || m.HasScalar("zz") || m.HasArray("x") {
		t.Error("HasScalar/HasArray")
	}
}

// TestSetSlot: setting a scalar by its slot is setting it by name.
func TestSetSlot(t *testing.T) {
	m := prog(t, "var x : L; array a[3] : L; var y : H; skip;")
	byName := m.Clone()
	m.SetSlot(m.ScalarSlot("y"), 7)
	m.SetSlot(m.ScalarSlot("x"), -3)
	byName.Set("y", 7)
	byName.Set("x", -3)
	if !m.Equal(byName) || m.ScalarSlot("a") != -1 {
		t.Errorf("SetSlot: x=%d y=%d, slot of array a %d", m.Get("x"), m.Get("y"), m.ScalarSlot("a"))
	}
}

func TestUndeclaredPanics(t *testing.T) {
	m := prog(t, "var x : L; skip;")
	for _, f := range []func(){
		func() { m.Get("nope") },
		func() { m.Set("nope", 1) },
		func() { m.GetEl("nope", 0) },
		func() { m.SetEl("nope", 0, 1) },
		func() { m.WrapIndex("nope", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestArrayWrapping(t *testing.T) {
	m := prog(t, "array a[4] : L; skip;")
	m.SetEl("a", 1, 10)
	if m.GetEl("a", 1) != 10 {
		t.Error("basic element")
	}
	if m.GetEl("a", 5) != 10 {
		t.Error("index 5 should wrap to 1")
	}
	if m.GetEl("a", -3) != 10 {
		t.Error("index -3 should wrap to 1")
	}
	if m.WrapIndex("a", -1) != 3 {
		t.Errorf("WrapIndex(-1) = %d, want 3", m.WrapIndex("a", -1))
	}
	if m.ArrayLen("a") != 4 || m.ArrayLen("zz") != 0 {
		t.Error("ArrayLen")
	}
}

func TestCloneAndEqual(t *testing.T) {
	m := prog(t, "var x : L; array a[4] : H; skip;")
	m.Set("x", 7)
	m.SetEl("a", 2, 9)
	c := m.Clone()
	if !m.Equal(c) || !c.Equal(m) {
		t.Fatal("clone should be equal")
	}
	c.Set("x", 8)
	if m.Equal(c) {
		t.Error("scalar change should break equality")
	}
	c.Set("x", 7)
	c.SetEl("a", 0, 1)
	if m.Equal(c) {
		t.Error("array change should break equality")
	}
	if m.Get("x") != 7 || m.GetEl("a", 0) != 0 {
		t.Error("clone mutation leaked")
	}
}

func TestEquivalences(t *testing.T) {
	lat := lattice.TwoPoint()
	L, H := lat.Bot(), lat.Top()
	gamma := map[string]lattice.Label{"l": L, "h": H, "ha": H}
	m1 := prog(t, "var l : L; var h : H; array ha[2] : H; skip;")
	m2 := m1.Clone()
	m2.Set("h", 99)
	m2.SetEl("ha", 0, 1)
	if !m1.LowEquiv(m2, lat, gamma, L) {
		t.Error("m1 ~L m2 should hold (only H differs)")
	}
	if m1.LowEquiv(m2, lat, gamma, H) {
		t.Error("m1 ~H m2 should fail")
	}
	if m1.ProjEquiv(m2, gamma, H) {
		t.Error("m1 ≈H m2 should fail")
	}
	if !m1.ProjEquiv(m2, gamma, L) {
		t.Error("m1 ≈L m2 should hold")
	}
	m2.Set("h", 0)
	m2.SetEl("ha", 0, 0)
	m2.Set("l", 5)
	if m1.LowEquiv(m2, lat, gamma, L) {
		t.Error("L difference should break ~L")
	}
	if !m1.ProjEquiv(m2, gamma, H) {
		t.Error("≈H ignores L variables")
	}
}

func TestNamesSorted(t *testing.T) {
	m := prog(t, "var z : L; array a[2] : L; var k : L; skip;")
	names := m.Names()
	want := []string{"a", "k", "z"}
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names = %v, want %v", names, want)
		}
	}
}

func TestLayoutAddresses(t *testing.T) {
	p, err := parser.Parse("var x : L; array a[4] : H; var y : L; skip;")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(p)
	if l.Addr("x") != 0x10000 {
		t.Errorf("x at %#x", l.Addr("x"))
	}
	if l.Addr("a") != 0x10008 {
		t.Errorf("a at %#x", l.Addr("a"))
	}
	if l.ElemAddr("a", 2) != 0x10008+16 {
		t.Errorf("a[2] at %#x", l.ElemAddr("a", 2))
	}
	if l.Addr("y") != 0x10008+32 {
		t.Errorf("y at %#x", l.Addr("y"))
	}
	if l.DataEnd() != 0x10008+32+8 {
		t.Errorf("end at %#x", l.DataEnd())
	}
	if CodeAddr(0) != 0x400000 || CodeAddr(3) != 0x400000+48 {
		t.Error("code addresses")
	}
}

func TestLayoutUnknownPanics(t *testing.T) {
	p, _ := parser.Parse("var x : L; skip;")
	l := NewLayout(p)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	l.Addr("nope")
}

func TestDistinctVariablesDistinctAddresses(t *testing.T) {
	p, err := parser.Parse("var a : L; var b : L; array c[8] : L; var d : L; skip;")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(p)
	seen := map[uint64]string{}
	check := func(name string, addr uint64) {
		if prev, ok := seen[addr]; ok {
			t.Errorf("%s and %s share address %#x", prev, name, addr)
		}
		seen[addr] = name
	}
	check("a", l.Addr("a"))
	check("b", l.Addr("b"))
	for i := int64(0); i < 8; i++ {
		check("c[i]", l.ElemAddr("c", i))
	}
	check("d", l.Addr("d"))
}
