package bytecode

import (
	"strings"
	"testing"

	"repro/internal/lang/parser"
	"repro/internal/lang/token"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/progen"
	"repro/internal/sem/core"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

func compileSrc(t *testing.T, src string, lat lattice.Lattice) *Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := types.Check(prog, lat)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := Compile(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

func TestCompileStructure(t *testing.T) {
	bc := compileSrc(t, `
var h : H;
var l : L;
l := 1;
mitigate (8, H) [L,L] { sleep(h) [H,H]; }
l := 2;
`, lattice.TwoPoint())
	dis := bc.Disassemble()
	for _, want := range []string{"SETLBL", "PUSH", "STORE", "MITENTER", "MITEXIT", "SLEEP", "HALT"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %s:\n%s", want, dis)
		}
	}
	// Labels flip to H (id 1) for the sleep and back for the last
	// store: at least two distinct SETLBL operand patterns appear.
	if !strings.Contains(dis, "SETLBL 0 0") || !strings.Contains(dis, "SETLBL 1 1") {
		t.Errorf("label register writes missing:\n%s", dis)
	}
	if bc.NumMitigates != 1 {
		t.Error("NumMitigates")
	}
}

func TestVMBasicExecution(t *testing.T) {
	bc := compileSrc(t, `
var x : L;
var y : L;
x := 6;
y := x * 7;
`, lattice.TwoPoint())
	vm := NewVM(bc, hw.NewFlat(lattice.TwoPoint(), 2), VMOptions{})
	if err := vm.Run(1000); err != nil {
		t.Fatal(err)
	}
	if v, _ := vm.Scalar("y"); v != 42 {
		t.Errorf("y = %d", v)
	}
	if vm.Clock() == 0 || vm.Steps() == 0 {
		t.Error("clock/steps should advance")
	}
	if _, err := vm.Scalar("zzz"); err == nil {
		t.Error("unknown scalar")
	}
	if err := vm.SetScalar("zzz", 1); err == nil {
		t.Error("unknown scalar set")
	}
	if err := vm.SetArrayEl("zzz", 0, 1); err == nil {
		t.Error("unknown array set")
	}
}

func TestVMControlFlow(t *testing.T) {
	bc := compileSrc(t, `
var n : L;
var f : L;
var i : L;
f := 1;
i := 1;
while (i <= n) {
    f := f * i;
    i := i + 1;
}
if (f > 100) { n := 1; } else { n := 0; }
`, lattice.TwoPoint())
	vm := NewVM(bc, hw.NewFlat(lattice.TwoPoint(), 1), VMOptions{})
	if err := vm.SetScalar("n", 5); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(10000); err != nil {
		t.Fatal(err)
	}
	if f, _ := vm.Scalar("f"); f != 120 {
		t.Errorf("5! = %d", f)
	}
	if n, _ := vm.Scalar("n"); n != 1 {
		t.Errorf("branch result = %d", n)
	}
}

func TestVMArrays(t *testing.T) {
	bc := compileSrc(t, `
array a[8] : L;
var i : L;
var s : L;
while (i < 8) {
    a[i] := i * i;
    i := i + 1;
}
s := a[3] + a[7];
`, lattice.TwoPoint())
	vm := NewVM(bc, hw.NewFlat(lattice.TwoPoint(), 1), VMOptions{})
	if err := vm.Run(10000); err != nil {
		t.Fatal(err)
	}
	if s, _ := vm.Scalar("s"); s != 58 {
		t.Errorf("s = %d", s)
	}
	// Events include array stores with wrapped indices.
	found := false
	for _, e := range vm.Trace() {
		if e.Var == "a[3]" && e.Value == 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("trace missing a[3]: %v", vm.Trace())
	}
}

// Value adequacy: the VM computes the same final memory and the same
// event values as the core semantics, over generated programs.
func TestVMValueAdequacy(t *testing.T) {
	lat := lattice.TwoPoint()
	for seed := int64(0); seed < 15; seed++ {
		prog, res, src, err := progen.GenerateTyped(progen.Config{
			Lat: lat, Seed: 1100 + seed, AllowMitigate: true, AllowSleep: true, MaxDepth: 4,
		}, 50)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := Compile(prog, res)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		// Core run.
		ck := core.New(prog, mem.New(prog))
		if err := ck.Run(2_000_000); err != nil {
			t.Fatal(err)
		}
		// VM run.
		vm := NewVM(bc, hw.NewPartitioned(lat, hw.TinyConfig()), VMOptions{})
		if err := vm.Run(20_000_000); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if !vm.Trace().ValuesEqual(ck.Trace()) {
			t.Fatalf("seed %d: event values differ\ncore: %v\nvm:   %v\n%s",
				seed, ck.Trace(), vm.Trace(), src)
		}
		// Final scalars agree.
		for _, d := range prog.Decls {
			if d.IsArray {
				continue
			}
			v, err := vm.Scalar(d.Name)
			if err != nil {
				t.Fatal(err)
			}
			if v != ck.Memory().Get(d.Name) {
				t.Fatalf("seed %d: %s = %d (vm) vs %d (core)", seed, d.Name, v, ck.Memory().Get(d.Name))
			}
		}
	}
}

// The VM's mitigated timing is secret-independent, just like the
// tree-walker's — the contract survives a change of implementation.
func TestVMMitigatedTimingConstant(t *testing.T) {
	lat := lattice.TwoPoint()
	bc := compileSrc(t, `
var h : H;
var done : L;
mitigate (2048, H) [L,L] {
    sleep(h) [H,H];
}
done := 1;
`, lat)
	timeOf := func(h int64) uint64 {
		vm := NewVM(bc, hw.NewPartitioned(lat, hw.Table1Config()), VMOptions{})
		if err := vm.SetScalar("h", h); err != nil {
			t.Fatal(err)
		}
		if err := vm.Run(100000); err != nil {
			t.Fatal(err)
		}
		if len(vm.Trace()) != 1 {
			t.Fatal("expected one event")
		}
		return vm.Trace()[0].Time
	}
	t1, t2, t3 := timeOf(3), timeOf(500), timeOf(1500)
	if t1 != t2 || t2 != t3 {
		t.Errorf("mitigated VM times differ: %d %d %d", t1, t2, t3)
	}
}

func TestVMUnmitigatedTimingLeaks(t *testing.T) {
	lat := lattice.TwoPoint()
	bc := compileSrc(t, `
var h : H;
var done : L;
mitigate (2048, H) [L,L] { sleep(h) [H,H]; }
done := 1;
`, lat)
	timeOf := func(h int64) uint64 {
		vm := NewVM(bc, hw.NewFlat(lat, 2), VMOptions{DisableMitigation: true})
		vm.SetScalar("h", h)
		if err := vm.Run(100000); err != nil {
			t.Fatal(err)
		}
		return vm.Clock()
	}
	if timeOf(10) == timeOf(500) {
		t.Error("unmitigated VM timing should depend on the secret")
	}
}

func TestVMDeterminism(t *testing.T) {
	lat := lattice.TwoPoint()
	prog, res, _, err := progen.GenerateTyped(progen.Config{
		Lat: lat, Seed: 77, AllowMitigate: true, AllowSleep: true,
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := Compile(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (uint64, string) {
		vm := NewVM(bc, hw.NewPartitioned(lat, hw.TinyConfig()), VMOptions{})
		if err := vm.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		return vm.Clock(), vm.Trace().Key()
	}
	c1, k1 := run()
	c2, k2 := run()
	if c1 != c2 || k1 != k2 {
		t.Error("VM must be deterministic")
	}
}

func TestCompileRejectsUnresolvedLabels(t *testing.T) {
	prog, err := parser.Parse("var l : L; l := 1;")
	if err != nil {
		t.Fatal(err)
	}
	res := &types.Result{Lat: lattice.TwoPoint()}
	if _, err := Compile(prog, res); err == nil {
		t.Error("expected unresolved-label error")
	}
}

func TestInstrString(t *testing.T) {
	cases := map[string]Instr{
		"HALT":       {Op: OpHalt},
		"PUSH 7":     {Op: OpPush, A: 7},
		"SETLBL 0 1": {Op: OpSetLbl, A: 0, B: 1},
		"BINOP +":    {Op: OpBinop, A: int64(token.PLUS)},
	}
	for want, ins := range cases {
		if got := ins.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	if Op(200).String() == "" {
		t.Error("unknown op should print")
	}
}
