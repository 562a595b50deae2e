package bytecode

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/progen"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	lat := lattice.TwoPoint()
	for seed := int64(0); seed < 10; seed++ {
		prog, res, src, err := progen.GenerateTyped(progen.Config{
			Lat: lat, Seed: 4400 + seed, AllowMitigate: true, AllowSleep: true,
		}, 50)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := Compile(prog, res)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := bc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bytes.NewReader(buf.Bytes()), lat)
		if err != nil {
			t.Fatalf("seed %d: decode: %v\n%s", seed, err, src)
		}
		if back.Disassemble() != bc.Disassemble() {
			t.Fatalf("seed %d: code changed across round trip", seed)
		}
		if back.NumMitigates != bc.NumMitigates {
			t.Error("mitigate count lost")
		}
		// The decoded program executes identically.
		vm1 := NewVM(bc, hw.NewFlat(lat, 2), VMOptions{})
		vm2 := NewVM(back, hw.NewFlat(lat, 2), VMOptions{})
		if err := vm1.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if err := vm2.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if vm1.Clock() != vm2.Clock() || vm1.Trace().Key() != vm2.Trace().Key() {
			t.Fatalf("seed %d: decoded program behaves differently", seed)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	lat := lattice.TwoPoint()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE\x01"),
		"bad version": []byte("TCBC\x09"),
		"truncated":   []byte("TCBC\x02\x09two"),
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data), lat); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeLatticeMismatch(t *testing.T) {
	bc := compileSrc(t, "var l : L; l := 1;", lattice.TwoPoint())
	var buf bytes.Buffer
	if err := bc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Decode(bytes.NewReader(buf.Bytes()), lattice.ThreePoint())
	if err == nil || !strings.Contains(err.Error(), "lattice") {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeValidatesStructure(t *testing.T) {
	lat := lattice.TwoPoint()
	bad := []*Program{
		{Lat: lat, Code: []Instr{{Op: OpJmp, A: 99}}},
		{Lat: lat, Code: []Instr{{Op: OpLoad, A: 0}}},           // no scalars
		{Lat: lat, Code: []Instr{{Op: OpSetLbl, A: 7, B: 0}}},   // bad label
		{Lat: lat, Code: []Instr{{Op: OpMitEnter, A: 0, B: 9}}}, // bad level
		{Lat: lat, Code: []Instr{{Op: OpStoreIdx, A: 2}}},       // no arrays
		// Stack underflow: STORE with an empty evaluation stack.
		{Lat: lat, ScalarNames: []string{"x"}, ScalarOffsets: []uint64{0}, Code: []Instr{{Op: OpStore, A: 0}, {Op: OpHalt}}},
		// BINOP whose operand is not a binary operator.
		{Lat: lat, ScalarNames: []string{"x"}, ScalarOffsets: []uint64{0}, Code: []Instr{
			{Op: OpPush, A: 1}, {Op: OpPush, A: 2}, {Op: OpBinop, A: 999}, {Op: OpStore, A: 0}, {Op: OpHalt}}},
	}
	for i, p := range bad {
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes()), lat); err == nil {
			t.Errorf("case %d: corrupted program accepted", i)
		}
	}
}

// Corrupting arbitrary bytes of a valid image must yield an error or a
// valid program — never a panic in Decode.
func TestDecodeFuzzedCorruption(t *testing.T) {
	lat := lattice.TwoPoint()
	bc := compileSrc(t, `
var h : H;
var l : L;
l := 1;
mitigate (8, H) [L,L] { sleep(h) [H,H]; }
l := 2;
`, lat)
	var buf bytes.Buffer
	if err := bc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := 0; i < len(orig); i++ {
		for _, delta := range []byte{1, 0x80} {
			mut := append([]byte(nil), orig...)
			mut[i] ^= delta
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Decode panicked on corruption at byte %d: %v", i, p)
					}
				}()
				Decode(bytes.NewReader(mut), lat)
			}()
		}
	}
}
