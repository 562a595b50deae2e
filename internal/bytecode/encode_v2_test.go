package bytecode

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/types"
)

const v2TestSrc = `
var h: H;
array tab[4]: L;
var reply: L;
mitigate (1, H) [L, L] {
    sleep(h % 9) [H, H];
}
reply := tab[1];
`

// TestEncodeV2PreservesTreeMetadata checks that the version-2 format
// round-trips the metadata the tree-compatible timing model depends
// on: declaration-order data offsets and the AST node IDs on SETLBL.
func TestEncodeV2PreservesTreeMetadata(t *testing.T) {
	lat := lattice.TwoPoint()
	prog, err := parser.Parse(v2TestSrc)
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
	if len(bc.ScalarOffsets) != len(bc.ScalarNames) || len(bc.ArrayOffsets) != len(bc.ArrayNames) {
		t.Fatalf("compiler did not emit offsets: %v / %v", bc.ScalarOffsets, bc.ArrayOffsets)
	}
	var sawNode bool
	for _, ins := range bc.Code {
		if ins.Op == OpSetLbl && ins.C != 0 {
			sawNode = true
		}
	}
	if !sawNode {
		t.Fatal("no SETLBL carries a node ID")
	}
	var buf bytes.Buffer
	if err := bc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()), lat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Code, bc.Code) {
		t.Error("instruction stream (including SETLBL node IDs) changed across round trip")
	}
	if !reflect.DeepEqual(back.ScalarOffsets, bc.ScalarOffsets) {
		t.Errorf("scalar offsets changed: %v -> %v", bc.ScalarOffsets, back.ScalarOffsets)
	}
	if !reflect.DeepEqual(back.ArrayOffsets, bc.ArrayOffsets) {
		t.Errorf("array offsets changed: %v -> %v", bc.ArrayOffsets, back.ArrayOffsets)
	}
}

// TestDecodeAcceptsV1 hand-crafts a version-1 image (no offsets, no
// node IDs) and checks Decode still accepts it, yielding a program
// that runs under the legacy micro timing model.
func TestDecodeAcceptsV1(t *testing.T) {
	lat := lattice.TwoPoint()
	var buf bytes.Buffer
	buf.WriteString("TCBC")
	buf.WriteByte(1)
	writeUvarint := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	writeVarint := func(v int64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	writeString := func(s string) {
		writeUvarint(uint64(len(s)))
		buf.WriteString(s)
	}
	writeString(lat.Name())
	writeUvarint(0) // mitigates
	writeUvarint(1) // one scalar, no offset in v1
	writeString("x")
	writeUvarint(0) // no arrays
	code := []Instr{
		{Op: OpSetLbl, A: 0, B: 0},
		{Op: OpPush, A: 42},
		{Op: OpStore, A: 0},
		{Op: OpHalt},
	}
	writeUvarint(uint64(len(code)))
	for _, ins := range code {
		buf.WriteByte(byte(ins.Op))
		writeVarint(ins.A)
		writeVarint(ins.B)
	}
	p, err := Decode(bytes.NewReader(buf.Bytes()), lat)
	if err != nil {
		t.Fatalf("decoding v1 image: %v", err)
	}
	if len(p.ScalarOffsets) != 0 || len(p.ArrayOffsets) != 0 {
		t.Errorf("v1 decode invented offsets: %v / %v", p.ScalarOffsets, p.ArrayOffsets)
	}
	if !reflect.DeepEqual(p.Code, code) {
		t.Errorf("v1 code mismatch: %v", p.Code)
	}
}

// TestDecodeRejectsHugeArrays: an image whose arrays total more than
// 2^20 elements is rejected before linking, which builds per-element
// storage and event names, can run; an image at the bound still links,
// with each element's event name.
func TestDecodeRejectsHugeArrays(t *testing.T) {
	lat := lattice.TwoPoint()
	prog, err := parser.Parse(v2TestSrc)
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
	for _, c := range []struct {
		size int64
		ok   bool
	}{{1 << 20, true}, {1 << 21, false}} {
		bc.ArraySizes[0] = c.size
		var buf bytes.Buffer
		if err := bc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bytes.NewReader(buf.Bytes()), lat)
		if (err == nil) != c.ok {
			t.Fatalf("array of %d elements: Decode error %v, want accepted=%v", c.size, err, c.ok)
		}
		if c.ok {
			names := back.Opt.IdxNames[0]
			if len(names) != int(c.size) || names[0] != "tab[0]" || names[c.size-1] != "tab[1048575]" {
				t.Errorf("element names: %d, first %q, last %q", len(names), names[0], names[len(names)-1])
			}
		}
	}
}
