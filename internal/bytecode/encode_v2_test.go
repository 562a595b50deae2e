package bytecode

import (
	"bytes"
	"reflect"
	"strings"
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
// round-trips the metadata the VM's costs depend on: declaration-order
// data offsets and the AST node IDs on SETLBL.
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

// TestDecodeRejectsV1 checks that Decode refuses a whole version-1
// image of x := 42: it carries neither the data offsets nor the SETLBL
// node IDs the VM charges at, so there is no cost to run it under.
func TestDecodeRejectsV1(t *testing.T) {
	v1 := []byte("TCBC\x01\x09two-point\x00\x01\x01x\x00\x04" +
		"\x01\x00\x00\x02\x54\x00\x05\x00\x00\x0e\x00\x00")
	_, err := Decode(bytes.NewReader(v1), lattice.TwoPoint())
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("decoding a version-1 image: err = %v", err)
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
