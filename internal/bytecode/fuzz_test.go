package bytecode

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/types"
)

// FuzzDecode feeds arbitrary bytes to the bytecode decoder. The
// contract under attack: Decode must return a typed error for any
// malformed image — never panic, never hang, never hand back a program
// that fails validation — and any image it does accept must round-trip
// (decode → encode → decode is a fixpoint) and run on the VM without a
// panic, since accepted programs are executed without further
// structural checks.
func FuzzDecode(f *testing.F) {
	lat := lattice.TwoPoint()

	// Seed the corpus with structured prefixes and one real compiled
	// program, so the fuzzer starts at the interesting boundaries
	// instead of rediscovering the magic number.
	f.Add([]byte{})
	f.Add([]byte("TCBC"))
	f.Add([]byte("TCBC\x01"))
	f.Add([]byte("TCBC\x02"))
	f.Add([]byte("TCBC\x03"))
	f.Add([]byte("XXXX\x02"))
	prog, err := parser.Parse(`
var h : H;
array a[4] : L;
mitigate (1, H) [L,L] {
    sleep(h % 8) [H,H];
}
a[0] := 1;
`)
	if err != nil {
		f.Fatal(err)
	}
	res, err := types.Check(prog, lat)
	if err != nil {
		f.Fatal(err)
	}
	bp, err := Compile(prog, res)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bp.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(bytes.NewReader(data), lat)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Accepted images must satisfy the validator's own invariants...
		if verr := p.validate(); verr != nil {
			t.Fatalf("Decode accepted an invalid program: %v", verr)
		}
		// ...and re-encode to an image that decodes to the same program.
		var out bytes.Buffer
		if err := p.Encode(&out); err != nil {
			t.Fatalf("re-encoding accepted program: %v", err)
		}
		p2, err := Decode(bytes.NewReader(out.Bytes()), lat)
		if err != nil {
			t.Fatalf("re-decoding re-encoded program: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round-trip mismatch:\n first: %+v\nsecond: %+v", p, p2)
		}
		// ...and run: any outcome but a panic is fine.
		NewVM(p, hw.NewFlat(lat, 1), VMOptions{}).Run(10_000)
	})
}
