package certify

import (
	"context"
	"strings"
	"testing"

	"repro/internal/machine/hw"
)

// TestCertifySweepFull runs the complete certification matrix in
// process — the same 46 rows `make certify` records — so the full
// planner, every binding constructor, and the gate logic are covered
// by `go test` alone, not only by the external tool.
func TestCertifySweepFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix: covered by the quick slice in -short mode")
	}
	rows, err := Sweep(context.Background(), SweepOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 46 {
		t.Fatalf("full matrix has %d rows, want 46", len(rows))
	}
	if err := Check(rows); err != nil {
		t.Fatalf("full matrix gate: %v", err)
	}
	// Every verdict string renders one of the two report spellings.
	for _, r := range rows {
		if v := r.Result.Verdict(); v != "CERTIFIED" && v != "LEAKS" {
			t.Fatalf("row %s: verdict %q", r.Label(), v)
		}
	}
}

// TestNewBinarySearchDefault: the default constructor draws the
// planted secret from the rng and still isolates it on an exact
// channel.
func TestNewBinarySearchDefault(t *testing.T) {
	b := NewBinarySearch()
	if b.Planted != -1 {
		t.Fatalf("default plant = %d, want -1 (random)", b.Planted)
	}
	w, err := SleepWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewEngineTarget(w, TargetConfig{Mitigated: false})
	if err != nil {
		t.Fatal(err)
	}
	att, err := b.Mount(context.Background(), tgt, NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if att.Bits != 3 {
		t.Errorf("exact 8-secret channel should yield 3 bits, got %.3f", att.Bits)
	}
}

// TestEngineTargetCoresident pins the Coresident surface adversaries
// in other packages type-assert: a direct engine target shares its
// environment and publishes the workload's true cache geometry.
func TestEngineTargetCoresident(t *testing.T) {
	w, err := SleepWorkload(4)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewEngineTarget(w, TargetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var c Coresident = tgt
	if c.SharedEnv() == nil {
		t.Fatal("engine target must share its environment")
	}
	if got, want := c.HWConfig().Data.L1.Sets, hw.Table1Config().Data.L1.Sets; got != want {
		t.Errorf("published L1 geometry %d sets, want %d", got, want)
	}
}

// TestRNGFloat64 covers the 53-bit construction shared with the client
// jitter: in range, and deterministic per seed.
func TestRNGFloat64(t *testing.T) {
	a, b := NewRNG(3), NewRNG(3)
	for i := 0; i < 100; i++ {
		f := a.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		if f != b.Float64() {
			t.Fatal("same seed must replay")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	a.Intn(0)
}

// TestCorpusEmbedded: the checked-in corpus parses and every entry is
// instantiable — a secret variable to vary and a secret space of at
// least two.
func TestCorpusEmbedded(t *testing.T) {
	entries, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty corpus")
	}
	for _, e := range entries {
		if e.Var == "" || e.N < 2 {
			t.Errorf("corpus entry %+v must name a secret var and N ≥ 2", e)
		}
	}
	ws, err := CorpusWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if !strings.HasPrefix(w.Name, "progen-") {
			t.Errorf("corpus workload name %q", w.Name)
		}
	}
}
