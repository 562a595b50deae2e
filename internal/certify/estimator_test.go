package certify

import (
	"math"
	"testing"
)

func TestEstimateMIPerfectChannel(t *testing.T) {
	// 8 secrets, each deterministically mapped to a distinct time,
	// 4 samples each: the plug-in estimate is exactly 3 bits. With
	// kx = ky = kxy the Miller–Madow correction is +(k−1)/(2n·ln2) —
	// conservative in the certification direction (never understates a
	// deterministic channel).
	var secrets []int
	var obs []uint64
	for r := 0; r < 4; r++ {
		for s := 0; s < 8; s++ {
			secrets = append(secrets, s)
			obs = append(obs, uint64(100+10*s))
		}
	}
	mi := EstimateMI(secrets, obs, NewRNG(1))
	if math.Abs(mi.Plugin-3) > 1e-9 {
		t.Errorf("plugin = %f, want 3", mi.Plugin)
	}
	if mi.Bits < 3 || mi.Bits > 3.2 {
		t.Errorf("corrected = %f, want in [3, 3.2]", mi.Bits)
	}
	if mi.Upper < mi.Bits {
		t.Errorf("upper %f below point %f", mi.Upper, mi.Bits)
	}
	if mi.N != 32 {
		t.Errorf("N = %d", mi.N)
	}
}

func TestEstimateMIFlatChannel(t *testing.T) {
	var secrets []int
	var obs []uint64
	for r := 0; r < 4; r++ {
		for s := 0; s < 8; s++ {
			secrets = append(secrets, s)
			obs = append(obs, 42)
		}
	}
	mi := EstimateMI(secrets, obs, NewRNG(1))
	if mi.Plugin != 0 || mi.Bits != 0 || mi.Upper != 0 {
		t.Errorf("flat channel should score exactly zero: %+v", mi)
	}
}

func TestEstimateMIIndependent(t *testing.T) {
	// Observation alternates independently of the secret: the plug-in
	// estimate is 0 here (counts are exactly balanced), and the
	// correction must not push it negative.
	secrets := []int{0, 0, 1, 1, 0, 0, 1, 1}
	obs := []uint64{5, 9, 5, 9, 9, 5, 9, 5}
	mi := EstimateMI(secrets, obs, NewRNG(1))
	if mi.Plugin != 0 || mi.Bits != 0 {
		t.Errorf("independent MI = %+v, want 0", mi)
	}
}

func TestEstimateMICorrectionShrinksBias(t *testing.T) {
	// Sparse sampling of independent variables: the plug-in estimate
	// is spuriously positive; Miller–Madow must shrink it.
	rng := NewRNG(7)
	var secrets []int
	var obs []uint64
	for i := 0; i < 24; i++ {
		secrets = append(secrets, rng.Intn(8))
		obs = append(obs, uint64(rng.Intn(8)))
	}
	mi := EstimateMI(secrets, obs, NewRNG(1))
	if mi.Plugin <= 0 {
		t.Skip("sample happened to score zero plug-in MI")
	}
	if mi.Bits >= mi.Plugin {
		t.Errorf("correction did not shrink bias: plugin %f, corrected %f", mi.Plugin, mi.Bits)
	}
}

func TestEstimateMIDeterministic(t *testing.T) {
	secrets := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
	obs := []uint64{9, 9, 7, 7, 9, 7, 7, 9, 9, 9, 7, 7}
	a := EstimateMI(secrets, obs, NewRNG(99))
	b := EstimateMI(secrets, obs, NewRNG(99))
	if a != b {
		t.Errorf("same seed, different estimates: %+v vs %+v", a, b)
	}
	c := EstimateMI(secrets, obs, NewRNG(100))
	if a.Bits != c.Bits {
		t.Errorf("the point estimate must not depend on the bootstrap seed: %f vs %f", a.Bits, c.Bits)
	}
}

func TestEstimateMIDegenerate(t *testing.T) {
	if mi := EstimateMI(nil, nil, NewRNG(1)); mi != (MI{}) {
		t.Errorf("empty input: %+v", mi)
	}
	if mi := EstimateMI([]int{1}, []uint64{1, 2}, NewRNG(1)); mi != (MI{}) {
		t.Errorf("length mismatch: %+v", mi)
	}
}

func TestRNGDeterminismAndRanges(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	if NewRNG(5).Fork(1).Uint64() == NewRNG(5).Fork(2).Uint64() {
		t.Error("forks with distinct tags should differ")
	}
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(idx)
	seen := map[int]bool{}
	for _, v := range idx {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Error("Shuffle lost elements")
	}
}
