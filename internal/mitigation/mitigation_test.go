package mitigation

import (
	"testing"
	"testing/quick"

	"repro/internal/lattice"
)

func TestFastDoublingSchedule(t *testing.T) {
	s := FastDoubling{}
	cases := []struct {
		init   int64
		misses int
		want   uint64
	}{
		{1, 0, 1}, {1, 1, 2}, {1, 3, 8},
		{10, 0, 10}, {10, 2, 40},
		{0, 0, 1}, {-5, 2, 4}, // max(n,1)
	}
	for _, c := range cases {
		if got := s.Predict(c.init, c.misses); got != c.want {
			t.Errorf("Predict(%d,%d) = %d, want %d", c.init, c.misses, got, c.want)
		}
	}
}

func TestFastDoublingSaturates(t *testing.T) {
	s := FastDoubling{}
	if got := s.Predict(1, 64); got != ^uint64(0) {
		t.Errorf("Predict(1,64) = %d, want saturation", got)
	}
	if got := s.Predict(1<<40, 30); got != ^uint64(0) {
		t.Errorf("huge shift should saturate, got %d", got)
	}
}

func TestLinearSchedule(t *testing.T) {
	s := Linear{}
	if s.Predict(10, 0) != 10 || s.Predict(10, 3) != 40 || s.Predict(0, 1) != 2 {
		t.Error("linear schedule wrong")
	}
}

func TestPenalizeDoubling(t *testing.T) {
	lat := lattice.TwoPoint()
	H := lat.Top()
	st := NewState(lat, FastDoubling{}, PerLevel)
	// elapsed 5 with init 1: predictions 1,2,4,8 → pred=8, 3 misses.
	pred, miss := st.Penalize(1, H, 0, 5)
	if pred != 8 || !miss {
		t.Errorf("pred=%d miss=%v, want 8,true", pred, miss)
	}
	if st.Misses(H, 0) != 3 {
		t.Errorf("misses = %d, want 3", st.Misses(H, 0))
	}
	// Next prediction starts at 8; elapsed 6 fits: no further misses.
	pred, miss = st.Penalize(1, H, 0, 6)
	if pred != 8 || miss {
		t.Errorf("pred=%d miss=%v, want 8,false", pred, miss)
	}
}

func TestPenalizeBoundaryIsMiss(t *testing.T) {
	// Fig. 6 uses ≥: elapsed exactly equal to the prediction counts as
	// a misprediction.
	lat := lattice.TwoPoint()
	H := lat.Top()
	st := NewState(lat, FastDoubling{}, PerLevel)
	pred, miss := st.Penalize(4, H, 0, 4)
	if pred != 8 || !miss {
		t.Errorf("pred=%d miss=%v, want 8,true", pred, miss)
	}
}

func TestPerLevelPolicySharesAcrossSites(t *testing.T) {
	lat := lattice.TwoPoint()
	H := lat.Top()
	st := NewState(lat, FastDoubling{}, PerLevel)
	st.Penalize(1, H, 0, 3) // site 0 misses twice (1→2→4)
	// Site 1 at the same level inherits the inflation (local penalty
	// policy is per-level, shared across sites).
	if got := st.Predict(1, H, 1); got != 4 {
		t.Errorf("site 1 prediction = %d, want 4", got)
	}
	// Different level unaffected.
	if got := st.Predict(1, lat.Bot(), 0); got != 1 {
		t.Errorf("L prediction = %d, want 1", got)
	}
}

func TestGlobalPolicy(t *testing.T) {
	lat := lattice.TwoPoint()
	st := NewState(lat, FastDoubling{}, Global)
	st.Penalize(1, lat.Top(), 0, 3)
	if got := st.Predict(1, lat.Bot(), 9); got != 4 {
		t.Errorf("global policy should share counters: %d", got)
	}
}

func TestPerSitePolicy(t *testing.T) {
	lat := lattice.TwoPoint()
	st := NewState(lat, FastDoubling{}, PerSite)
	st.Penalize(1, lat.Top(), 7, 3)
	if got := st.Predict(1, lat.Top(), 7); got != 4 {
		t.Errorf("site 7 prediction = %d, want 4", got)
	}
	if got := st.Predict(1, lat.Top(), 8); got != 1 {
		t.Errorf("site 8 should be unaffected: %d", got)
	}
}

// TestResetRestoresNewState penalises a state under each policy and
// resets it: it must be exactly the state NewState returns, scheme and
// policy included, which is what a recycled tenant session relies on.
func TestResetRestoresNewState(t *testing.T) {
	lat := lattice.TwoPoint()
	scheme := SlowDoubling{}
	for _, policy := range []Policy{PerLevel, Global, PerSite} {
		t.Run(policy.String(), func(t *testing.T) {
			st := NewState(lat, scheme, policy)
			fresh := NewState(lat, scheme, policy)
			st.Penalize(1, lat.Top(), 3, 1000)
			st.Penalize(1, lat.Bot(), 4, 10)
			if st.Equal(fresh) {
				t.Fatal("Penalize left the state as NewState made it")
			}
			st.Reset()
			if !st.Equal(fresh) {
				t.Errorf("Reset left %d misses, want the state NewState returns", st.TotalMisses())
			}
			for _, site := range []int{3, 4} {
				for _, level := range []lattice.Label{lat.Bot(), lat.Top()} {
					if got, want := st.Predict(1, level, site), fresh.Predict(1, level, site); got != want {
						t.Errorf("after Reset, Predict(1, %v, %d) = %d, want %d", level, site, got, want)
					}
				}
			}
		})
	}
}

func TestCloneAndEqual(t *testing.T) {
	lat := lattice.ThreePoint()
	M, _ := lat.Lookup("M")
	st := NewState(lat, FastDoubling{}, PerLevel)
	st.Penalize(1, M, 0, 10)
	c := st.Clone()
	if !st.Equal(c) {
		t.Fatal("clone should be equal")
	}
	c.Penalize(1, M, 0, 1000)
	if st.Equal(c) {
		t.Error("post-mutation states should differ")
	}
	if st.TotalMisses() == c.TotalMisses() {
		t.Error("miss totals should differ")
	}
}

func TestEqualDifferentPolicy(t *testing.T) {
	lat := lattice.TwoPoint()
	a := NewState(lat, FastDoubling{}, PerLevel)
	b := NewState(lat, FastDoubling{}, Global)
	if a.Equal(b) {
		t.Error("different policies differ")
	}
	c := NewState(lat, Linear{}, PerLevel)
	if a.Equal(c) {
		t.Error("different schemes differ")
	}
}

func TestDefaultScheme(t *testing.T) {
	lat := lattice.TwoPoint()
	st := NewState(lat, nil, PerLevel)
	if st.Scheme().Name() != "fast-doubling" {
		t.Errorf("default scheme = %s", st.Scheme().Name())
	}
	if st.Policy() != PerLevel {
		t.Error("policy accessor")
	}
}

func TestPolicyString(t *testing.T) {
	if PerLevel.String() != "per-level" || Global.String() != "global" || PerSite.String() != "per-site" {
		t.Error("policy names")
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy should still print")
	}
}

// Property: after Penalize, the returned prediction always strictly
// exceeds elapsed (for non-saturating inputs), and the number of
// distinct predictions that a doubling schedule can produce within
// elapsed T is at most log2(T)+2 — the heart of the O(log T) leakage
// bound.
func TestPenalizeCoversElapsedQuick(t *testing.T) {
	lat := lattice.TwoPoint()
	H := lat.Top()
	f := func(init int16, elapsed uint16) bool {
		st := NewState(lat, FastDoubling{}, PerLevel)
		pred, _ := st.Penalize(int64(init), H, 0, uint64(elapsed))
		return pred > uint64(elapsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPredictMonotoneInMissesQuick(t *testing.T) {
	f := func(init int16, m uint8) bool {
		misses := int(m % 40)
		d := FastDoubling{}
		l := Linear{}
		return d.Predict(int64(init), misses+1) >= d.Predict(int64(init), misses) &&
			l.Predict(int64(init), misses+1) >= l.Predict(int64(init), misses) &&
			d.Predict(int64(init), misses) >= 1 && l.Predict(int64(init), misses) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSlowDoublingSchedule(t *testing.T) {
	s := SlowDoubling{Period: 2}
	// Doubles on every second miss: 0→n, 1→n, 2→2n, 3→2n, 4→4n ...
	cases := []struct {
		misses int
		want   uint64
	}{{0, 10}, {1, 10}, {2, 20}, {3, 20}, {4, 40}, {5, 40}}
	for _, c := range cases {
		if got := s.Predict(10, c.misses); got != c.want {
			t.Errorf("Predict(10,%d) = %d, want %d", c.misses, got, c.want)
		}
	}
	if s.Name() != "slow-doubling-2" {
		t.Error("name")
	}
	// Period 1 coincides with FastDoubling on whole doublings.
	s1 := SlowDoubling{Period: 1}
	fd := FastDoubling{}
	for m := 0; m < 10; m++ {
		if s1.Predict(3, m) != fd.Predict(3, m) {
			t.Errorf("period-1 mismatch at %d: %d vs %d", m, s1.Predict(3, m), fd.Predict(3, m))
		}
	}
	// Degenerate period.
	if (SlowDoubling{Period: 0}).Predict(1, 3) != 8 {
		t.Error("period<1 should behave as 1")
	}
	// Saturation.
	if (SlowDoubling{Period: 1}).Predict(1, 100) != ^uint64(0) {
		t.Error("saturation")
	}
}

func TestSlowDoublingMonotoneQuick(t *testing.T) {
	s := SlowDoubling{Period: 3}
	for m := 0; m < 60; m++ {
		if s.Predict(7, m+1) < s.Predict(7, m) {
			t.Fatalf("not monotone at %d", m)
		}
	}
	st := NewState(lattice.TwoPoint(), SlowDoubling{Period: 2}, PerLevel)
	pred, _ := st.Penalize(4, lattice.TwoPoint().Top(), 0, 100)
	if pred <= 100 {
		t.Errorf("penalize should cover elapsed: %d", pred)
	}
}
