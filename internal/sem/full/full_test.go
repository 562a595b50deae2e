package full

import (
	"errors"
	"testing"

	"repro/internal/exec/budget"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/sem/core"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// build parses and type-checks a program over the two-point lattice.
func build(t *testing.T, src string) (*ast.Program, *types.Result) {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := types.Check(p, lattice.TwoPoint())
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return p, r
}

func execFlat(t *testing.T, src string, setup func(*mem.Memory)) *Result {
	t.Helper()
	p, r := build(t, src)
	env := hw.NewFlat(r.Lat, 2)
	res, err := Execute(p, r, env, Options{}, setup, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestClockAdvances(t *testing.T) {
	res := execFlat(t, "var x : L; x := 1; x := 2;", nil)
	if res.Clock == 0 {
		t.Error("clock should advance")
	}
	if res.Steps != 2 {
		t.Errorf("steps = %d, want 2", res.Steps)
	}
}

func TestSleepDurationExact(t *testing.T) {
	// Property 4: sleep(n) adds exactly max(n,0) on top of the step's
	// fixed overhead — measure by differencing two sleeps.
	r10 := execFlat(t, "var l : L; sleep(10);", nil)
	r50 := execFlat(t, "var l : L; sleep(50);", nil)
	if r50.Clock-r10.Clock != 40 {
		t.Errorf("sleep delta = %d, want 40", r50.Clock-r10.Clock)
	}
	rNeg := execFlat(t, "var l : L; sleep(0 - 7);", nil)
	rZero := execFlat(t, "var l : L; sleep(0 - 0);", nil)
	if rNeg.Clock != rZero.Clock {
		t.Errorf("negative sleep should cost like zero: %d vs %d", rNeg.Clock, rZero.Clock)
	}
}

func TestSleepOnVariable(t *testing.T) {
	src := "var h : H; var r : H; sleep(h) [H,H]; r := 1 [H,H];"
	p, r := build(t, src)
	run := func(h int64) uint64 {
		env := hw.NewFlat(r.Lat, 2)
		res, err := Execute(p, r, env, Options{}, func(m *mem.Memory) { m.Set("h", h) }, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Clock
	}
	if run(100)-run(0) != 100 {
		t.Errorf("sleep(h) delta = %d, want 100", run(100)-run(0))
	}
}

func TestEventsCarryTimes(t *testing.T) {
	res := execFlat(t, "var x : L; x := 1; sleep(100); x := 2;", nil)
	if len(res.Trace) != 2 {
		t.Fatalf("trace = %v", res.Trace)
	}
	if res.Trace[1].Time-res.Trace[0].Time <= 100 {
		t.Errorf("second event should be >100 cycles later: %v", res.Trace)
	}
	if res.Trace[0].Time == 0 {
		t.Error("event times should be post-step clock values")
	}
}

func TestAdequacyWithCore(t *testing.T) {
	// Property 1: the full semantics computes the same memory and the
	// same (valuewise) event trace as the core semantics.
	srcs := []string{
		"var x : L; var i : L; while (i < 7) { x := x + i * 2; i := i + 1; }",
		`var h : H; var r : H; var i : L;
         mitigate (1, H) [L,L] {
             if (h > 3) [H,H] { r := 1 [H,H]; } else { r := 2 [H,H]; }
             sleep(h) [H,H];
         }
         i := 5;`,
		`array a[8] : L; var i : L; var s : L;
         while (i < 8) { a[i] := 7 - i; i := i + 1; }
         s := a[0] * 10 + a[7];`,
	}
	for _, src := range srcs {
		p, r := build(t, src)
		setH := func(m *mem.Memory) {
			if m.HasScalar("h") {
				m.Set("h", 5)
			}
		}
		// Core run.
		cm := mem.New(p)
		setH(cm)
		ck := core.New(p, cm)
		if err := ck.Run(100000); err != nil {
			t.Fatal(err)
		}
		// Full run.
		env := hw.NewPartitioned(r.Lat, hw.TinyConfig())
		res, err := Execute(p, r, env, Options{}, setH, 100000)
		if err != nil {
			t.Fatal(err)
		}
		fm := res.Trace
		if !ck.Trace().ValuesEqual(fm) {
			t.Errorf("trace values differ for %q:\ncore: %v\nfull: %v", src, ck.Trace(), fm)
		}
	}
}

func TestAdequacyFinalMemory(t *testing.T) {
	src := `
var h : H; var acc : H; var i : H;
while (i < 10) [H,H] {
    if ((h >> i) & 1) [H,H] { acc := acc + i [H,H]; } else { skip [H,H]; }
    i := i + 1 [H,H];
}
`
	p, r := build(t, src)
	cm := mem.New(p)
	cm.Set("h", 0b1011011)
	ck := core.New(p, cm)
	if err := ck.Run(100000); err != nil {
		t.Fatal(err)
	}
	env := hw.NewNoFill(r.Lat, hw.TinyConfig())
	m, err := New(p, r, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.Memory().Set("h", 0b1011011)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if !m.Memory().Equal(cm) {
		t.Error("final memories differ between core and full semantics")
	}
	if m.Steps() != ck.Steps() {
		t.Errorf("step counts differ: full %d, core %d", m.Steps(), ck.Steps())
	}
}

func TestDeterminismProperty2(t *testing.T) {
	src := `
var h : H; var i : H; array a[4] : H;
while (i < 16) {
    a[h % 4] := a[h % 4] + 1;
    h := h * 1103515245 + 12345;
    i := i + 1;
}
`
	p, r := build(t, src)
	run := func() *Result {
		env := hw.NewPartitioned(r.Lat, hw.TinyConfig())
		res, err := Execute(p, r, env, Options{}, func(m *mem.Memory) { m.Set("h", 99) }, 100000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Clock != b.Clock {
		t.Errorf("clocks differ: %d vs %d", a.Clock, b.Clock)
	}
	if !a.Trace.Equal(b.Trace) {
		t.Error("traces differ")
	}
}

func TestCacheMakesReuseFaster(t *testing.T) {
	// Two reads of the same variable: the second should be faster on
	// real cache models, observable via assignment event spacing.
	src := "var a : L; var x : L; var y : L; x := a; y := a;"
	p, r := build(t, src)
	env := hw.NewUnpartitioned(r.Lat, hw.Table1Config())
	res, err := Execute(p, r, env, Options{}, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	d1 := res.Trace[0].Time
	d2 := res.Trace[1].Time - res.Trace[0].Time
	if d2 >= d1 {
		t.Errorf("warm access (%d) should beat cold (%d)", d2, d1)
	}
}

func TestMitigationPadsToPrediction(t *testing.T) {
	// With a generous initial prediction, the mitigate's duration is
	// exactly the prediction regardless of the secret sleep inside.
	src := `
var h : H;
mitigate (1000, H) [L,L] { sleep(h) [H,H]; }
`
	p, r := build(t, src)
	run := func(h int64) *Result {
		env := hw.NewFlat(r.Lat, 2)
		res, err := Execute(p, r, env, Options{}, func(m *mem.Memory) { m.Set("h", h) }, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(5), run(900)
	if len(a.Mitigations) != 1 || len(b.Mitigations) != 1 {
		t.Fatal("expected one mitigation record")
	}
	if a.Mitigations[0].Duration != 1000 || b.Mitigations[0].Duration != 1000 {
		t.Errorf("durations %d/%d, want 1000", a.Mitigations[0].Duration, b.Mitigations[0].Duration)
	}
	if a.Clock != b.Clock {
		t.Errorf("mitigated clocks should coincide: %d vs %d", a.Clock, b.Clock)
	}
	if a.Mitigations[0].Mispredicted || b.Mitigations[0].Mispredicted {
		t.Error("no misprediction expected")
	}
}

func TestMitigationDoublesOnMiss(t *testing.T) {
	src := `
var h : H;
mitigate (16, H) [L,L] { sleep(h) [H,H]; }
`
	p, r := build(t, src)
	env := hw.NewFlat(r.Lat, 2)
	res, err := Execute(p, r, env, Options{}, func(m *mem.Memory) { m.Set("h", 100) }, 10000)
	if err != nil {
		t.Fatal(err)
	}
	mrec := res.Mitigations[0]
	if !mrec.Mispredicted {
		t.Error("expected misprediction")
	}
	// Schedule: 16, 32, 64, 128 — body takes ~104 cycles, so 128.
	if mrec.Duration != 128 {
		t.Errorf("duration = %d, want 128 (doubling schedule)", mrec.Duration)
	}
}

func TestMitigationDurationsAreQuantized(t *testing.T) {
	// Across many secrets, the set of observed durations must be a
	// subset of the doubling schedule {16, 32, 64, 128, ...}.
	src := `
var h : H;
mitigate (16, H) [L,L] { sleep(h) [H,H]; }
`
	p, r := build(t, src)
	seen := map[uint64]bool{}
	for h := int64(0); h < 200; h += 7 {
		env := hw.NewFlat(r.Lat, 2)
		res, err := Execute(p, r, env, Options{}, func(m *mem.Memory) { m.Set("h", h) }, 10000)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Mitigations[0].Duration] = true
	}
	for d := range seen {
		ok := false
		for p := uint64(16); p <= 1<<20; p *= 2 {
			if d == p {
				ok = true
			}
		}
		if !ok {
			t.Errorf("duration %d is not on the doubling schedule", d)
		}
	}
	if len(seen) > 5 {
		t.Errorf("too many distinct durations: %d", len(seen))
	}
}

func TestNestedMitigationTiming(t *testing.T) {
	// The outer mitigate absorbs the inner one's padded duration.
	// The inner prediction (64) covers its body so the inner mitigate
	// never misses; otherwise the per-level policy would let inner
	// misses inflate the outer prediction (see
	// TestPerLevelInflationAcrossNesting).
	src := `
var h : H;
mitigate@1 (4096, H) [L,L] {
    if (h) [H,H] {
        mitigate@2 (64, H) [H,H] { h := h + 1 [H,H]; }
    } else {
        skip [H,H];
    }
}
`
	p, r := build(t, src)
	run := func(h int64) *Result {
		env := hw.NewFlat(r.Lat, 2)
		res, err := Execute(p, r, env, Options{}, func(m *mem.Memory) { m.Set("h", h) }, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1) // executes inner mitigate
	b := run(0) // skips it
	// Outer duration identical (inner fits inside the outer prediction).
	outerA := a.Mitigations[len(a.Mitigations)-1]
	outerB := b.Mitigations[len(b.Mitigations)-1]
	if outerA.ID != 1 || outerB.ID != 1 {
		t.Fatalf("outer records: %v / %v", a.Mitigations, b.Mitigations)
	}
	if outerA.Duration != outerB.Duration {
		t.Errorf("outer durations differ: %d vs %d", outerA.Duration, outerB.Duration)
	}
	// The inner mitigate appears only in the h=1 trace (it is in a high
	// context — Lemma 1 says only low-context mitigates are
	// deterministic).
	if len(a.Mitigations) != 2 || len(b.Mitigations) != 1 {
		t.Errorf("mitigation counts: %d vs %d", len(a.Mitigations), len(b.Mitigations))
	}
}

func TestPerLevelInflationAcrossNesting(t *testing.T) {
	// With the paper's per-level penalty policy, misses of a nested
	// mitigate at level H inflate the predictions of every H-level
	// mitigate — including its enclosing one. The outer duration then
	// still takes only schedule values (bounded leakage), but differs
	// across secrets.
	src := `
var h : H;
mitigate@1 (4096, H) [L,L] {
    if (h) [H,H] {
        mitigate@2 (1, H) [H,H] { h := h + 1 [H,H]; }
    } else {
        skip [H,H];
    }
}
`
	p, r := build(t, src)
	run := func(h int64) *Result {
		env := hw.NewFlat(r.Lat, 2)
		res, err := Execute(p, r, env, Options{}, func(m *mem.Memory) { m.Set("h", h) }, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1) // inner mitigate misses, inflating Miss[H]
	b := run(0)
	outerA := a.Mitigations[len(a.Mitigations)-1]
	outerB := b.Mitigations[len(b.Mitigations)-1]
	if outerA.Duration <= outerB.Duration {
		t.Errorf("expected inner misses to inflate the outer prediction: %d vs %d",
			outerA.Duration, outerB.Duration)
	}
	// Both durations must lie on the outer doubling schedule.
	for _, d := range []uint64{outerA.Duration, outerB.Duration} {
		on := false
		for s := uint64(4096); s <= 1<<30; s *= 2 {
			if d == s {
				on = true
			}
		}
		if !on {
			t.Errorf("outer duration %d off schedule", d)
		}
	}
}

func TestDisableMitigation(t *testing.T) {
	src := `
var h : H;
mitigate (1000, H) [L,L] { sleep(h) [H,H]; }
`
	p, r := build(t, src)
	run := func(h int64) *Result {
		env := hw.NewFlat(r.Lat, 2)
		res, err := Execute(p, r, env, Options{DisableMitigation: true},
			func(m *mem.Memory) { m.Set("h", h) }, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(5), run(800)
	if a.Clock == b.Clock {
		t.Error("unmitigated clocks should differ with the secret")
	}
	// Disabled mitigation still records raw body times for sampling.
	if len(a.Mitigations) != 1 || a.Mitigations[0].Duration != a.Mitigations[0].Elapsed {
		t.Errorf("disabled mitigation should record raw elapsed: %v", a.Mitigations)
	}
	if b.Mitigations[0].Elapsed-a.Mitigations[0].Elapsed != 795 {
		t.Errorf("elapsed delta = %d, want 795", b.Mitigations[0].Elapsed-a.Mitigations[0].Elapsed)
	}
}

func TestMissCountersPersistAcrossMitigates(t *testing.T) {
	// The local penalty policy: a miss at level H inflates the next
	// prediction at H.
	src := `
var h : H;
mitigate@0 (8, H) [L,L] { sleep(h) [H,H]; }
mitigate@1 (8, H) [L,L] { sleep(1) [H,H]; }
`
	p, r := build(t, src)
	env := hw.NewFlat(r.Lat, 2)
	m, err := New(p, r, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.Memory().Set("h", 100)
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	recs := m.Mitigations()
	if len(recs) != 2 {
		t.Fatalf("records: %v", recs)
	}
	if !recs[0].Mispredicted {
		t.Error("first mitigate should miss")
	}
	if recs[1].Duration != recs[0].Duration {
		t.Errorf("second prediction should inherit inflation: %d vs %d",
			recs[1].Duration, recs[0].Duration)
	}
	if m.MitigationState().TotalMisses() == 0 {
		t.Error("miss counters should be positive")
	}
}

func TestPerSitePolicyIsolatesSites(t *testing.T) {
	src := `
var h : H;
mitigate@0 (8, H) [L,L] { sleep(h) [H,H]; }
mitigate@1 (8, H) [L,L] { sleep(1) [H,H]; }
`
	p, r := build(t, src)
	env := hw.NewFlat(r.Lat, 2)
	m, err := New(p, r, env, Options{Policy: mitigation.PerSite})
	if err != nil {
		t.Fatal(err)
	}
	m.Memory().Set("h", 100)
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	recs := m.Mitigations()
	if recs[1].Duration >= recs[0].Duration {
		t.Errorf("per-site: second site should not inherit inflation: %v", recs)
	}
}

func TestStepLimitError(t *testing.T) {
	p, r := build(t, "var x : L; while (1) { x := x + 1; }")
	env := hw.NewFlat(r.Lat, 1)
	_, err := Execute(p, r, env, Options{}, nil, 50)
	if !errors.Is(err, budget.ErrStepLimit) {
		t.Errorf("err = %v, want budget.ErrStepLimit", err)
	}
}

func TestUnresolvedLabelsRejected(t *testing.T) {
	p, err := parser.Parse("var x : L; x := 1;")
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately skip type checking.
	lat := lattice.TwoPoint()
	fake := &types.Result{Lat: lat}
	if _, err := New(p, fake, hw.NewFlat(lat, 1), Options{}); err == nil {
		t.Error("expected unresolved-labels error")
	}
}

func TestCloneIndependence(t *testing.T) {
	p, r := build(t, "var x : L; var i : L; while (i < 5) { x := x + i; i := i + 1; }")
	env := hw.NewFlat(r.Lat, 2)
	m, err := New(p, r, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.Step()
	}
	c := m.Clone()
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10000); err != nil {
		t.Fatal(err)
	}
	if m.Clock() != c.Clock() {
		t.Errorf("clone diverged: %d vs %d", m.Clock(), c.Clock())
	}
	if !m.Memory().Equal(c.Memory()) {
		t.Error("memories diverged")
	}
}

func TestExecuteCollectsStats(t *testing.T) {
	p, r := build(t, "var x : L; x := 1; x := x + 1;")
	env := hw.NewUnpartitioned(r.Lat, hw.Table1Config())
	res, err := Execute(p, r, env, Options{}, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.L1DHits+res.Stats.L1DMisses == 0 {
		t.Error("expected data accesses in stats")
	}
	if res.Stats.L1IHits+res.Stats.L1IMisses == 0 {
		t.Error("expected instruction fetches in stats")
	}
}
