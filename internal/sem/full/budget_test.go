package full

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/exec/budget"
	"repro/internal/machine/hw"
)

const loopSrc = `
var i : L;
i := 0;
while (i < 100000) {
    i := i + 1;
}
`

func TestRunBudgetStepLimit(t *testing.T) {
	p, r := build(t, loopSrc)
	m, err := New(p, r, hw.NewFlat(r.Lat, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunBudget(context.Background(), Budget{MaxSteps: 100})
	if !errors.Is(err, budget.ErrStepLimit) {
		t.Fatalf("RunBudget = %v, want budget.ErrStepLimit", err)
	}
}

func TestRunBudgetCycleLimit(t *testing.T) {
	p, r := build(t, loopSrc)
	m, err := New(p, r, hw.NewFlat(r.Lat, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunBudget(context.Background(), Budget{MaxCycles: 50})
	if !errors.Is(err, budget.ErrCycleLimit) {
		t.Fatalf("RunBudget = %v, want budget.ErrCycleLimit", err)
	}
}

func TestRunBudgetUnlimited(t *testing.T) {
	p, r := build(t, "var x : L; x := 1;")
	m, err := New(p, r, hw.NewFlat(r.Lat, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Zero budget means unlimited, and a nil context is tolerated.
	if err := m.RunBudget(nil, Budget{}); err != nil {
		t.Fatalf("RunBudget = %v", err)
	}
	if !m.Done() {
		t.Error("machine should have terminated")
	}
}

func TestRunBudgetContextCancel(t *testing.T) {
	p, r := build(t, `
var i : L;
i := 0;
while (i < 1000000000) {
    i := i + 1;
}
`)
	m, err := New(p, r, hw.NewFlat(r.Lat, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err = m.RunBudget(ctx, Budget{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunBudget = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunMatchesRunBudget(t *testing.T) {
	// The legacy Run(maxSteps) must behave exactly like RunBudget with a
	// step budget: same traces, same clock.
	src := `
var h : H;
var x : L;
mitigate (1, H) [L,L] {
    sleep(h % 10) [H,H];
}
x := 1;
`
	p, r := build(t, src)
	m1, err := New(p, r, hw.NewFlat(r.Lat, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1.Memory().Set("h", 7)
	if err := m1.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	m2, err := New(p, r, hw.NewFlat(r.Lat, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2.Memory().Set("h", 7)
	if err := m2.RunBudget(context.Background(), Budget{MaxSteps: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if m1.Clock() != m2.Clock() || m1.Steps() != m2.Steps() {
		t.Errorf("Run: %d cycles/%d steps; RunBudget: %d cycles/%d steps",
			m1.Clock(), m1.Steps(), m2.Clock(), m2.Steps())
	}
}
