package exec

import (
	"context"
	"testing"

	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/sem/mem"
)

// TestMetricsObservationalOnly: on both engines, instrumented and
// uninstrumented runs are cycle-identical — recording metrics never
// perturbs simulated time — and the engine charges each run's metrics
// exactly once, failed or not. The mitigate block's estimate of 1
// cycle mispredicts against its 27-cycle body (sleep 21 plus step
// costs): five schedule bumps double the prediction to 32, and the
// padding to that boundary is 5 cycles. Steps count language steps on
// the tree engine and instructions on the VM.
func TestMetricsObservationalOnly(t *testing.T) {
	p, r := mustCheck(t, `
var h : H;
var x : L;
mitigate (1, H) [L,L] {
    sleep(h % 32) [H,H];
}
x := 1;
`)
	for _, tc := range []struct {
		engine                 string
		steps, stepsOverBudget uint64
	}{{"tree", 3, 3}, {"vm", 13, 12}} {
		t.Run(tc.engine, func(t *testing.T) {
			run := func(met *obs.Metrics, lim Limits) (*Result, error) {
				e, err := NewEngine(tc.engine, p, r, hw.NewFlat(r.Lat, 2), Options{Metrics: met, Limits: lim})
				if err != nil {
					t.Fatal(err)
				}
				return e.Run(context.Background(), Request{
					Setup: func(m *mem.Memory) { m.Set("h", 21) },
					Mit:   mitigation.NewState(r.Lat, nil, mitigation.PerLevel),
				})
			}
			plain, err := run(nil, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			clock := plain.Clock
			met := obs.NewMetrics()
			instrumented, err := run(met, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if instrumented.Clock != clock || clock != 40 {
				t.Errorf("clock: %d uninstrumented, %d instrumented, want 40 both", clock, instrumented.Clock)
			}
			want := obs.Counts{Steps: tc.steps, Cycles: 40, PaddingCycles: 5, Mitigations: 1, Mispredictions: 1, ScheduleBumps: 5}
			if got := met.Snapshot().Counts; got != want {
				t.Errorf("charged %+v, want %+v", got, want)
			}

			// A run that fails its cycle budget only after the final
			// padding is charged for everything it executed.
			met = obs.NewMetrics()
			if _, err := run(met, Limits{MaxCycles: 39}); err == nil {
				t.Fatal("a 40-cycle run must fail a 39-cycle budget")
			}
			want.Steps = tc.stepsOverBudget
			if got := met.Snapshot().Counts; got != want {
				t.Errorf("over budget: charged %+v, want %+v", got, want)
			}
		})
	}
}
