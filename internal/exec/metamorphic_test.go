package exec

// Metamorphic tests over generated programs: relations that must hold
// between two executions regardless of what the program computes.
// Unlike the differential tests (tree vs vm on hand-written programs),
// these sample the program space with progen and pin a service-level
// guarantee: engines are deterministic (same program, same inputs,
// same environment ⇒ identical traces and clocks).

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/progen"
)

// runSequence executes n requests on a fresh engine and returns the
// observed (clock, trace) sequence.
type runObs struct {
	Clock uint64
	Steps int
	Trace string
}

func runSequence(t *testing.T, engine string, seed int64, n int) []runObs {
	t.Helper()
	lat := lattice.TwoPoint()
	prog, res, src, err := progen.GenerateTyped(progen.Config{
		Lat:           lat,
		Seed:          seed,
		AllowMitigate: true,
		AllowSleep:    true,
	}, 50)
	if err != nil {
		t.Fatalf("seed %d: no well-typed program: %v", seed, err)
	}
	env := hw.NewFlat(lat, 2)
	e, err := NewEngine(engine, prog, res, env, Options{})
	if err != nil {
		t.Fatalf("seed %d: NewEngine(%s): %v\nprogram:\n%s", seed, engine, err, src)
	}
	out := make([]runObs, n)
	for i := range out {
		r, err := e.Run(context.Background(), Request{})
		if err != nil {
			t.Fatalf("seed %d: %s run %d: %v\nprogram:\n%s", seed, engine, i, err, src)
		}
		out[i] = runObs{Clock: r.Clock, Steps: r.Steps, Trace: fmt.Sprintf("%v", r.Trace)}
	}
	return out
}

func TestMetamorphic(t *testing.T) {
	const programs = 8
	const requests = 3
	for _, engine := range []string{"tree", "vm"} {
		engine := engine
		t.Run(engine+"/determinism", func(t *testing.T) {
			// Same program, fresh engine, fresh environment: the two
			// observation sequences must be identical — the property the
			// chaos suite's off-path check builds on.
			for seed := int64(1); seed <= programs; seed++ {
				a := runSequence(t, engine, seed, requests)
				b := runSequence(t, engine, seed, requests)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: engine %s diverged between identical runs:\n first: %+v\nsecond: %+v",
						seed, engine, a, b)
				}
			}
		})
	}
}
