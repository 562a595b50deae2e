// Package budget defines the execution-budget vocabulary shared by
// every language implementation: the Budget struct bounding one run and
// the sentinel errors reported when a bound is exceeded.
//
// Both the tree-walking interpreter (sem/full) and the bytecode VM
// (bytecode) return these sentinels, so callers — most importantly the
// service layer — can match budget exhaustion with a single errors.Is
// regardless of which engine executed the request.
package budget

import "errors"

// ErrStepLimit is returned when a run exceeds its step budget. Steps
// are engine-granular: language-level steps for the tree-walking
// semantics, instructions for the bytecode VM.
var ErrStepLimit = errors.New("exec: step limit exceeded")

// ErrCycleLimit is returned when a run exceeds its simulated-cycle
// budget. Cycles are engine-independent simulated time, so a cycle
// budget means the same thing to every engine.
var ErrCycleLimit = errors.New("exec: cycle limit exceeded")

// Budget bounds one run. Zero fields are unlimited.
type Budget struct {
	// MaxSteps bounds engine steps (ErrStepLimit past it).
	MaxSteps int
	// MaxCycles bounds the simulated clock (ErrCycleLimit past it).
	MaxCycles uint64
}
