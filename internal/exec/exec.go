// Package exec defines the execution-engine API that unifies the two
// language implementations — the tree-walking full semantics and the
// bytecode VM — behind one interface, so the service layer (and any
// other caller) can select an engine by name the same way it selects a
// machine environment from hw's registry.
//
// An Engine is constructed once per serial execution context (a
// server, a pool shard, an experiment arm) for one program, and then
// runs many requests. Engines are NOT safe for concurrent use; like
// server.Server, each goroutine owns its own. This is what lets the VM
// engine compile once, when it is built, and reuse its machine across
// requests — the service hot path the tree-walker cannot match,
// because it must rebuild per-request interpreter state.
//
// Both engines run against the same hw.Env contract and charge the same
// costs (the constants of sem/mem), so they produce identical event
// traces and leakage bounds — differential tests in this package
// enforce that.
package exec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec/budget"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/sem/events"
	"repro/internal/sem/mem"
)

// Limits bounds one request, unifying the budget and timeout knobs
// that used to be duplicated between server.Options and exec.Options.
// Zero fields are unlimited. It is embedded in both option structs, so
// the same field names configure a serial server, a pool shard, and a
// bare engine — and the wire schema of internal/transport freezes
// against one vocabulary.
type Limits struct {
	// MaxSteps bounds engine-granular work per request: language-level
	// steps for the tree engine, instructions for the VM. Exceeding it
	// fails the run with budget.ErrStepLimit.
	MaxSteps int
	// MaxCycles, when non-zero, bounds each request's simulated cycles
	// — the same simulated time to every engine. Exceeding it fails
	// the run with budget.ErrCycleLimit.
	MaxCycles uint64
	// Timeout, when positive, bounds each request's wall-clock time:
	// Run derives a per-request deadline context, so a stalled or
	// runaway request fails with context.DeadlineExceeded instead of
	// holding its execution context forever.
	Timeout time.Duration
}

// Validate reports the first configuration error — the single
// validation point for every option struct that embeds Limits.
func (l Limits) Validate() error {
	if l.MaxSteps < 0 {
		return fmt.Errorf("exec: MaxSteps must be ≥ 0, got %d", l.MaxSteps)
	}
	if l.Timeout < 0 {
		return fmt.Errorf("exec: Timeout must be ≥ 0, got %v", l.Timeout)
	}
	return nil
}

// AsBudget projects the step/cycle bounds into the engine-level budget
// vocabulary.
func (l Limits) AsBudget() budget.Budget {
	return budget.Budget{MaxSteps: l.MaxSteps, MaxCycles: l.MaxCycles}
}

// Bound derives a context honoring Timeout; the returned cancel must
// always be called. Without a timeout it returns ctx unchanged.
func (l Limits) Bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if l.Timeout > 0 {
		return context.WithTimeout(ctx, l.Timeout)
	}
	return ctx, func() {}
}

// Options carries the knobs shared by every engine: whether to
// mitigate, per-run budgets, and instrumentation. It replaces the
// per-engine option structs (full.Options, bytecode.VMOptions) on the
// service path; those remain as engine-internal configuration for
// direct use of the interpreters. Every engine mitigates with the
// paper's fast-doubling scheme and per-level penalties; the other
// schemes and policies are ablations on sem/full.
type Options struct {
	// DisableMitigation makes mitigate blocks record but not pad.
	DisableMitigation bool
	// Limits bounds every Run: engine steps, simulated cycles, and —
	// when Timeout is set — wall-clock time. Zero fields are
	// unlimited.
	Limits
	// Metrics, when non-nil, is charged once per run for the steps,
	// cycles, mitigations, mispredictions, padding and schedule bumps
	// it executed (see record).
	Metrics *obs.Metrics
	// Shard identifies the serial execution context that owns this
	// engine (a pool sets worker i's shard to i; plain servers leave it
	// 0). The built-in engines ignore it; a registered engine can read
	// it to attribute its runs to a shard.
	Shard int
}

// Request is one unit of work for an engine.
type Request struct {
	// Setup sets per-request inputs in the program memory before the
	// run (the same shape as server.Request).
	Setup func(*mem.Memory)
	// Mit, when non-nil, is persistent mitigation state: it is spliced
	// into the machine before the run, and on success the machine's
	// (possibly inflated) counters are copied back. A failed or
	// aborted run leaves it untouched, matching server.Handle.
	Mit *mitigation.State
	// KeepMemory asks for the final program memory in Result.Memory.
	// It is off by default because snapshotting costs an allocation
	// per request on the VM engine's hot path.
	KeepMemory bool
}

// Result is the observable outcome of one run.
type Result struct {
	// Clock is the run's total simulated time in cycles.
	Clock uint64
	// Steps is engine-granular work: language steps or instructions.
	Steps int
	// Trace holds the observable assignment events, and Mitigations
	// the completed mitigation records. Both are this request's own
	// storage: the vm engine draws it from the buffers recycled
	// through events.Recycle, so whoever recycles them must not use
	// them afterwards (see Engine.Run).
	Trace       events.Trace
	Mitigations events.MitTrace
	// Memory is the final program memory, when Request.KeepMemory.
	Memory *mem.Memory
}

// record charges one run to m: its steps and clock, its completed
// mitigate commands and how many of them mispredicted, the padding
// they added (Duration − Elapsed), and bumps, the miss-counter
// increments it made. The built-in engines call it once after every
// RunBudget, failed or not, so a run that fails on a budget or a
// deadline is charged for the work it did. Recording only reads the
// run's outcome; it never changes simulated time.
func record(m *obs.Metrics, steps int, clock uint64, mits events.MitTrace, bumps int) {
	if m == nil {
		return
	}
	var missed, padding uint64
	for _, r := range mits {
		if r.Mispredicted {
			missed++
		}
		padding += r.Duration - r.Elapsed
	}
	m.Add(obs.Steps, uint64(steps))
	m.Add(obs.Cycles, clock)
	m.Add(obs.Mitigations, uint64(len(mits)))
	m.Add(obs.Mispredictions, missed)
	m.Add(obs.PaddingCycles, padding)
	m.Add(obs.ScheduleBumps, uint64(bumps))
}

// Engine runs requests for one program against one machine
// environment. Run returns budget.ErrStepLimit / budget.ErrCycleLimit
// (wrapped) on budget exhaustion and ctx.Err() on cancellation,
// whichever engine is behind it.
type Engine interface {
	// Name returns the engine's registered name ("tree", "vm").
	Name() string
	// Run executes one request. The returned Result struct is owned by
	// the engine and valid only until the next Run call; callers that
	// retain it across requests must copy it first. The slices and
	// memory it points to (Trace, Mitigations, Memory) belong to this
	// request alone and stay valid until the caller hands them back:
	// a server response that carries them is released with
	// server.ReleaseResponse, which recycles them for later runs
	// (events.Recycle). A caller that never releases keeps them.
	Run(ctx context.Context, req Request) (*Result, error)
}
