// Package full implements the full language semantics (paper §3.2–3.3):
// configurations (c, m, E, G) where E is a machine environment and G a
// global clock in cycles, extended with the predictive-mitigation
// semantics of Fig. 6.
//
// The full semantics takes exactly the core semantics' steps (so
// adequacy, Property 1, holds by construction and is verified by
// tests), additionally charging each step's duration:
//
//	cost(step) = BaseCost                      // issue/ALU
//	           + E.Access(Fetch, code address) // instruction fetch
//	           + Σ E.Access(Read, var/elem)    // operands, left-to-right
//	           + OpCost per operator
//	           + E.Access(Write, target)       // for assignments/stores
//	           + max(n, 0)                     // for sleep(n), Property 4
//
// Every access carries the command's read and write labels, which is
// the software→hardware half of the paper's contract (the timing-label
// register of §8.1).
package full

import (
	"context"
	"fmt"

	"repro/internal/exec/budget"
	"repro/internal/lang/ast"
	"repro/internal/lang/token"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/sem/core"
	"repro/internal/sem/events"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// ErrStepLimit is returned by Run when the program does not terminate
// within the step budget. It is the shared budget.ErrStepLimit
// sentinel, so errors.Is matches it regardless of execution engine.
//
// Deprecated: match budget.ErrStepLimit directly.
var ErrStepLimit = budget.ErrStepLimit

// ErrCycleLimit is returned by RunBudget when the program exceeds its
// simulated-cycle budget. It is the shared budget.ErrCycleLimit
// sentinel.
//
// Deprecated: match budget.ErrCycleLimit directly.
var ErrCycleLimit = budget.ErrCycleLimit

// Options configure a Machine. The zero value selects the defaults
// noted on each field.
type Options struct {
	// Layout controls address assignment; zero value = defaults.
	Layout mem.LayoutConfig
	// BaseCost is the fixed per-step cost; default 1.
	BaseCost uint64
	// OpCost is the cost per evaluated operator; default 1.
	OpCost uint64
	// Scheme is the mitigation prediction scheme; default FastDoubling.
	Scheme mitigation.Scheme
	// Policy is the mitigation penalty policy; default PerLevel (the
	// paper's local penalty policy).
	Policy mitigation.Policy
	// DisableMitigation makes mitigate behave as in the core semantics
	// (identity); used for the unmitigated baselines of §8.
	DisableMitigation bool
	// CostSet, when true, takes BaseCost and OpCost literally — an
	// explicit zero is honored instead of selecting the default of 1.
	CostSet bool
}

func (o Options) withDefaults() Options {
	if !o.CostSet {
		if o.BaseCost == 0 {
			o.BaseCost = 1
		}
		if o.OpCost == 0 {
			o.OpCost = 1
		}
	}
	if o.Scheme == nil {
		o.Scheme = mitigation.FastDoubling{}
	}
	return o
}

// mitExit is a continuation frame marking the completion point of a
// mitigate command's body.
type mitExit struct {
	m     *ast.Mitigate
	start uint64 // clock when the body started
	init  int64  // evaluated initial estimate
}

// frame is either an ast.Cmd or a *mitExit.
type frame any

// Machine is a full-semantics interpreter: the configuration
// (c, m, E, G) plus mitigation state and the event trace.
type Machine struct {
	prog   *ast.Program
	res    *types.Result
	opts   Options
	layout *mem.Layout

	stack []frame
	mem   *mem.Memory
	env   hw.Env
	clock uint64

	steps int
	trace events.Trace
	mits  events.MitTrace
	mit   *mitigation.State
}

// New constructs a machine for a type-checked program. The program
// must have been checked (labels resolved) — New reports an error on
// unresolved labels. The environment is used in place; Clone it first
// if the caller needs to keep the initial state.
func New(prog *ast.Program, res *types.Result, env hw.Env, opts Options) (*Machine, error) {
	opts = opts.withDefaults()
	var unresolved error
	ast.WalkCmds(prog.Body, func(c ast.Cmd) bool {
		if lc, ok := c.(ast.Labeled); ok && !lc.Labels().Resolved() {
			unresolved = fmt.Errorf("full: command at %s has unresolved labels (run types.Check first)", c.Pos())
			return false
		}
		return true
	})
	if unresolved != nil {
		return nil, unresolved
	}
	return &Machine{
		prog:   prog,
		res:    res,
		opts:   opts,
		layout: mem.NewLayout(prog, opts.Layout),
		stack:  []frame{frame(prog.Body)},
		mem:    mem.New(prog),
		env:    env,
		mit:    mitigation.NewState(res.Lat, opts.Scheme, opts.Policy),
	}, nil
}

// Memory returns the machine's memory (for setting inputs and reading
// outputs).
func (k *Machine) Memory() *mem.Memory { return k.mem }

// Env returns the machine environment.
func (k *Machine) Env() hw.Env { return k.env }

// Clock returns the global time G in cycles.
func (k *Machine) Clock() uint64 { return k.clock }

// Steps returns the number of language-level steps taken.
func (k *Machine) Steps() int { return k.steps }

// Trace returns the observable assignment events so far.
func (k *Machine) Trace() events.Trace { return k.trace }

// Mitigations returns the completed mitigate records so far.
func (k *Machine) Mitigations() events.MitTrace { return k.mits }

// MitigationState exposes the Miss counters (for reporting).
func (k *Machine) MitigationState() *mitigation.State { return k.mit }

// Layout returns the machine's address layout.
func (k *Machine) Layout() *mem.Layout { return k.layout }

// Done reports whether execution has reached stop.
func (k *Machine) Done() bool { return len(k.stack) == 0 }

// Clone returns an independent copy of the machine, deep-copying
// memory, environment, mitigation state, and continuation stack.
func (k *Machine) Clone() *Machine {
	n := *k
	n.stack = append([]frame(nil), k.stack...)
	n.mem = k.mem.Clone()
	n.env = k.env.Clone()
	n.mit = k.mit.Clone()
	n.trace = append(events.Trace(nil), k.trace...)
	n.mits = append(events.MitTrace(nil), k.mits...)
	return &n
}

// top pops Seq frames (not a step) and resolves completed mitigate
// bodies (runtime bookkeeping, also not a language step) until the head
// is a labeled command; it returns nil when execution is complete.
func (k *Machine) top() ast.Cmd {
	for len(k.stack) > 0 {
		head := k.stack[len(k.stack)-1]
		switch h := head.(type) {
		case *ast.Seq:
			k.stack = k.stack[:len(k.stack)-1]
			k.stack = append(k.stack, frame(h.Second), frame(h.First))
		case *mitExit:
			k.stack = k.stack[:len(k.stack)-1]
			k.finishMitigation(h)
		case ast.Cmd:
			return h
		default:
			panic(fmt.Sprintf("full: unknown frame %T", head))
		}
	}
	return nil
}

// finishMitigation implements the update + sleep tail of Fig. 6's
// (S-MTGPRED): penalize the miss counter until the prediction covers
// the elapsed time, then idle until the prediction boundary. With
// mitigation disabled only the raw elapsed time is recorded — no
// penalty, no padding — which is how §8.2's prediction sampling
// measures body times.
func (k *Machine) finishMitigation(x *mitExit) {
	elapsed := k.clock - x.start
	if k.opts.DisableMitigation {
		k.mits = append(k.mits, events.MitRecord{
			ID: x.m.MitID, Duration: elapsed, Elapsed: elapsed, Start: x.start,
		})
		return
	}
	pred, missed := k.mit.Penalize(x.init, x.m.Level, x.m.MitID, elapsed)
	if pred > elapsed {
		k.clock = x.start + pred
	}
	k.mits = append(k.mits, events.MitRecord{
		ID:           x.m.MitID,
		Duration:     k.clock - x.start,
		Elapsed:      elapsed,
		Start:        x.start,
		Mispredicted: missed,
	})
}

// access charges one machine-environment access under the current
// command's labels.
func (k *Machine) access(kind hw.AccessKind, addr uint64, lab *ast.Labels) uint64 {
	return k.env.Access(kind, addr, lab.RL, lab.WL)
}

// eval evaluates an expression, charging data-access and operator
// costs, and returns (value, cost). Evaluation order is left-to-right,
// matching core.Eval.
func (k *Machine) eval(e ast.Expr, lab *ast.Labels) (int64, uint64) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return ex.Value, 0
	case *ast.Var:
		c := k.access(hw.Read, k.layout.Addr(ex.Name), lab)
		return k.mem.Get(ex.Name), c
	case *ast.Index:
		iv, ic := k.eval(ex.Idx, lab)
		wrapped := k.mem.WrapIndex(ex.Name, iv)
		c := k.access(hw.Read, k.layout.ElemAddr(ex.Name, wrapped), lab)
		return k.mem.GetEl(ex.Name, iv), ic + c
	case *ast.Unary:
		v, c := k.eval(ex.X, lab)
		// Reuse the core evaluator's operator semantics on a detached
		// literal to guarantee value agreement between semantics.
		switch ex.Op {
		case token.MINUS:
			return -v, c + k.opts.OpCost
		case token.NOT:
			if v == 0 {
				return 1, c + k.opts.OpCost
			}
			return 0, c + k.opts.OpCost
		}
	case *ast.Binary:
		a, ca := k.eval(ex.X, lab)
		b, cb := k.eval(ex.Y, lab)
		return core.EvalBinop(ex.Op, a, b), ca + cb + k.opts.OpCost
	}
	panic(fmt.Sprintf("full: unknown expression %T", e))
}

// Peek returns the next labeled command the machine will execute, or
// nil if execution is complete. Peeking resolves pending sequence
// decomposition and mitigation-exit bookkeeping (which belong to the
// previous step), so the clock may advance past mitigation padding.
func (k *Machine) Peek() ast.Cmd { return k.top() }

// Step performs one language-level step, returning false if execution
// had already stopped.
func (k *Machine) Step() bool {
	head := k.top()
	if head == nil {
		return false
	}
	k.steps++
	k.stack = k.stack[:len(k.stack)-1]

	lab := head.(ast.Labeled).Labels()
	cost := k.opts.BaseCost
	cost += k.access(hw.Fetch, k.layout.CodeAddr(head.ID()), lab)

	switch c := head.(type) {
	case *ast.Skip:
		// Fetch cost only.

	case *ast.Sleep:
		v, ec := k.eval(c.X, lab)
		cost += ec
		if v > 0 {
			cost += uint64(v) // Property 4: exactly max(n, 0) extra
		}

	case *ast.Assign:
		v, ec := k.eval(c.X, lab)
		cost += ec
		cost += k.access(hw.Write, k.layout.Addr(c.Name), lab)
		k.mem.Set(c.Name, v)
		k.clock += cost
		k.trace = append(k.trace, events.Event{Var: c.Name, Value: v, Time: k.clock})
		return true

	case *ast.Store:
		iv, ic := k.eval(c.Idx, lab)
		v, ec := k.eval(c.X, lab)
		cost += ic + ec
		wrapped := k.mem.WrapIndex(c.Name, iv)
		cost += k.access(hw.Write, k.layout.ElemAddr(c.Name, wrapped), lab)
		k.mem.SetEl(c.Name, wrapped, v)
		k.clock += cost
		k.trace = append(k.trace, events.Event{
			Var: fmt.Sprintf("%s[%d]", c.Name, wrapped), Value: v, Time: k.clock})
		return true

	case *ast.If:
		v, ec := k.eval(c.Cond, lab)
		cost += ec
		cost += k.env.Branch(k.layout.CodeAddr(c.ID()), v != 0, lab.RL, lab.WL)
		if v != 0 {
			k.stack = append(k.stack, frame(c.Then))
		} else {
			k.stack = append(k.stack, frame(c.Else))
		}

	case *ast.While:
		v, ec := k.eval(c.Cond, lab)
		cost += ec
		cost += k.env.Branch(k.layout.CodeAddr(c.ID()), v != 0, lab.RL, lab.WL)
		if v != 0 {
			k.stack = append(k.stack, frame(c), frame(c.Body))
		}

	case *ast.Mitigate:
		v, ec := k.eval(c.Init, lab)
		cost += ec
		k.clock += cost
		k.stack = append(k.stack, frame(&mitExit{m: c, start: k.clock, init: v}), frame(c.Body))
		return true

	default:
		panic(fmt.Sprintf("full: unknown command %T", head))
	}
	k.clock += cost
	return true
}

// Run executes to completion or until maxSteps language steps.
func (k *Machine) Run(maxSteps int) error {
	return k.RunBudget(context.Background(), Budget{MaxSteps: maxSteps})
}

// Budget bounds one RunBudget call. Zero fields are unlimited. It is
// an alias for the engine-shared budget.Budget; for this engine
// MaxSteps counts language-level steps.
type Budget = budget.Budget

// ctxCheckInterval is how many steps elapse between context polls in
// RunBudget. Polling is observational, so the interval affects only
// abort latency, never simulated behavior.
const ctxCheckInterval = 1024

// RunBudget executes to completion, a budget violation (ErrStepLimit /
// ErrCycleLimit), or context cancellation — in the last case it
// returns ctx.Err(), so callers can test errors.Is(err,
// context.DeadlineExceeded).
func (k *Machine) RunBudget(ctx context.Context, b Budget) error {
	nextPoll := k.steps + ctxCheckInterval
	for !k.Done() {
		if b.MaxSteps > 0 && k.steps >= b.MaxSteps {
			return fmt.Errorf("%w (%d steps)", ErrStepLimit, b.MaxSteps)
		}
		if b.MaxCycles > 0 && k.clock > b.MaxCycles {
			return fmt.Errorf("%w (%d cycles > %d)", ErrCycleLimit, k.clock, b.MaxCycles)
		}
		if ctx != nil && k.steps >= nextPoll {
			nextPoll = k.steps + ctxCheckInterval
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		k.Step()
	}
	// Drain any trailing mitExit frames (top() handles them; calling it
	// once more after the last command finishes the bookkeeping). The
	// drain may pad the clock past the cycle budget; that still counts.
	k.top()
	if b.MaxCycles > 0 && k.clock > b.MaxCycles {
		return fmt.Errorf("%w (%d cycles > %d)", ErrCycleLimit, k.clock, b.MaxCycles)
	}
	return nil
}

// Result bundles the observable outcome of a completed run.
type Result struct {
	Clock       uint64
	Steps       int
	Trace       events.Trace
	Mitigations events.MitTrace
	Stats       hw.Stats
}

// Execute is a convenience wrapper: build a machine, apply setup to its
// memory (e.g. to set secret inputs), run it, and return the result.
func Execute(prog *ast.Program, res *types.Result, env hw.Env, opts Options,
	setup func(*mem.Memory), maxSteps int) (*Result, error) {
	m, err := New(prog, res, env, opts)
	if err != nil {
		return nil, err
	}
	if setup != nil {
		setup(m.Memory())
	}
	if err := m.Run(maxSteps); err != nil {
		return nil, err
	}
	return &Result{
		Clock:       m.Clock(),
		Steps:       m.Steps(),
		Trace:       m.Trace(),
		Mitigations: m.Mitigations(),
		Stats:       env.Stats(),
	}, nil
}
