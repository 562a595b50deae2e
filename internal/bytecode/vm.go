package bytecode

import (
	"context"
	"fmt"

	"repro/internal/exec/budget"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/sem/events"
	"repro/internal/sem/mem"
)

// VMOptions configure the VM's mitigation. Costs and addresses are the
// constants of sem/mem, the cost model the tree-walking semantics
// charges too.
type VMOptions struct {
	// Scheme and Policy configure predictive mitigation; defaults are
	// FastDoubling and PerLevel.
	Scheme mitigation.Scheme
	Policy mitigation.Policy
	// DisableMitigation makes MITENTER/MITEXIT record but not pad.
	DisableMitigation bool
}

func (o VMOptions) withDefaults() VMOptions {
	if o.Scheme == nil {
		o.Scheme = mitigation.FastDoubling{}
	}
	return o
}

// mitFrame tracks one open mitigation region.
type mitFrame struct {
	id    int
	level lattice.Label
	init  int64
	start uint64
}

// VM executes a bytecode program against a machine environment with the
// tree-walking semantics' costs: one mem.BaseCost plus a command fetch
// per SETLBL (one per language-level step, at mem.CodeAddr of the
// command's AST node), mem.OpCost per operator, a data access per load
// and store at the compiler's declaration-order offsets from
// mem.DataBase, and the branch charge at the command's code address
// with sem/full's taken polarity (condition true). Run on the same
// environment, its traces are identical to sem/full's, times included.
//
// A VM is not safe for concurrent use; like server.Server, each
// goroutine owns its own.
type VM struct {
	prog *Program
	opts VMOptions
	env  hw.Env

	scalars []int64
	arrays  [][]int64
	// arrayBase[i] is the data address of array i's first element.
	arrayBase  []uint64
	scalarAddr []uint64

	// er/ew mirror the timing-label register.
	er, ew lattice.Label
	// curNode is the AST node ID carried by the last SETLBL; branches
	// are charged at its code address.
	curNode int64
	// pc is the program counter into prog.Opt.Code.
	pc int

	clock  uint64
	steps  int
	trace  events.Trace
	mits   events.MitTrace
	mstate *mitigation.State
	open   []mitFrame

	// regs is the fixed register file (one slot per evaluation-stack
	// slot of the stack ISA), and senv/sites the environment's memoized
	// access path and the per-original-instruction hardware-access
	// memos (see vm_opt.go).
	regs  []int64
	senv  hw.SiteEnv
	sites []hw.Site
}

// NewVM creates a VM for a program from Compile or Decode. It panics on
// a program without its register form (Program.Opt) or without data
// offsets: every Program from outside the process arrives through
// Decode, which links it and reads its offsets, so a missing form is a
// programming error.
func NewVM(prog *Program, env hw.Env, opts VMOptions) *VM {
	opt := prog.Opt
	if opt == nil {
		panic("bytecode: NewVM on a program without its register form (use Compile or Decode)")
	}
	if !prog.hasOffsets() {
		panic("bytecode: NewVM on a program without data offsets (use Compile or Decode)")
	}
	opts = opts.withDefaults()
	vm := &VM{
		prog:    prog,
		opts:    opts,
		env:     env,
		scalars: make([]int64, len(prog.ScalarNames)),
		arrays:  make([][]int64, len(prog.ArrayNames)),
		er:      prog.Lat.Bot(),
		ew:      prog.Lat.Bot(),
		mstate:  mitigation.NewState(prog.Lat, opts.Scheme, opts.Policy),
	}
	vm.scalarAddr = make([]uint64, len(prog.ScalarNames))
	for i, off := range prog.ScalarOffsets {
		vm.scalarAddr[i] = mem.DataBase + off
	}
	vm.arrayBase = make([]uint64, len(prog.ArrayNames))
	for i, n := range prog.ArraySizes {
		vm.arrays[i] = make([]int64, n)
		vm.arrayBase[i] = mem.DataBase + prog.ArrayOffsets[i]
	}
	nr := opt.NumRegs
	if nr < 1 {
		nr = 1
	}
	vm.regs = make([]int64, nr)
	senv, ok := env.(hw.SiteEnv)
	if !ok {
		senv = plainSites{env}
	}
	vm.senv = senv
	// One memo per original instruction: its data access, or for SETLBL
	// the command's fetch. Sites deliberately survive Reset: their
	// validity is guarded by the environment's membership generations,
	// and a service keeps the environment warm across requests.
	vm.sites = make([]hw.Site, opt.OrigLen)
	return vm
}

// plainSites gives an environment without memos the VM's access path:
// AccessSite is Access, and a Site stays empty, so Replay always
// declines.
type plainSites struct{ hw.Env }

func (p plainSites) AccessSite(_ *hw.Site, kind hw.AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	return p.Access(kind, addr, er, ew)
}

// Reset rewinds the VM to its initial state — program counter,
// registers, data, labels, clock, empty traces, and a fresh mitigation
// state — so a service can reuse one VM (and its compiled program)
// across requests. Traces handed out by the last run stay the
// caller's; the next run's come from the buffers callers recycle
// (events.Recycle), so a service that recycles them allocates none.
// The machine environment is NOT reset; the caller owns it (a service
// deliberately keeps cache/predictor state warm across requests, and
// resets it only between experiment arms).
func (vm *VM) Reset() {
	vm.pc = 0
	for i := range vm.regs {
		vm.regs[i] = 0
	}
	for i := range vm.scalars {
		vm.scalars[i] = 0
	}
	for _, a := range vm.arrays {
		for j := range a {
			a[j] = 0
		}
	}
	vm.er = vm.prog.Lat.Bot()
	vm.ew = vm.prog.Lat.Bot()
	vm.curNode = 0
	vm.clock = 0
	vm.steps = 0
	vm.trace = nextBuf(vm.trace, events.ReuseTrace)
	vm.mits = nextBuf(vm.mits, events.ReuseMitTrace)
	vm.open = vm.open[:0]
	vm.mstate.Reset()
}

// nextBuf picks the next run's trace storage. A non-empty buffer has
// been handed out to the caller (Trace/Mitigations), so it is never
// reused here: the next run takes a buffer a caller handed back
// through events.Recycle, or else a fresh one sized to the last run,
// which for a service replaying the same program turns O(log n) append
// regrowth into one right-sized allocation. An empty buffer was never
// handed out (Trace returns nil for it) and stays.
func nextBuf[S ~[]E, E any](buf S, reuse func() S) S {
	if len(buf) == 0 {
		return buf
	}
	if r := reuse(); r != nil {
		return r
	}
	return make(S, 0, len(buf))
}

// SetScalar sets an input variable by source name.
func (vm *VM) SetScalar(name string, v int64) error {
	for i, n := range vm.prog.ScalarNames {
		if n == name {
			vm.scalars[i] = v
			return nil
		}
	}
	return fmt.Errorf("bytecode: no scalar %q", name)
}

// Scalar reads a variable by source name.
func (vm *VM) Scalar(name string) (int64, error) {
	for i, n := range vm.prog.ScalarNames {
		if n == name {
			return vm.scalars[i], nil
		}
	}
	return 0, fmt.Errorf("bytecode: no scalar %q", name)
}

// SetArrayEl sets one array element by source name.
func (vm *VM) SetArrayEl(name string, idx, v int64) error {
	for i, n := range vm.prog.ArrayNames {
		if n == name {
			vm.arrays[i][wrap(idx, len(vm.arrays[i]))] = v
			return nil
		}
	}
	return fmt.Errorf("bytecode: no array %q", name)
}

// LoadFrom copies every variable the program declares out of m into
// the VM's registers. Variables missing from m are left at zero.
func (vm *VM) LoadFrom(m *mem.Memory) {
	for i, n := range vm.prog.ScalarNames {
		if m.HasScalar(n) {
			vm.scalars[i] = m.Get(n)
		}
	}
	for i, n := range vm.prog.ArrayNames {
		if !m.HasArray(n) {
			continue
		}
		for j := range vm.arrays[i] {
			vm.arrays[i][j] = m.GetEl(n, int64(j))
		}
	}
}

// LoadScalarsFrom copies only the scalar variables from m. Engines
// that alias m's arrays onto this VM's array storage (mem.AliasArray)
// use this: array writes already landed in place, so only scalars need
// the copy pass.
func (vm *VM) LoadScalarsFrom(m *mem.Memory) {
	for i, n := range vm.prog.ScalarNames {
		if m.HasScalar(n) {
			vm.scalars[i] = m.Get(n)
		}
	}
}

// ArrayStorage exposes the backing slice of array i (by declaration
// order), for engines that alias a scratch memory onto VM storage.
func (vm *VM) ArrayStorage(i int) []int64 { return vm.arrays[i] }

// ScalarStorage exposes the scalar value slice (indexed like
// Program.ScalarNames), for the same aliasing purpose.
func (vm *VM) ScalarStorage() []int64 { return vm.scalars }

// StoreTo copies the VM's variables into m (which must declare them —
// typically a mem.New of the same program).
func (vm *VM) StoreTo(m *mem.Memory) {
	for i, n := range vm.prog.ScalarNames {
		m.Set(n, vm.scalars[i])
	}
	for i, n := range vm.prog.ArrayNames {
		for j, v := range vm.arrays[i] {
			m.SetEl(n, int64(j), v)
		}
	}
}

// Clock returns the global time in cycles.
func (vm *VM) Clock() uint64 { return vm.clock }

// Steps returns the number of instructions executed.
func (vm *VM) Steps() int { return vm.steps }

// Trace returns the observable assignment events. An empty trace is
// nil, even when Reset preallocated capacity, so traces from reused
// and single-use VMs compare equal structurally.
func (vm *VM) Trace() events.Trace {
	if len(vm.trace) == 0 {
		return nil
	}
	return vm.trace
}

// Mitigations returns the completed mitigation records (nil when
// empty, like Trace).
func (vm *VM) Mitigations() events.MitTrace {
	if len(vm.mits) == 0 {
		return nil
	}
	return vm.mits
}

// MitigationState exposes the Miss counters (for reporting, and for
// services that splice persistent mitigation state across requests).
func (vm *VM) MitigationState() *mitigation.State { return vm.mstate }

// Env returns the machine environment.
func (vm *VM) Env() hw.Env { return vm.env }

func wrap(i int64, n int) int64 {
	if n <= 0 {
		panic("bytecode: empty array")
	}
	r := i % int64(n)
	if r < 0 {
		r += int64(n)
	}
	return r
}

// Run executes until HALT or the instruction budget is exhausted.
//
// Deprecated: use RunBudget, which adds context cancellation and cycle
// budgets. Note one semantic difference: Run(0) is now an unlimited
// run, where it used to fail immediately.
func (vm *VM) Run(maxInstrs int) error {
	return vm.RunBudget(context.Background(), budget.Budget{MaxSteps: maxInstrs})
}

// ctxCheckInterval is how many instructions elapse between context
// polls in RunBudget. Polling is observational, so the interval affects
// only abort latency, never simulated behavior.
const ctxCheckInterval = 1024

// RunBudget executes to completion, a budget violation
// (budget.ErrStepLimit / budget.ErrCycleLimit — for this engine
// MaxSteps counts instructions), or context cancellation — in the last
// case it returns ctx.Err(), so callers can test errors.Is(err,
// context.DeadlineExceeded).
func (vm *VM) RunBudget(ctx context.Context, b budget.Budget) error {
	return vm.runLoopOpt(ctx, b)
}

// exitMitigation closes the innermost region: penalize and pad exactly
// as the tree-walking semantics does.
func (vm *VM) exitMitigation() {
	f := vm.open[len(vm.open)-1]
	vm.open = vm.open[:len(vm.open)-1]
	elapsed := vm.clock - f.start
	if vm.opts.DisableMitigation {
		vm.mits = append(vm.mits, events.MitRecord{
			ID: f.id, Duration: elapsed, Elapsed: elapsed, Start: f.start})
		return
	}
	pred, missed := vm.mstate.Penalize(f.init, f.level, f.id, elapsed)
	if pred > elapsed {
		vm.clock = f.start + pred
	}
	vm.mits = append(vm.mits, events.MitRecord{
		ID: f.id, Duration: vm.clock - f.start, Elapsed: elapsed,
		Start: f.start, Mispredicted: missed,
	})
}
