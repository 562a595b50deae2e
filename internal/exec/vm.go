package exec

import (
	"context"
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/lang/ast"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// VMEngine runs requests on the bytecode VM: identical traces to the
// tree engine, without re-walking the AST per step. The program is compiled once —
// through the shared DefaultCache, so pool shards serving the same
// source compile it once between them — and the VM and its scratch
// memory are reused across requests, which is where the service-path
// speedup comes from.
type VMEngine struct {
	prog    *bytecode.Program
	src     *ast.Program
	vm      *bytecode.VM
	lim     Limits // resolved once at construction from opts.Limits
	met     *obs.Metrics
	scratch *mem.Memory
	used    bool
	result  Result // reused across Run calls (see Engine contract)
}

// newVMEngine is the registered factory for "vm".
func newVMEngine(prog *ast.Program, res *types.Result, env hw.Env, opts Options) (Engine, error) {
	bp, err := DefaultCache.Get(prog, res)
	if err != nil {
		return nil, err
	}
	vm := bytecode.NewVM(bp, env, bytecode.VMOptions{
		Scheme:            opts.Scheme,
		Policy:            opts.Policy,
		DisableMitigation: opts.DisableMitigation,
	})
	// The scratch memory aliases the VM's own storage: request setup
	// writes machine state directly with no copy pass, and the VM's
	// Reset (which zeroes its scalars and arrays) doubles as the
	// scratch reset. Scalar slot order must agree (both sides assign
	// slots in declaration order; verified here against the compiled
	// name table).
	scratch := mem.New(prog)
	for i, name := range bp.ScalarNames {
		if scratch.ScalarSlot(name) != i {
			return nil, fmt.Errorf("exec: scalar %q slot mismatch between memory and bytecode", name)
		}
	}
	scratch.AliasScalars(vm.ScalarStorage())
	for i, name := range bp.ArrayNames {
		scratch.AliasArray(name, vm.ArrayStorage(i))
	}
	return &VMEngine{
		prog:    bp,
		src:     prog,
		vm:      vm,
		lim:     opts.Limits,
		met:     opts.Metrics,
		scratch: scratch,
	}, nil
}

// Name implements Engine.
func (e *VMEngine) Name() string { return "vm" }

// Run implements Engine.
func (e *VMEngine) Run(ctx context.Context, req Request) (*Result, error) {
	ctx, cancel := e.lim.Bound(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.used {
		// Reset zeroes the VM's scalars and arrays — which IS the
		// scratch memory's storage (aliased at construction).
		e.vm.Reset()
	}
	e.used = true
	mit := e.vm.MitigationState()
	if req.Mit != nil {
		req.Mit.CopyInto(mit)
	}
	if req.Setup != nil {
		// Setup writes land directly in VM storage via the aliases.
		req.Setup(e.scratch)
	}
	misses := mit.TotalMisses()
	err := e.vm.RunBudget(ctx, e.lim.AsBudget())
	record(e.met, e.vm.Steps(), e.vm.Clock(), e.vm.Mitigations(), mit.TotalMisses()-misses)
	if err != nil {
		return nil, err
	}
	if req.Mit != nil {
		mit.CopyInto(req.Mit)
	}
	// Reset never reuses trace storage it handed out (it takes
	// recycled buffers instead), so these do not alias the next
	// request's.
	e.result = Result{
		Clock:       e.vm.Clock(),
		Steps:       e.vm.Steps(),
		Trace:       e.vm.Trace(),
		Mitigations: e.vm.Mitigations(),
	}
	if req.KeepMemory {
		m := mem.New(e.src)
		e.vm.StoreTo(m)
		e.result.Memory = m
	}
	return &e.result, nil
}
