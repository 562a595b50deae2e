package exec

import (
	"context"

	"repro/internal/lang/ast"
	"repro/internal/machine/hw"
	"repro/internal/sem/full"
	"repro/internal/types"
)

// TreeEngine runs requests through the tree-walking full semantics —
// the reference implementation. Every request builds a fresh
// full.Machine (re-walking the AST), which keeps it the simplest
// possible engine and the baseline the VM engine is differenced
// against.
type TreeEngine struct {
	prog   *ast.Program
	res    *types.Result
	env    hw.Env
	opts   Options
	lim    Limits // resolved once at construction from opts.Limits
	result Result // reused across Run calls (see Engine contract)
}

// newTreeEngine is the registered factory for "tree". It builds one
// throwaway machine to validate the program up front.
func newTreeEngine(prog *ast.Program, res *types.Result, env hw.Env, opts Options) (Engine, error) {
	if _, err := full.New(prog, res, env, treeOptions(opts)); err != nil {
		return nil, err
	}
	return &TreeEngine{prog: prog, res: res, env: env, opts: opts, lim: opts.Limits}, nil
}

func treeOptions(opts Options) full.Options {
	return full.Options{
		Scheme:            opts.Scheme,
		Policy:            opts.Policy,
		DisableMitigation: opts.DisableMitigation,
	}
}

// Name implements Engine.
func (e *TreeEngine) Name() string { return "tree" }

// Run implements Engine.
func (e *TreeEngine) Run(ctx context.Context, req Request) (*Result, error) {
	ctx, cancel := e.lim.Bound(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := full.New(e.prog, e.res, e.env, treeOptions(e.opts))
	if err != nil {
		return nil, err
	}
	mit := m.MitigationState()
	if req.Mit != nil {
		req.Mit.CopyInto(mit)
	}
	if req.Setup != nil {
		req.Setup(m.Memory())
	}
	misses := mit.TotalMisses()
	err = m.RunBudget(ctx, e.lim.AsBudget())
	record(e.opts.Metrics, m.Steps(), m.Clock(), m.Mitigations(), mit.TotalMisses()-misses)
	if err != nil {
		return nil, err
	}
	if req.Mit != nil {
		mit.CopyInto(req.Mit)
	}
	e.result = Result{
		Clock:       m.Clock(),
		Steps:       m.Steps(),
		Trace:       m.Trace(),
		Mitigations: m.Mitigations(),
	}
	if req.KeepMemory {
		e.result.Memory = m.Memory()
	}
	return &e.result, nil
}
