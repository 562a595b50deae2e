package bytecode

import (
	"context"
	"fmt"

	"repro/internal/exec/budget"
	"repro/internal/lang/token"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/core"
	"repro/internal/sem/events"
)

// runLoopOpt is the VM's execution loop: it runs prog.Opt, the
// register form of prog.Code. Each register instruction, fused or not,
// has the timing of the stack-ISA instructions it replaces (OrigPC and
// Len name them): one machine-environment access per load, store and
// fetch, in stack-ISA order, and the costs the TimingModel charges for
// each of those instructions. Under TimingTree those are sem/full's
// costs for the same command, so a run matches the tree-walking
// semantics event for event.
// Operands are predecoded, the evaluation stack is a fixed register
// file, fused superinstructions cut dispatches, and steady-state
// hardware accesses replay per-site memos (hw.Site.Replay, a direct
// call) instead of re-walking the cache hierarchy, calling the
// environment only when a memo declines; none of that is observable.
//
// Costs accumulate into a local across each (possibly fused) group and
// commit to the clock at the group boundary. Summing per group rather
// than per original instruction is unobservable — no event, mitigation
// frame, or halt can occur inside a fused group — so the clock agrees
// at every observable point. Budget and cancellation checks run per
// group, so an over-budget run may stop up to one group past its step
// budget; the error class and every successful run are unchanged.
func (vm *VM) runLoopOpt(ctx context.Context, b budget.Budget) error {
	o := vm.prog.Opt
	code := o.Code
	regs := vm.regs
	senv := vm.senv
	scalars := vm.scalars
	arrays := vm.arrays
	scalarAddr := vm.scalarAddr
	arrayBase := vm.arrayBase
	tree := vm.opts.Timing == TimingTree
	base := vm.opts.BaseCost
	opCost := vm.opts.OpCost
	codeBase := vm.opts.CodeBase
	isize := vm.opts.InstrSize
	stride := vm.opts.CodeStride

	pc := vm.pc
	er, ew := vm.er, vm.ew
	curNode := vm.curNode
	clock := vm.clock
	steps := vm.steps
	nextPoll := steps + ctxCheckInterval

	// Unlimited budgets and a nil context are folded into sentinels so
	// the per-group guards are one compare each, not a flag test plus a
	// compare.
	maxSteps := b.MaxSteps
	if maxSteps <= 0 {
		maxSteps = int(^uint(0) >> 1)
	}
	maxCycles := b.MaxCycles
	if maxCycles == 0 {
		maxCycles = ^uint64(0)
	}
	if ctx == nil {
		nextPoll = int(^uint(0) >> 1)
	}

	var err error
loop:
	for {
		if steps >= maxSteps {
			err = fmt.Errorf("%w (%d steps)", budget.ErrStepLimit, b.MaxSteps)
			break loop
		}
		if clock > maxCycles {
			err = fmt.Errorf("%w (%d cycles > %d)", budget.ErrCycleLimit, clock, b.MaxCycles)
			break loop
		}
		if steps >= nextPoll {
			nextPoll = steps + ctxCheckInterval
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
				break loop
			}
		}
		if uint(pc) >= uint(len(code)) {
			err = fmt.Errorf("bytecode: pc %d out of range", pc)
			break loop
		}
		ins := &code[pc]
		steps += int(ins.Len)
		pc++

		var cost uint64
		if !tree {
			// Micro model: every original instruction pays base + fetch
			// at its own code address, under the labels in force before
			// the group executes (fused groups never contain SETLBL, and
			// SETLBL itself fetches before updating the register).
			org := uint64(ins.OrigPC)
			for k := uint64(0); k < uint64(ins.Len); k++ {
				site, addr := &vm.fetchSites[org+k], codeBase+(org+k)*isize
				c, ok := site.Replay(addr, er, ew)
				if !ok {
					c = senv.AccessSite(site, hw.Fetch, addr, er, ew)
				}
				cost += base + c
			}
		}

		switch ins.Op {
		case ONop:

		case OHalt:
			clock += cost
			vm.clock = clock
			for len(vm.open) > 0 {
				vm.exitMitigation()
			}
			clock = vm.clock
			break loop

		case OSetLbl:
			er, ew = ins.ER, ins.EW
			curNode = ins.Node
			if tree {
				// The command's single fetch, at the AST node's code
				// address, under the command's own labels.
				addr := codeBase + stride*uint64(curNode)
				site := &vm.dataSites[ins.OrigPC]
				c, ok := site.Replay(addr, er, ew)
				if !ok {
					c = senv.AccessSite(site, hw.Fetch, addr, er, ew)
				}
				cost = base + c
			}

		case OImm:
			regs[ins.Dst] = ins.Val

		case OLoad:
			site := &vm.dataSites[ins.OrigPC]
			c, ok := site.Replay(scalarAddr[ins.A], er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Read, scalarAddr[ins.A], er, ew)
			}
			cost += c
			regs[ins.Dst] = scalars[ins.A]

		case OLoadIdx:
			idx := wrap(regs[ins.S1], len(arrays[ins.A]))
			addr := arrayBase[ins.A] + 8*uint64(idx)
			site := &vm.dataSites[ins.OrigPC]
			c, ok := site.Replay(addr, er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Read, addr, er, ew)
			}
			cost += c
			regs[ins.Dst] = arrays[ins.A][idx]

		case OStore:
			v := regs[ins.S1]
			site := &vm.dataSites[ins.OrigPC]
			c, ok := site.Replay(scalarAddr[ins.A], er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Write, scalarAddr[ins.A], er, ew)
			}
			cost += c
			scalars[ins.A] = v
			clock += cost
			vm.trace = append(vm.trace, events.Event{
				Var: vm.prog.ScalarNames[ins.A], Value: v, Time: clock})
			continue

		case OStoreIdx:
			v := regs[ins.S2]
			idx := wrap(regs[ins.S1], len(arrays[ins.A]))
			addr := arrayBase[ins.A] + 8*uint64(idx)
			site := &vm.dataSites[ins.OrigPC]
			c, ok := site.Replay(addr, er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Write, addr, er, ew)
			}
			cost += c
			arrays[ins.A][idx] = v
			clock += cost
			vm.trace = append(vm.trace, events.Event{
				Var: o.IdxNames[ins.A][idx], Value: v, Time: clock})
			continue

		case OUnop:
			v := regs[ins.S1]
			switch ins.Kind {
			case token.MINUS:
				regs[ins.Dst] = -v
			case token.NOT:
				if v == 0 {
					regs[ins.Dst] = 1
				} else {
					regs[ins.Dst] = 0
				}
			default:
				err = fmt.Errorf("bytecode: bad unary operator %v", ins.Kind)
				break loop
			}
			if tree {
				cost += opCost
			}

		case OBinop:
			regs[ins.Dst] = binop(ins.Kind, regs[ins.S1], regs[ins.S2])
			if tree {
				cost += opCost
			}

		case OJmp:
			pc = int(ins.A)

		case OJz:
			taken := regs[ins.S1] == 0
			cost += vm.optBranch(tree, taken, curNode, ins, codeBase, isize, stride, er, ew)
			if taken {
				pc = int(ins.A)
			}

		case OSleep:
			if n := regs[ins.S1]; n > 0 {
				cost += uint64(n)
			}

		case OMitEnter:
			init := regs[ins.S1]
			clock += cost
			vm.open = append(vm.open, mitFrame{
				id:    int(ins.A),
				level: ins.ER,
				init:  init,
				start: clock,
			})
			continue

		case OMitExit:
			clock += cost
			if len(vm.open) == 0 {
				err = fmt.Errorf("bytecode: MITEXIT with no open region")
				break loop
			}
			if vm.open[len(vm.open)-1].id != int(ins.A) {
				err = fmt.Errorf("bytecode: mismatched MITEXIT %d", ins.A)
				break loop
			}
			vm.clock = clock
			vm.exitMitigation()
			clock = vm.clock
			continue

		// --- fused superinstructions ---

		case OImmBinop: // PUSH Val; BINOP
			// The hottest arithmetic site: expand the common operators
			// in place (no call, no inline-budget limit inside the loop
			// body). Every branch computes exactly core.EvalBinop's
			// result; the guarded %-case falls back for the operand
			// signs where EvalBinop's zero/overflow rules kick in.
			a, v := regs[ins.S1], ins.Val
			switch ins.Kind {
			case token.PLUS:
				v = a + v
			case token.STAR:
				v = a * v
			case token.PERCENT:
				if v > 0 && a >= 0 {
					v = a % v
				} else {
					v = core.EvalBinop(token.PERCENT, a, v)
				}
			default:
				v = core.EvalBinop(ins.Kind, a, v)
			}
			regs[ins.Dst] = v
			if tree {
				cost += opCost
			}

		case OImmBinop2: // PUSH Val; BINOP Kind; PUSH Val2; BINOP Kind2
			// Two chained immediate operations in one dispatch, each
			// expanded exactly like OImmBinop's arms.
			a := regs[ins.S1]
			v := ins.Val
			switch ins.Kind {
			case token.PLUS:
				a += v
			case token.STAR:
				a *= v
			case token.PERCENT:
				if v > 0 && a >= 0 {
					a %= v
				} else {
					a = core.EvalBinop(token.PERCENT, a, v)
				}
			default:
				a = core.EvalBinop(ins.Kind, a, v)
			}
			v = ins.Val2
			switch ins.Kind2 {
			case token.PLUS:
				a += v
			case token.STAR:
				a *= v
			case token.PERCENT:
				if v > 0 && a >= 0 {
					a %= v
				} else {
					a = core.EvalBinop(token.PERCENT, a, v)
				}
			default:
				a = core.EvalBinop(ins.Kind2, a, v)
			}
			regs[ins.Dst] = a
			if tree {
				cost += opCost * 2
			}

		case OLoadBinop: // LOAD B; BINOP — the load is original pc OrigPC.
			site := &vm.dataSites[ins.OrigPC]
			c, ok := site.Replay(scalarAddr[ins.B], er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Read, scalarAddr[ins.B], er, ew)
			}
			cost += c
			regs[ins.Dst] = binop(ins.Kind, regs[ins.S1], scalars[ins.B])
			if tree {
				cost += opCost
			}

		case OImmLoadBinop: // PUSH Val; LOAD B; BINOP — the load is OrigPC+1.
			site := &vm.dataSites[ins.OrigPC+1]
			c, ok := site.Replay(scalarAddr[ins.B], er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Read, scalarAddr[ins.B], er, ew)
			}
			cost += c
			regs[ins.Dst] = binop(ins.Kind, ins.Val, scalars[ins.B])
			if tree {
				cost += opCost
			}

		case OLoadJz: // LOAD B; JZ — the load is OrigPC.
			site := &vm.dataSites[ins.OrigPC]
			c, ok := site.Replay(scalarAddr[ins.B], er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Read, scalarAddr[ins.B], er, ew)
			}
			cost += c
			taken := scalars[ins.B] == 0
			cost += vm.optBranch(tree, taken, curNode, ins, codeBase, isize, stride, er, ew)
			if taken {
				pc = int(ins.A)
			}

		case OCmpJz: // BINOP; JZ
			taken := binop(ins.Kind, regs[ins.S1], regs[ins.S2]) == 0
			if tree {
				cost += opCost
			}
			cost += vm.optBranch(tree, taken, curNode, ins, codeBase, isize, stride, er, ew)
			if taken {
				pc = int(ins.A)
			}

		case OImmCmpJz: // PUSH Val; BINOP; JZ
			taken := binop(ins.Kind, regs[ins.S1], ins.Val) == 0
			if tree {
				cost += opCost
			}
			cost += vm.optBranch(tree, taken, curNode, ins, codeBase, isize, stride, er, ew)
			if taken {
				pc = int(ins.A)
			}

		case OLoadCmpJz: // LOAD B; BINOP; JZ — the load is OrigPC.
			site := &vm.dataSites[ins.OrigPC]
			c, ok := site.Replay(scalarAddr[ins.B], er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Read, scalarAddr[ins.B], er, ew)
			}
			cost += c
			taken := binop(ins.Kind, regs[ins.S1], scalars[ins.B]) == 0
			if tree {
				cost += opCost
			}
			cost += vm.optBranch(tree, taken, curNode, ins, codeBase, isize, stride, er, ew)
			if taken {
				pc = int(ins.A)
			}

		case OImmStore: // PUSH Val; STORE A — the store is OrigPC+1.
			site := &vm.dataSites[ins.OrigPC+1]
			c, ok := site.Replay(scalarAddr[ins.A], er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Write, scalarAddr[ins.A], er, ew)
			}
			cost += c
			scalars[ins.A] = ins.Val
			clock += cost
			vm.trace = append(vm.trace, events.Event{
				Var: vm.prog.ScalarNames[ins.A], Value: ins.Val, Time: clock})
			continue

		case OLoadStore: // LOAD B; STORE A — load at OrigPC, store at OrigPC+1.
			site := &vm.dataSites[ins.OrigPC]
			c, ok := site.Replay(scalarAddr[ins.B], er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Read, scalarAddr[ins.B], er, ew)
			}
			cost += c
			v := scalars[ins.B]
			site = &vm.dataSites[ins.OrigPC+1]
			c, ok = site.Replay(scalarAddr[ins.A], er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Write, scalarAddr[ins.A], er, ew)
			}
			cost += c
			scalars[ins.A] = v
			clock += cost
			vm.trace = append(vm.trace, events.Event{
				Var: vm.prog.ScalarNames[ins.A], Value: v, Time: clock})
			continue

		case OLoadIdxStore: // LOADIDX B; STORE A — load at OrigPC, store at OrigPC+1.
			idx := wrap(regs[ins.S1], len(arrays[ins.B]))
			addr := arrayBase[ins.B] + 8*uint64(idx)
			site := &vm.dataSites[ins.OrigPC]
			c, ok := site.Replay(addr, er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Read, addr, er, ew)
			}
			cost += c
			v := arrays[ins.B][idx]
			site = &vm.dataSites[ins.OrigPC+1]
			c, ok = site.Replay(scalarAddr[ins.A], er, ew)
			if !ok {
				c = senv.AccessSite(site, hw.Write, scalarAddr[ins.A], er, ew)
			}
			cost += c
			scalars[ins.A] = v
			clock += cost
			vm.trace = append(vm.trace, events.Event{
				Var: vm.prog.ScalarNames[ins.A], Value: v, Time: clock})
			continue

		default:
			err = fmt.Errorf("bytecode: unknown optimized opcode %v", ins.Op)
			break loop
		}
		clock += cost
	}

	vm.pc = pc
	vm.er, vm.ew = er, ew
	vm.curNode = curNode
	vm.clock = clock
	vm.steps = steps
	if err != nil {
		return err
	}
	// HALT drains open mitigation regions; padding may push the clock
	// past the cycle budget, and that still counts (matching sem/full).
	if b.MaxCycles > 0 && vm.clock > b.MaxCycles {
		return fmt.Errorf("%w (%d cycles > %d)", budget.ErrCycleLimit, vm.clock, b.MaxCycles)
	}
	return nil
}

// binop is core.EvalBinop with the operators progen and the example
// corpus emit most often peeled into an inlinable prefix; every result
// is identical to core.EvalBinop's (the fallback IS core.EvalBinop).
// The full switch is too large for the inliner, and the call overhead
// is measurable at one call per arithmetic superinstruction.
func binop(k token.Kind, a, b int64) int64 {
	if k == token.PLUS {
		return a + b
	}
	if k == token.STAR {
		return a * b
	}
	return core.EvalBinop(k, a, b)
}

// optBranch charges the branch cost of a (possibly fused) JZ: the tree
// model charges at the current command's code address with sem/full's
// taken polarity (condition true, i.e. !taken); the micro model charges
// at the JZ's own stack-ISA code address with the jump polarity. Branch
// predictor state changes on every call, so there is no memoized path.
func (vm *VM) optBranch(tree, taken bool, curNode int64, ins *OptInstr, codeBase, isize, stride uint64, er, ew lattice.Label) uint64 {
	if tree {
		return vm.env.Branch(codeBase+stride*uint64(curNode), !taken, er, ew)
	}
	jzPC := uint64(ins.OrigPC) + uint64(ins.Len) - 1
	return vm.env.Branch(codeBase+jzPC*isize, taken, er, ew)
}
