package bytecode

import (
	"fmt"
	"strconv"

	"repro/internal/lang/token"
	"repro/internal/lattice"
)

// Linking: every Program that Compile or Decode returns carries its
// register form (Program.Opt), built here by two passes over the stack
// ISA. Lowering maps each stack instruction 1:1 to a register
// instruction with fully predecoded operands; fusion then rewrites
// adjacent pairs into superinstructions. Both passes preserve the exact
// sequence of machine-environment accesses and the clock at every
// observable point (DESIGN.md §12), so the register form has the stack
// ISA's timing. The stack ISA stays the compiler's output and the
// serialization format; the register form is what the VM executes.

// maxRegs is the register-file addressing limit (register indices are
// uint8). A program needs one register per evaluation-stack slot, so
// the limit binds only on expressions nested more than 256 deep.
const maxRegs = 256

// link lowers p to its register form, fuses it, and attaches the result
// as p.Opt. A program lowering cannot take (an expression deeper than
// the register file, a join reached at two stack depths, a stack
// underflow, a jump out of range) is rejected here, when it is compiled
// or decoded, rather than when it runs.
func link(p *Program) error {
	op, err := lower(p)
	if err != nil {
		return err
	}
	fuse(op)
	p.Opt = op
	return nil
}

// lower translates a stack program 1:1 into the register form: stack
// slot i becomes register i (the compiler's structured output gives
// every instruction a statically known entry depth, verified here by
// abstract interpretation), labels and operator kinds are predecoded,
// and array-element event names are precomputed.
func lower(p *Program) (*OptProgram, error) {
	n := len(p.Code)
	depth, maxDepth, err := stackDepths(p)
	if err != nil {
		return nil, err
	}
	if maxDepth > maxRegs {
		return nil, fmt.Errorf("bytecode: expression needs %d evaluation-stack slots, more than the VM's %d registers", maxDepth, maxRegs)
	}

	labels := make([]lattice.Label, p.Lat.Size())
	for _, l := range p.Lat.Levels() {
		labels[l.ID()] = l
	}
	label := func(id int64) (lattice.Label, error) {
		if id < 0 || id >= int64(len(labels)) {
			return lattice.Label{}, fmt.Errorf("bytecode: bad label id %d", id)
		}
		return labels[id], nil
	}

	out := &OptProgram{
		Code:    make([]OptInstr, 0, n),
		NumRegs: maxDepth,
		OrigLen: n,
	}
	for pc, ins := range p.Code {
		d := depth[pc]
		oi := OptInstr{Len: 1, OrigPC: int32(pc)}
		if d < 0 {
			// Unreachable instruction (can only arise in hand-built
			// programs): it can never execute, so a NOP placeholder
			// keeps the 1:1 index mapping without inventing register
			// operands for it.
			oi.Op = ONop
			out.Code = append(out.Code, oi)
			continue
		}
		need := func(k int) error {
			if d < k {
				return fmt.Errorf("bytecode: pc %d: %v needs stack depth %d, have %d", pc, ins.Op, k, d)
			}
			return nil
		}
		switch ins.Op {
		case OpNop:
			oi.Op = ONop
		case OpHalt:
			oi.Op = OHalt
		case OpSetLbl:
			oi.Op = OSetLbl
			if oi.ER, err = label(ins.A); err != nil {
				return nil, err
			}
			if oi.EW, err = label(ins.B); err != nil {
				return nil, err
			}
			oi.Node = ins.C
		case OpPush:
			oi.Op, oi.Dst, oi.Val = OImm, uint8(d), ins.A
		case OpLoad:
			oi.Op, oi.Dst, oi.A = OLoad, uint8(d), int32(ins.A)
		case OpLoadIdx:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.Dst, oi.S1, oi.A = OLoadIdx, uint8(d-1), uint8(d-1), int32(ins.A)
		case OpStore:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.S1, oi.A = OStore, uint8(d-1), int32(ins.A)
		case OpStoreIdx:
			if err := need(2); err != nil {
				return nil, err
			}
			oi.Op, oi.S2, oi.S1, oi.A = OStoreIdx, uint8(d-1), uint8(d-2), int32(ins.A)
		case OpUnop:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.Dst, oi.S1, oi.Kind = OUnop, uint8(d-1), uint8(d-1), token.Kind(ins.A)
		case OpBinop:
			if err := need(2); err != nil {
				return nil, err
			}
			oi.Op, oi.Dst, oi.S1, oi.S2, oi.Kind = OBinop, uint8(d-2), uint8(d-2), uint8(d-1), token.Kind(ins.A)
		case OpJmp:
			oi.Op, oi.A = OJmp, int32(ins.A)
		case OpJz:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.S1, oi.A = OJz, uint8(d-1), int32(ins.A)
		case OpSleep:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.S1 = OSleep, uint8(d-1)
		case OpMitEnter:
			if err := need(1); err != nil {
				return nil, err
			}
			oi.Op, oi.S1, oi.A = OMitEnter, uint8(d-1), int32(ins.A)
			if oi.ER, err = label(ins.B); err != nil {
				return nil, err
			}
		case OpMitExit:
			oi.Op, oi.A = OMitExit, int32(ins.A)
		default:
			return nil, fmt.Errorf("bytecode: unknown opcode %v at pc %d", ins.Op, pc)
		}
		out.Code = append(out.Code, oi)
	}

	// Precompute per-element event names so STOREIDX commits events
	// without a per-event format allocation; each is "name[idx]", the
	// element name sem/full's array assignments record. An array's
	// names are slices of one string built in one buffer.
	out.IdxNames = make([][]string, len(p.ArrayNames))
	var buf []byte
	var ends []int
	for i, name := range p.ArrayNames {
		buf, ends = buf[:0], ends[:0]
		for j := int64(0); j < p.ArraySizes[i]; j++ {
			buf = append(buf, name...)
			buf = append(buf, '[')
			buf = strconv.AppendInt(buf, j, 10)
			buf = append(buf, ']')
			ends = append(ends, len(buf))
		}
		names := make([]string, len(ends))
		all, start := string(buf), 0
		for j, end := range ends {
			names[j], start = all[start:end], end
		}
		out.IdxNames[i] = names
	}
	return out, nil
}

// stackDepths computes each instruction's entry stack depth by abstract
// interpretation over the control-flow graph, verifying that every
// instruction is reached at a single consistent depth (true for all
// compiler output: expressions are evaluated without crossing control
// flow). The second result is the maximum depth reached (the register
// file size). Unreachable instructions report depth -1.
func stackDepths(p *Program) ([]int, int, error) {
	n := len(p.Code)
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	if n == 0 {
		return depth, 0, nil
	}
	maxDepth := 0
	type item struct{ pc, d int }
	work := []item{{0, 0}}
	visit := func(pc, d int) error {
		if pc < 0 || pc >= n {
			return fmt.Errorf("bytecode: jump target %d out of range", pc)
		}
		if d < 0 {
			return fmt.Errorf("bytecode: stack underflow reaching pc %d", pc)
		}
		if depth[pc] >= 0 {
			if depth[pc] != d {
				return fmt.Errorf("bytecode: pc %d reached at depths %d and %d", pc, depth[pc], d)
			}
			return nil
		}
		depth[pc] = d
		work = append(work, item{pc, d})
		return nil
	}
	depth[0] = 0
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		pc, d := it.pc, it.d
		ins := p.Code[pc]
		next := d
		switch ins.Op {
		case OpPush, OpLoad:
			next = d + 1
		case OpStore, OpBinop, OpSleep, OpMitEnter:
			next = d - 1
		case OpStoreIdx:
			next = d - 2
		case OpHalt:
			continue
		case OpJmp:
			if err := visit(int(ins.A), d); err != nil {
				return nil, 0, err
			}
			continue
		case OpJz:
			next = d - 1
			if err := visit(int(ins.A), next); err != nil {
				return nil, 0, err
			}
		}
		if next < 0 {
			return nil, 0, fmt.Errorf("bytecode: stack underflow at pc %d (%v)", pc, ins.Op)
		}
		if next > maxDepth {
			maxDepth = next
		}
		if pc+1 < n {
			if err := visit(pc+1, next); err != nil {
				return nil, 0, err
			}
		}
	}
	return depth, maxDepth, nil
}

// fuse rewrites a lowered program in place, combining adjacent
// instruction pairs into superinstructions. It applies the pairwise
// pattern table repeatedly until a fixpoint, so chains compose (e.g.
// IMM + BINOP → IMM.BINOP, then IMM.BINOP + JZ → IMM.CMP.JZ), and it is
// idempotent: running it on already-fused code changes nothing, because
// every pattern's left side requires at least one opcode shape that a
// previous application consumed.
//
// Soundness has three parts:
//
//   - Control flow: the second instruction of a pair must not be a jump
//     target, so no branch can enter the middle of a fused group, and
//     the pair must be contiguous in the original program
//     (b.OrigPC == a.OrigPC + a.Len), so the group's recorded original
//     range is exactly the instructions it replaces.
//
//   - Timing: each superinstruction's VM case commits the same machine
//     accesses in the same per-hierarchy order and the same clock costs
//     as the pair it replaces (vm_opt.go); no pattern crosses a SETLBL
//     or an event-committing boundary except as the group's final
//     instruction.
//
//   - Data flow: patterns require the producing instruction's
//     destination register to be the consuming instruction's operand
//     (stack discipline guarantees the value dies there), so dropping
//     the intermediate register write is unobservable.
func fuse(op *OptProgram) {
	code := op.Code
	for {
		var changed bool
		code, changed = fuseOnce(code)
		if !changed {
			break
		}
	}
	op.Code = code
}

// fuseOnce performs one left-to-right sweep, fusing non-overlapping
// adjacent pairs, and remaps jump targets to the rewritten indices.
func fuseOnce(code []OptInstr) ([]OptInstr, bool) {
	targets := jumpTargets(code)
	out := make([]OptInstr, 0, len(code))
	old2new := make([]int, len(code)+1)
	changed := false
	for i := 0; i < len(code); i++ {
		old2new[i] = len(out)
		if i+1 < len(code) && !targets[i+1] {
			if f, ok := fusePair(&code[i], &code[i+1]); ok {
				out = append(out, f)
				old2new[i+1] = len(out) - 1 // never a jump target; mapped for completeness
				i++
				changed = true
				continue
			}
		}
		out = append(out, code[i])
	}
	old2new[len(code)] = len(out)
	if !changed {
		return code, false
	}
	for i := range out {
		if isJump(out[i].Op) {
			out[i].A = int32(old2new[out[i].A])
		}
	}
	return out, true
}

// isJump reports whether the opcode's A operand is a jump target.
func isJump(o OptOp) bool {
	switch o {
	case OJmp, OJz, OLoadJz, OCmpJz,
		OImmCmpJz, OLoadCmpJz:
		return true
	}
	return false
}

// jumpTargets returns the set of instruction indices any jump may enter.
func jumpTargets(code []OptInstr) []bool {
	t := make([]bool, len(code)+1)
	for i := range code {
		if isJump(code[i].Op) {
			a := code[i].A
			if a >= 0 && int(a) < len(t) {
				t[a] = true
			}
		}
	}
	return t
}

// fusePair returns the superinstruction for an adjacent pair, if the
// pattern table has one. The caller has already checked that b is not a
// jump target.
func fusePair(a, b *OptInstr) (OptInstr, bool) {
	if b.OrigPC != a.OrigPC+int32(a.Len) {
		// Non-contiguous original ranges (can only happen in a
		// hand-modified program): the group could not account its
		// original instructions correctly, so leave it alone.
		return OptInstr{}, false
	}
	f := OptInstr{
		Len:    a.Len + b.Len,
		OrigPC: a.OrigPC,
	}
	switch {
	// IMM r; BINOP  →  IMM.BINOP (the immediate is always the right
	// operand: the push writes the deeper slot's successor).
	case a.Op == OImm && b.Op == OBinop && b.S2 == a.Dst && b.S1 != a.Dst:
		f.Op, f.Kind, f.Dst, f.S1, f.Val = OImmBinop, b.Kind, b.Dst, b.S1, a.Val

	// IMM.BINOP; IMM.BINOP  →  IMM.BINOP2 (second-order fusion over a
	// chain on one register; requiring b to both read and overwrite
	// a's destination keeps the intermediate value dead).
	case a.Op == OImmBinop && b.Op == OImmBinop && b.S1 == a.Dst && b.Dst == a.Dst:
		f.Op, f.Dst, f.S1 = OImmBinop2, a.Dst, a.S1
		f.Kind, f.Val = a.Kind, a.Val
		f.Kind2, f.Val2 = b.Kind, b.Val

	// LOAD r; BINOP  →  LOAD.BINOP.
	case a.Op == OLoad && b.Op == OBinop && b.S2 == a.Dst && b.S1 != a.Dst:
		f.Op, f.Kind, f.Dst, f.S1, f.B = OLoadBinop, b.Kind, b.Dst, b.S1, a.A

	// IMM r; LOAD.BINOP  →  IMM.LOAD.BINOP (immediate is the left
	// operand: it was pushed first).
	case a.Op == OImm && b.Op == OLoadBinop && b.S1 == a.Dst:
		f.Op, f.Kind, f.Dst, f.Val, f.B = OImmLoadBinop, b.Kind, b.Dst, a.Val, b.B

	// LOAD r; JZ  →  LOAD.JZ.
	case a.Op == OLoad && b.Op == OJz && b.S1 == a.Dst:
		f.Op, f.A, f.B = OLoadJz, b.A, a.A

	// BINOP; JZ  →  CMP.JZ.
	case a.Op == OBinop && b.Op == OJz && b.S1 == a.Dst:
		f.Op, f.Kind, f.S1, f.S2, f.A = OCmpJz, a.Kind, a.S1, a.S2, b.A

	// IMM.BINOP; JZ  →  IMM.CMP.JZ.
	case a.Op == OImmBinop && b.Op == OJz && b.S1 == a.Dst:
		f.Op, f.Kind, f.S1, f.Val, f.A = OImmCmpJz, a.Kind, a.S1, a.Val, b.A

	// LOAD.BINOP; JZ  →  LOAD.CMP.JZ.
	case a.Op == OLoadBinop && b.Op == OJz && b.S1 == a.Dst:
		f.Op, f.Kind, f.S1, f.B, f.A = OLoadCmpJz, a.Kind, a.S1, a.B, b.A

	// IMM r; STORE  →  IMM.STORE.
	case a.Op == OImm && b.Op == OStore && b.S1 == a.Dst:
		f.Op, f.A, f.Val = OImmStore, b.A, a.Val

	// LOAD r; STORE  →  LOAD.STORE.
	case a.Op == OLoad && b.Op == OStore && b.S1 == a.Dst:
		f.Op, f.A, f.B = OLoadStore, b.A, a.A

	// LOADIDX r; STORE  →  LOADIDX.STORE (S1 is the index register).
	case a.Op == OLoadIdx && b.Op == OStore && b.S1 == a.Dst:
		f.Op, f.S1, f.A, f.B = OLoadIdxStore, a.S1, b.A, a.A

	default:
		return OptInstr{}, false
	}
	return f, true
}
