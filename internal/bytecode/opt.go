package bytecode

import (
	"fmt"
	"strings"

	"repro/internal/lang/token"
	"repro/internal/lattice"
)

// This file defines the register form the VM executes (vm_opt.go),
// produced from the stack ISA by the lowering and fusion passes
// (lower.go).
//
// The contract of every register opcode is timing transparency: the
// instruction commits exactly the clock costs, machine-environment
// accesses, trace events, and mitigation transitions that the stack
// ISA defines for the original instruction sequence it replaces.
// Fused opcodes carry the pc and length of their original expansion so
// the step counter and the per-site hardware memos remain keyed to
// original instructions.

// OptOp is an opcode of the optimized (register-file) ISA.
type OptOp uint8

const (
	// ONop does nothing.
	ONop OptOp = iota
	// OHalt stops execution.
	OHalt
	// OSetLbl installs the predecoded labels ER/EW and the AST node.
	OSetLbl
	// OImm sets R[Dst] = Val.
	OImm
	// OLoad reads scalar A into R[Dst].
	OLoad
	// OLoadIdx reads arrays[A][wrap(R[S1])] into R[Dst].
	OLoadIdx
	// OStore writes R[S1] to scalar A and emits an observable event.
	OStore
	// OStoreIdx writes R[S2] to arrays[A][wrap(R[S1])] and emits an
	// observable event.
	OStoreIdx
	// OUnop sets R[Dst] = Kind(R[S1]).
	OUnop
	// OBinop sets R[Dst] = R[S1] ⟨Kind⟩ R[S2].
	OBinop
	// OJmp jumps to instruction A.
	OJmp
	// OJz jumps to A if R[S1] is zero.
	OJz
	// OSleep advances the clock by max(R[S1], 0).
	OSleep
	// OMitEnter opens mitigation region A at level ER with initial
	// prediction R[S1].
	OMitEnter
	// OMitExit closes mitigation region A.
	OMitExit

	// Fused superinstructions (produced by fusion). Each one's comment
	// gives its original expansion; Len and OrigPC record it at runtime.

	// OImmBinop = PUSH Val; BINOP — R[Dst] = R[S1] ⟨Kind⟩ Val.
	OImmBinop
	// OLoadBinop = LOAD B; BINOP — R[Dst] = R[S1] ⟨Kind⟩ scalars[B],
	// with the load's data access.
	OLoadBinop
	// OImmLoadBinop = PUSH Val; LOAD B; BINOP — R[Dst] = Val ⟨Kind⟩
	// scalars[B], with the load's data access.
	OImmLoadBinop
	// OLoadJz = LOAD B; JZ A — jump to A if scalars[B] is zero, with
	// the load's data access.
	OLoadJz
	// OCmpJz = BINOP; JZ A — jump to A if R[S1] ⟨Kind⟩ R[S2] is zero.
	OCmpJz
	// OImmCmpJz = PUSH Val; BINOP; JZ A — jump to A if R[S1] ⟨Kind⟩ Val
	// is zero.
	OImmCmpJz
	// OLoadCmpJz = LOAD B; BINOP; JZ A — jump to A if R[S1] ⟨Kind⟩
	// scalars[B] is zero, with the load's data access.
	OLoadCmpJz
	// OImmStore = PUSH Val; STORE A — write Val to scalar A, with the
	// store's access and event.
	OImmStore
	// OLoadStore = LOAD B; STORE A — copy scalar B to scalar A, with
	// both data accesses and the store event.
	OLoadStore
	// OLoadIdxStore = LOADIDX B; STORE A — read arrays[B][wrap(R[S1])]
	// into scalar A, with both data accesses and the store event.
	OLoadIdxStore
	// OImmBinop2 = PUSH Val; BINOP Kind; PUSH Val2; BINOP Kind2 — a
	// second-order fusion of two adjacent OImmBinop over the same
	// register: R[Dst] = (R[S1] ⟨Kind⟩ Val) ⟨Kind2⟩ Val2. One dispatch
	// covers four original instructions; immediate-arithmetic chains
	// halve their dispatch count again.
	OImmBinop2
)

var optOpNames = [...]string{
	ONop: "NOP", OHalt: "HALT", OSetLbl: "SETLBL", OImm: "IMM",
	OLoad: "LOAD", OLoadIdx: "LOADIDX", OStore: "STORE", OStoreIdx: "STOREIDX",
	OUnop: "UNOP", OBinop: "BINOP", OJmp: "JMP", OJz: "JZ",
	OSleep: "SLEEP", OMitEnter: "MITENTER", OMitExit: "MITEXIT",
	OImmBinop: "IMM.BINOP", OLoadBinop: "LOAD.BINOP", OImmLoadBinop: "IMM.LOAD.BINOP",
	OLoadJz: "LOAD.JZ", OCmpJz: "CMP.JZ", OImmCmpJz: "IMM.CMP.JZ", OLoadCmpJz: "LOAD.CMP.JZ",
	OImmStore: "IMM.STORE", OLoadStore: "LOAD.STORE", OLoadIdxStore: "LOADIDX.STORE",
	OImmBinop2: "IMM.BINOP2",
}

// String returns the opcode mnemonic.
func (o OptOp) String() string {
	if int(o) < len(optOpNames) && optOpNames[o] != "" {
		return optOpNames[o]
	}
	return fmt.Sprintf("OptOp(%d)", uint8(o))
}

// Fused reports whether the opcode replaces more than one original
// instruction.
func (o OptOp) Fused() bool { return o >= OImmBinop }

// OptInstr is one instruction of the optimized ISA. Operands are fully
// predecoded: labels are resolved lattice.Labels, jump targets are
// direct indices into the optimized code, and memory operands are
// indices into the VM's scalar/array tables — the hot loop touches no
// maps and performs no per-instruction decoding.
type OptInstr struct {
	Op   OptOp
	Kind token.Kind // operator for UNOP/BINOP-carrying opcodes
	// Kind2 is the second operator of OImmBinop2.
	Kind2 token.Kind
	// Dst, S1, S2 are register-file indices. Register i corresponds to
	// evaluation-stack slot i in the original program (see lower).
	Dst, S1, S2 uint8
	// Len is the number of original instructions this one expands to
	// (1 for unfused opcodes). The step counter advances by Len.
	Len uint8
	// A is the primary integer operand: scalar/array index for memory
	// opcodes, jump target for OJmp/OJz and every fused *Jz, mitigate
	// ID for OMitEnter/OMitExit.
	A int32
	// B is the secondary memory operand of fused opcodes: the scalar
	// index loaded by OLoadBinop/OImmLoadBinop/OLoadJz/OLoadCmpJz/
	// OLoadStore, or the array index of OLoadIdxStore.
	B int32
	// OrigPC is the index of the first original instruction this one
	// replaces; per-site hardware memos are keyed by original pc.
	OrigPC int32
	// Val is the immediate of OImm and the IMM-fused opcodes; Val2 is
	// the second immediate of OImmBinop2.
	Val, Val2 int64
	// Node is the AST node ID carried by OSetLbl (the VM charges
	// command fetch and branch costs at its code address).
	Node int64
	// ER/EW are the predecoded labels of OSetLbl; ER doubles as the
	// mitigation level of OMitEnter.
	ER, EW lattice.Label
}

// String disassembles one optimized instruction.
func (i OptInstr) String() string {
	switch i.Op {
	case ONop, OHalt:
		return i.Op.String()
	case OSetLbl:
		return fmt.Sprintf("%s %v %v", i.Op, i.ER, i.EW)
	case OImm:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Dst, i.Val)
	case OLoad:
		return fmt.Sprintf("%s r%d, s%d", i.Op, i.Dst, i.A)
	case OLoadIdx:
		return fmt.Sprintf("%s r%d, a%d[r%d]", i.Op, i.Dst, i.A, i.S1)
	case OStore:
		return fmt.Sprintf("%s s%d, r%d", i.Op, i.A, i.S1)
	case OStoreIdx:
		return fmt.Sprintf("%s a%d[r%d], r%d", i.Op, i.A, i.S1, i.S2)
	case OUnop:
		return fmt.Sprintf("%s r%d, %v r%d", i.Op, i.Dst, i.Kind, i.S1)
	case OBinop:
		return fmt.Sprintf("%s r%d, r%d %v r%d", i.Op, i.Dst, i.S1, i.Kind, i.S2)
	case OJmp:
		return fmt.Sprintf("%s %d", i.Op, i.A)
	case OJz:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.S1, i.A)
	case OSleep:
		return fmt.Sprintf("%s r%d", i.Op, i.S1)
	case OMitEnter:
		return fmt.Sprintf("%s %d %v, r%d", i.Op, i.A, i.ER, i.S1)
	case OMitExit:
		return fmt.Sprintf("%s %d", i.Op, i.A)
	case OImmBinop:
		return fmt.Sprintf("%s r%d, r%d %v %d", i.Op, i.Dst, i.S1, i.Kind, i.Val)
	case OLoadBinop:
		return fmt.Sprintf("%s r%d, r%d %v s%d", i.Op, i.Dst, i.S1, i.Kind, i.B)
	case OImmLoadBinop:
		return fmt.Sprintf("%s r%d, %d %v s%d", i.Op, i.Dst, i.Val, i.Kind, i.B)
	case OLoadJz:
		return fmt.Sprintf("%s s%d, %d", i.Op, i.B, i.A)
	case OCmpJz:
		return fmt.Sprintf("%s r%d %v r%d, %d", i.Op, i.S1, i.Kind, i.S2, i.A)
	case OImmCmpJz:
		return fmt.Sprintf("%s r%d %v %d, %d", i.Op, i.S1, i.Kind, i.Val, i.A)
	case OLoadCmpJz:
		return fmt.Sprintf("%s r%d %v s%d, %d", i.Op, i.S1, i.Kind, i.B, i.A)
	case OImmStore:
		return fmt.Sprintf("%s s%d, %d", i.Op, i.A, i.Val)
	case OLoadStore:
		return fmt.Sprintf("%s s%d, s%d", i.Op, i.A, i.B)
	case OLoadIdxStore:
		return fmt.Sprintf("%s s%d, a%d[r%d]", i.Op, i.A, i.B, i.S1)
	case OImmBinop2:
		return fmt.Sprintf("%s r%d, (r%d %v %d) %v %d", i.Op, i.Dst, i.S1, i.Kind, i.Val, i.Kind2, i.Val2)
	}
	return i.Op.String()
}

// OptProgram is the register form of a Program, attached as
// Program.Opt by Compile and Decode. It is immutable after
// construction, like the Program it derives from, so one OptProgram can
// back any number of VMs.
type OptProgram struct {
	Code []OptInstr
	// NumRegs is the register-file size: the original program's maximum
	// evaluation-stack depth.
	NumRegs int
	// OrigLen is len of the original Program.Code; the VM sizes its
	// per-original-instruction site tables from it.
	OrigLen int
	// IdxNames[a][i] is the precomputed event name "arr[i]" for array
	// a's element i, so STOREIDX events allocate no format buffer.
	IdxNames [][]string
}

// Disassemble renders the optimized program.
func (p *OptProgram) Disassemble() string {
	var b strings.Builder
	for i, ins := range p.Code {
		fmt.Fprintf(&b, "%4d  %s", i, ins)
		if ins.Op.Fused() {
			fmt.Fprintf(&b, "    ; pc %d +%d", ins.OrigPC, ins.Len)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
