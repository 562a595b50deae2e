// Package bytecode implements the compilation half of the paper's §8.2:
// a small stack-machine ISA with an explicit timing-label register, a
// compiler from the timing-channel language into it, and a virtual
// machine that executes the bytecode against the same machine-
// environment contract (hw.Env) as the tree-walking full semantics.
//
// The ISA makes the software→hardware interface concrete: the compiler
// inserts SETLBL instructions before each command block, modeling the
// paper's "new register ... added as an interface to communicate the
// timing label from the software to the hardware"; every instruction
// fetch and data access the VM performs carries the current register
// value. The VM charges the full semantics' costs (the constants of
// sem/mem) at the same code and data addresses: one fetch per SETLBL,
// that is per command, at its AST node's code address, so a compiled
// program runs with the tree-walker's timing, cycle for cycle.
//
// The stack ISA is the compiler's output and the serialization format.
// Compile and Decode link every program to a register form (lower.go)
// with the same timing, and the VM executes that form in one loop
// (vm_opt.go).
package bytecode

import (
	"fmt"
	"strings"

	"repro/internal/lang/token"
	"repro/internal/lattice"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Operand meanings are noted per opcode; A and B are the
// instruction's integer operands.
const (
	// OpNop does nothing (alignment/padding).
	OpNop Op = iota
	// OpSetLbl sets the timing-label register: A = read label ID,
	// B = write label ID.
	OpSetLbl
	// OpPush pushes the immediate A onto the evaluation stack.
	OpPush
	// OpLoad pushes the scalar variable numbered A.
	OpLoad
	// OpLoadIdx pops an index and pushes element [idx] of array A.
	OpLoadIdx
	// OpStore pops a value into scalar A and emits an observable event.
	OpStore
	// OpStoreIdx pops a value, then an index, and stores into array A.
	OpStoreIdx
	// OpUnop applies unary operator A (a token.Kind) to the stack top.
	OpUnop
	// OpBinop pops y then x and pushes x ⟨A⟩ y (A is a token.Kind).
	OpBinop
	// OpJmp jumps to instruction A.
	OpJmp
	// OpJz pops a value and jumps to A if it is zero.
	OpJz
	// OpSleep pops n and advances the clock by max(n, 0).
	OpSleep
	// OpMitEnter pops the initial prediction and opens mitigation
	// region A (the mitigate identifier) at level B (a label ID).
	OpMitEnter
	// OpMitExit closes mitigation region A: penalize and pad.
	OpMitExit
	// OpHalt stops execution.
	OpHalt
)

var opNames = map[Op]string{
	OpNop: "NOP", OpSetLbl: "SETLBL", OpPush: "PUSH",
	OpLoad: "LOAD", OpLoadIdx: "LOADIDX", OpStore: "STORE", OpStoreIdx: "STOREIDX",
	OpUnop: "UNOP", OpBinop: "BINOP", OpJmp: "JMP", OpJz: "JZ",
	OpSleep: "SLEEP", OpMitEnter: "MITENTER", OpMitExit: "MITEXIT", OpHalt: "HALT",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Instr is one instruction.
type Instr struct {
	Op Op
	A  int64
	B  int64
	// C is instruction metadata: for OpSetLbl it records the AST node
	// ID of the source command the label write belongs to, at whose
	// code address (mem.CodeAddr) the VM charges the command's fetch
	// and branch costs, as the tree-walking semantics does. It is not
	// shown in disassembly.
	C int64
}

// String disassembles one instruction.
func (i Instr) String() string {
	switch i.Op {
	case OpNop, OpHalt, OpSleep:
		return i.Op.String()
	case OpUnop, OpBinop:
		return fmt.Sprintf("%s %s", i.Op, token.Kind(i.A))
	case OpSetLbl, OpMitEnter:
		return fmt.Sprintf("%s %d %d", i.Op, i.A, i.B)
	default:
		return fmt.Sprintf("%s %d", i.Op, i.A)
	}
}

// Program is a compiled bytecode program.
type Program struct {
	Code []Instr
	// ScalarNames and ArrayNames map the compiler's variable numbers
	// back to source names (for events and debugging).
	ScalarNames []string
	ArrayNames  []string
	// ArraySizes gives each array's element count, parallel to
	// ArrayNames.
	ArraySizes []int64
	// ScalarOffsets and ArrayOffsets give each variable's byte offset
	// from mem.DataBase, parallel to ScalarNames/ArrayNames. The
	// compiler takes them from mem.NewLayout, so the VM's data
	// accesses hit the same addresses as the tree-walking semantics.
	// NewVM and Encode require them.
	ScalarOffsets []uint64
	ArrayOffsets  []uint64
	// Lat is the lattice the label IDs in SETLBL/MITENTER refer to.
	Lat lattice.Lattice
	// NumMitigates is one past the largest mitigate identifier.
	NumMitigates int
	// Opt is the register form the VM executes, attached by Compile
	// and Decode (see link). It is derived state: the wire encoding
	// carries only Code, and Decode rebuilds Opt from it.
	Opt *OptProgram
}

// hasOffsets reports whether every variable has its data offset.
func (p *Program) hasOffsets() bool {
	return len(p.ScalarOffsets) == len(p.ScalarNames) && len(p.ArrayOffsets) == len(p.ArrayNames)
}

// Disassemble renders the whole program.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, ins := range p.Code {
		fmt.Fprintf(&b, "%4d  %s\n", i, ins)
	}
	return b.String()
}
