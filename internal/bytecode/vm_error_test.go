package bytecode

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/exec/budget"
	"repro/internal/lang/token"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
)

// handProgram builds a raw bytecode program for error-path testing and
// links it, as Compile and Decode do.
func handProgram(code ...Instr) (*Program, error) {
	p := &Program{Code: code, Lat: lattice.TwoPoint(), NumMitigates: 4}
	return p, link(p)
}

// runHand links and runs a raw program, failing the test if linking
// rejects it.
func runHand(t *testing.T, maxInstrs int, code ...Instr) error {
	t.Helper()
	p, err := handProgram(code...)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	vm := NewVM(p, hw.NewFlat(lattice.TwoPoint(), 1), VMOptions{})
	return vm.Run(maxInstrs)
}

// linkRejects asserts that linking a raw program fails with an error
// containing want, and that the VM refuses the unlinked program.
func linkRejects(t *testing.T, want string, code ...Instr) {
	t.Helper()
	p, err := handProgram(code...)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("link err = %v, want %q", err, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewVM accepted a program without its register form")
		}
	}()
	NewVM(p, hw.NewFlat(lattice.TwoPoint(), 1), VMOptions{})
}

func TestVMInstructionBudget(t *testing.T) {
	// An infinite JMP loop exhausts the budget.
	err := runHand(t, 100, Instr{Op: OpJmp, A: 0})
	if !errors.Is(err, budget.ErrStepLimit) {
		t.Errorf("err = %v", err)
	}
}

func TestVMPCOutOfRange(t *testing.T) {
	// A jump target past the code is rejected when the program links.
	linkRejects(t, "jump target 99 out of range", Instr{Op: OpJmp, A: 99})
	// Falling off the end (no HALT) is out of range at run time.
	if err := runHand(t, 10, Instr{Op: OpNop}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestVMBadUnaryOp(t *testing.T) {
	err := runHand(t, 10,
		Instr{Op: OpPush, A: 1},
		Instr{Op: OpUnop, A: int64(token.PLUS)}, // + is not unary
		Instr{Op: OpHalt},
	)
	if err == nil || !strings.Contains(err.Error(), "unary") {
		t.Errorf("err = %v", err)
	}
}

func TestVMUnknownOpcode(t *testing.T) {
	linkRejects(t, "unknown opcode", Instr{Op: Op(200)}, Instr{Op: OpHalt})
}

func TestVMMismatchedMitExit(t *testing.T) {
	err := runHand(t, 10, Instr{Op: OpMitExit, A: 0}, Instr{Op: OpHalt})
	if err == nil || !strings.Contains(err.Error(), "no open region") {
		t.Errorf("err = %v", err)
	}
	err = runHand(t, 10,
		Instr{Op: OpPush, A: 1},
		Instr{Op: OpMitEnter, A: 0, B: 1},
		Instr{Op: OpMitExit, A: 3}, // wrong id
		Instr{Op: OpHalt},
	)
	if err == nil || !strings.Contains(err.Error(), "mismatched") {
		t.Errorf("err = %v", err)
	}
}

func TestVMHaltClosesOpenRegions(t *testing.T) {
	// A region left open at HALT is closed (padded) so the record
	// exists — defensive behaviour for miscompiled programs.
	p, err := handProgram(
		Instr{Op: OpPush, A: 64},
		Instr{Op: OpMitEnter, A: 2, B: 1},
		Instr{Op: OpHalt},
	)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(p, hw.NewFlat(lattice.TwoPoint(), 1), VMOptions{})
	if err := vm.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(vm.Mitigations()) != 1 || vm.Mitigations()[0].ID != 2 {
		t.Errorf("mitigations = %v", vm.Mitigations())
	}
}

// A stack underflow and a bad label are rejected when the program
// links, so NewVM never sees them: it panics on the unlinked program.
func TestVMStackUnderflowPanics(t *testing.T) {
	linkRejects(t, "stack underflow at pc 0", Instr{Op: OpStore, A: 0}, Instr{Op: OpHalt})
}

func TestVMBadLabelPanics(t *testing.T) {
	linkRejects(t, "bad label id 99", Instr{Op: OpSetLbl, A: 99, B: 99}, Instr{Op: OpHalt})
}

func TestVMSleepNegative(t *testing.T) {
	p, err := handProgram(
		Instr{Op: OpSetLbl},
		Instr{Op: OpPush, A: -5},
		Instr{Op: OpSleep},
		Instr{Op: OpSetLbl},
		Instr{Op: OpPush, A: 0},
		Instr{Op: OpSleep},
		Instr{Op: OpHalt},
	)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(p, hw.NewFlat(lattice.TwoPoint(), 1), VMOptions{})
	if err := vm.Run(10); err != nil {
		t.Fatal(err)
	}
	// 2 commands at (1 base + 1 flat fetch) each, no extra sleep.
	if vm.Clock() != 4 {
		t.Errorf("clock = %d, want 4", vm.Clock())
	}
}
