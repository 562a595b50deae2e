package bytecode

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang/token"
	"repro/internal/lattice"
	"repro/internal/progen"
)

const loopSrc = `
var n : L;
var f : L;
var i : L;
n := 5;
f := 1;
i := 1;
while (i <= n) {
    f := f * i;
    i := i + 1;
}
if (f > 100) { n := 1; } else { n := 0; }
`

// TestCompileLevels checks the two passes in order: lowering alone is
// a 1:1 translation with no fused opcodes, and the form Compile links
// (lowering then fusion) fuses the loop's hot patterns with balanced
// instruction accounting.
func TestCompileLevels(t *testing.T) {
	bc := compileSrc(t, loopSrc, lattice.TwoPoint())
	lowered, err := lower(bc)
	if err != nil {
		t.Fatal(err)
	}
	// Lowering is 1:1: every original instruction appears once, in
	// order, and no fused opcodes exist yet.
	if len(lowered.Code) != len(bc.Code) || lowered.OrigLen != len(bc.Code) {
		t.Fatalf("lowered %d instrs from %d", len(lowered.Code), len(bc.Code))
	}
	for i, ins := range lowered.Code {
		if ins.Op.Fused() {
			t.Fatalf("fused opcode %v after lowering", ins.Op)
		}
		if int(ins.OrigPC) != i || ins.Len != 1 {
			t.Fatalf("instr %d: OrigPC %d Len %d", i, ins.OrigPC, ins.Len)
		}
	}

	fused := bc.Opt
	var fusedInstrs, absorbed int
	patterns := map[string]int{}
	for _, ins := range fused.Code {
		if ins.Op.Fused() {
			fusedInstrs++
			absorbed += int(ins.Len)
			patterns[ins.Op.String()]++
		}
	}
	if fusedInstrs == 0 {
		t.Fatalf("fusion found nothing in a loop program:\n%s", fused.Disassemble())
	}
	// The absorbed-original accounting must balance: unfused + absorbed
	// = original instruction count.
	if unfused := len(fused.Code) - fusedInstrs; unfused+absorbed != len(bc.Code) {
		t.Errorf("instruction accounting: %d unfused + %d absorbed != %d original",
			unfused, absorbed, len(bc.Code))
	}
	// The loop program exercises the compare-and-branch and
	// load/store patterns.
	for _, pat := range []string{"LOAD.CMP.JZ", "IMM.STORE"} {
		if patterns[pat] == 0 {
			t.Errorf("pattern %s not used:\n%s", pat, fused.Disassemble())
		}
	}
}

// TestFuseIdempotent checks the pass-ordering contract: fuse runs to a
// fixpoint, so applying it again to a linked program changes nothing.
func TestFuseIdempotent(t *testing.T) {
	srcs := []string{loopSrc}
	for seed := int64(1); seed <= 20; seed++ {
		_, _, src, err := progen.GenerateTyped(progen.Config{
			Lat: lattice.TwoPoint(), Seed: seed, AllowMitigate: true, AllowSleep: true,
		}, 50)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	for i, src := range srcs {
		once := compileSrc(t, src, lattice.TwoPoint()).Opt
		again := &OptProgram{Code: append([]OptInstr(nil), once.Code...)}
		fuse(again)
		if !reflect.DeepEqual(once.Code, again.Code) {
			t.Fatalf("program %d: fuse is not idempotent", i)
		}
	}
}

// TestLowerRegisterBudget checks that NumRegs equals the evaluation
// stack's high-water mark, not the instruction count.
func TestLowerRegisterBudget(t *testing.T) {
	bc := compileSrc(t, `
var a : L;
var b : L;
a := ((1 + 2) * (3 + 4)) + ((5 + 6) * (7 + b));
`, lattice.TwoPoint())
	op, err := lower(bc)
	if err != nil {
		t.Fatal(err)
	}
	if op.NumRegs < 3 || op.NumRegs > 6 {
		t.Errorf("NumRegs = %d for depth-3 expression tree", op.NumRegs)
	}
}

// TestFuseJumpTargetGuard builds a program where a fusable pair's
// second instruction is a jump target: fusing it would let the jump
// land mid-group, so the pair must stay unfused — and the jump target
// must still be remapped correctly past earlier fusions.
func TestFuseJumpTargetGuard(t *testing.T) {
	p := &Program{
		Code: []Instr{
			{Op: OpLoad, A: 0},  // 0: cond
			{Op: OpJz, A: 4},    // 1: else-arm
			{Op: OpPush, A: 7},  // 2
			{Op: OpJmp, A: 5},   // 3: join
			{Op: OpPush, A: 9},  // 4
			{Op: OpStore, A: 1}, // 5: join point, depth 1
			{Op: OpHalt},        // 6
		},
		ScalarNames: []string{"c", "out"},
		Lat:         lattice.TwoPoint(),
	}
	if err := link(p); err != nil {
		t.Fatal(err)
	}
	op := p.Opt
	for _, ins := range op.Code {
		if ins.Op == OImmStore {
			t.Fatalf("fused across a jump target:\n%s", op.Disassemble())
		}
	}
	// LOAD;JZ at the top fuses, shifting every index down by one; the
	// JMP and JZ targets must follow.
	if op.Code[0].Op != OLoadJz {
		t.Fatalf("expected LOAD.JZ head:\n%s", op.Disassemble())
	}
	if got := op.Code[0].A; got != 3 {
		t.Errorf("JZ target remap: got %d want 3\n%s", got, op.Disassemble())
	}
	var jmp *OptInstr
	for i := range op.Code {
		if op.Code[i].Op == OJmp {
			jmp = &op.Code[i]
		}
	}
	if jmp == nil || jmp.A != 4 {
		t.Errorf("JMP target remap: %v\n%s", jmp, op.Disassemble())
	}
}

// TestLowerInconsistentDepth: a hand-built program whose join point is
// reached at two different stack depths is rejected.
func TestLowerInconsistentDepth(t *testing.T) {
	p := &Program{
		Code: []Instr{
			{Op: OpLoad, A: 0}, // 0
			{Op: OpJz, A: 3},   // 1: target depth 0...
			{Op: OpPush, A: 1}, // 2: ...fallthrough depth 1
			{Op: OpHalt},       // 3
		},
		ScalarNames: []string{"c"},
		Lat:         lattice.TwoPoint(),
	}
	if _, err := lower(p); err == nil || !strings.Contains(err.Error(), "reached at depths") {
		t.Fatalf("err = %v, want a depth mismatch", err)
	}
}

// TestLowerUnreachable: instructions no path reaches lower to NOP
// placeholders, preserving the 1:1 index map.
func TestLowerUnreachable(t *testing.T) {
	p := &Program{
		Code: []Instr{
			{Op: OpJmp, A: 2},   // 0
			{Op: OpStore, A: 0}, // 1: unreachable (would underflow)
			{Op: OpHalt},        // 2
		},
		ScalarNames: []string{"x"},
		Lat:         lattice.TwoPoint(),
	}
	op, err := lower(p)
	if err != nil {
		t.Fatal(err)
	}
	if op.Code[1].Op != ONop {
		t.Errorf("unreachable instr lowered to %v", op.Code[1].Op)
	}
}

// TestLowerPredecode checks operator kinds, labels, and event names are
// resolved at compile time.
func TestLowerPredecode(t *testing.T) {
	bc := compileSrc(t, `
var h : H;
array a[4] : L;
var i : L;
a[i] := i + 1;
sleep(h) [H,H];
`, lattice.TwoPoint())
	op, err := lower(bc)
	if err != nil {
		t.Fatal(err)
	}
	if len(op.IdxNames) != 1 || len(op.IdxNames[0]) != 4 || op.IdxNames[0][2] != "a[2]" {
		t.Errorf("IdxNames = %v", op.IdxNames)
	}
	var sawBinop, sawHighLabel bool
	for _, ins := range op.Code {
		if ins.Op == OBinop && ins.Kind == token.PLUS {
			sawBinop = true
		}
		if ins.Op == OSetLbl && ins.ER.String() == "H" {
			sawHighLabel = true
		}
	}
	if !sawBinop || !sawHighLabel {
		t.Errorf("predecode missing: binop %v highLabel %v\n%s", sawBinop, sawHighLabel, op.Disassemble())
	}
}
