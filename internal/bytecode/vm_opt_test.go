package bytecode_test

// Differential tests for the linking passes: the fused register form
// must be observationally indistinguishable from the lowered, unfused
// form — same clock, same step count, same event trace, same
// mitigation records, same final memory, and same machine-environment
// state (counters and every label-level projection of the
// cache/predictor state) — and the unfused form must reproduce the
// golden rows recorded from the stack interpreter (golden_test.go) and
// the tree-walking semantics.
//
// The subtests of TestOptDifferentialTestdata and
// TestOptPlainEnvMatchesSites end in timing1 or timing0, names kept
// from when the VM had a second cost model so their IDs stay stable.
// timing1 runs a case once on a fresh environment, as the golden rows
// do; timing0 runs it twice on one environment, through Reset, and
// compares the second run, as a service reuses a VM on a warm
// environment: that run replays the hardware memos the first recorded.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/progen"
	"repro/internal/sem/events"
	"repro/internal/sem/full"
	"repro/internal/types"
)

func compileOpt(t *testing.T, src string, lat lattice.Lattice) *bytecode.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := types.Check(prog, lat)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

// unfused returns a copy of bc carrying the lowered but unfused
// register form, leaving bc itself untouched.
func unfused(t *testing.T, bc *bytecode.Program) *bytecode.Program {
	t.Helper()
	p, err := bytecode.Unfused(bc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// optEnvs builds the machine environments the differential matrix runs
// against, keyed by name; fresh state per call.
func optEnvs(lat lattice.Lattice) map[string]func() hw.Env {
	return map[string]func() hw.Env{
		"flat":          func() hw.Env { return hw.NewFlat(lat, 3) },
		"unpartitioned": func() hw.Env { return hw.NewUnpartitioned(lat, hw.TinyConfig()) },
		"nofill":        func() hw.Env { return hw.NewNoFill(lat, hw.TinyConfig()) },
		"partitioned":   func() hw.Env { return hw.NewPartitioned(lat, hw.TinyConfig()) },
	}
}

type optSnap struct {
	err     error
	clock   uint64
	steps   int
	trace   events.Trace
	mits    events.MitTrace
	scalars []int64
	arrays  [][]int64
	stats   hw.Stats
	env     hw.Env
}

// scalarInput and arrayInput seed every run's inputs deterministically
// from variable order.
func scalarInput(i int) int64         { return int64(i*7%13 + 1) }
func arrayInput(i int, j int64) int64 { return (int64(i) + 3) * j % 17 }

// runSnap executes prog runs times on env, resetting the VM between
// runs, and snapshots everything observable after the last run.
func runSnap(t *testing.T, prog *bytecode.Program, env hw.Env, opts bytecode.VMOptions, maxInstrs, runs int) optSnap {
	t.Helper()
	vm := bytecode.NewVM(prog, env, opts)
	var err error
	for r := 0; r < runs; r++ {
		if r > 0 {
			vm.Reset()
		}
		for i, name := range prog.ScalarNames {
			if err := vm.SetScalar(name, scalarInput(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i, name := range prog.ArrayNames {
			for j := int64(0); j < prog.ArraySizes[i]; j++ {
				if err := vm.SetArrayEl(name, j, arrayInput(i, j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		err = vm.Run(maxInstrs)
	}
	s := optSnap{err: err, env: env}
	s.clock = vm.Clock()
	s.steps = vm.Steps()
	s.trace = append(events.Trace(nil), vm.Trace()...)
	s.mits = append(events.MitTrace(nil), vm.Mitigations()...)
	s.scalars = append([]int64(nil), vm.ScalarStorage()...)
	for i := range prog.ArrayNames {
		s.arrays = append(s.arrays, append([]int64(nil), vm.ArrayStorage(i)...))
	}
	s.stats = env.Stats()
	return s
}

// fullSnap is runSnap on the tree-walking semantics: runs fresh
// machines of src, one after another on env, with the same inputs. Its
// steps count language steps, not instructions.
func fullSnap(t *testing.T, src string, lat lattice.Lattice, env hw.Env, runs int) optSnap {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := types.Check(prog, lat)
	if err != nil {
		t.Fatal(err)
	}
	var m *full.Machine
	for r := 0; r < runs; r++ {
		if m, err = full.New(prog, res, env, full.Options{}); err != nil {
			t.Fatal(err)
		}
		var scalars, arrays int
		for _, d := range prog.Decls {
			if d.IsArray {
				for j := int64(0); j < d.Size; j++ {
					m.Memory().SetEl(d.Name, j, arrayInput(arrays, j))
				}
				arrays++
			} else {
				m.Memory().Set(d.Name, scalarInput(scalars))
				scalars++
			}
		}
		err = m.Run(goldenBudget)
	}
	s := optSnap{err: err, clock: m.Clock(), steps: m.Steps(), env: env, stats: env.Stats()}
	s.trace = append(events.Trace(nil), m.Trace()...)
	s.mits = append(events.MitTrace(nil), m.Mitigations()...)
	for _, d := range prog.Decls {
		if !d.IsArray {
			s.scalars = append(s.scalars, m.Memory().Get(d.Name))
			continue
		}
		a := make([]int64, d.Size)
		for j := range a {
			a[j] = m.Memory().GetEl(d.Name, int64(j))
		}
		s.arrays = append(s.arrays, a)
	}
	return s
}

// diffSnaps reports every observable on which got differs from want.
// Steps compare only when both count instructions.
func diffSnaps(t *testing.T, lat lattice.Lattice, want, got optSnap, steps bool) {
	t.Helper()
	if (want.err == nil) != (got.err == nil) {
		t.Fatalf("error mismatch: want %v, got %v", want.err, got.err)
	}
	if want.clock != got.clock {
		t.Errorf("clock: want %d, got %d", want.clock, got.clock)
	}
	if steps && want.steps != got.steps {
		t.Errorf("steps: want %d, got %d", want.steps, got.steps)
	}
	if !reflect.DeepEqual(want.trace, got.trace) {
		t.Errorf("trace:\nwant: %v\ngot:  %v", want.trace, got.trace)
	}
	if !reflect.DeepEqual(want.mits, got.mits) {
		t.Errorf("mitigations:\nwant: %v\ngot:  %v", want.mits, got.mits)
	}
	if !reflect.DeepEqual(want.scalars, got.scalars) {
		t.Errorf("scalars: want %v, got %v", want.scalars, got.scalars)
	}
	if !reflect.DeepEqual(want.arrays, got.arrays) {
		t.Errorf("arrays: want %v, got %v", want.arrays, got.arrays)
	}
	if want.stats != got.stats {
		t.Errorf("hw stats:\nwant: %+v\ngot:  %+v", want.stats, got.stats)
	}
	for _, lv := range lat.Levels() {
		if !want.env.ProjEqual(got.env, lv) {
			t.Errorf("hw state differs at level %v", lv)
		}
	}
}

// optTestSources covers every opcode and every fusion pattern: constant
// and variable stores (IMM.STORE/LOAD.STORE), array element copies
// (LOADIDX.STORE), while loops with the three compare-and-branch forms,
// unary operators, sleeps, and nested mitigations.
var optTestSources = []struct{ name, src string }{
	{"straightline", `
var x : L;
var y : L;
var z : L;
x := 6;
y := x * 7;
z := y;
z := z + x * 2 - 1;
`},
	{"loops", `
var n : L;
var f : L;
var i : L;
f := 1;
i := 1;
while (i <= n) {
    f := f * i;
    i := i + 1;
}
if (f > 100) { n := 1; } else { n := 0; }
while (!(i == 0)) { i := i - 1; }
`},
	{"arrays", `
array a[8] : L;
array b[8] : L;
var i : L;
var s : L;
while (i < 8) {
    a[i] := i * i;
    b[i] := a[i];
    s := s + a[i];
    i := i + 1;
}
s := b[3];
`},
	{"unops", `
var x : L;
var y : L;
x := 0 - 5;
y := -x;
if (!(y == 5)) { x := 1; } else { x := 2; }
`},
	{"mitigated", `
var h : H;
var l : L;
var i : H;
l := 1;
mitigate (8, H) [L,L] {
    while (i < 3) [H,H] {
        sleep(h + i) [H,H];
        i := i + 1 [H,H];
    }
}
l := 2;
mitigate (4, H) [L,L] { sleep(h * 2) [H,H]; }
l := 3;
`},
	{"highbranches", `
var h : H;
var g : H;
var i : H;
while (i < 4) [H,H] {
    if (h > i) [H,H] { g := g + h [H,H]; } else { g := g - 1 [H,H]; }
    i := i + 1 [H,H];
}
`},
}

// TestOptDifferentialTestdata checks each pass on its own. Subtest o1
// runs the lowered, unfused form against a reference the passes cannot
// affect: the golden row the stack interpreter recorded (timing1) or
// sem/full's second run on the same environment (timing0). Subtest o2
// runs the fused form against the unfused one.
func TestOptDifferentialTestdata(t *testing.T) {
	lat := lattice.TwoPoint()
	golden := loadGolden(t)
	for _, tc := range optTestSources {
		bc := compileOpt(t, tc.src, lat)
		lowered := unfused(t, bc)
		for envName, mkEnv := range optEnvs(lat) {
			for _, runs := range []int{2, 1} {
				name := fmt.Sprintf("%s/%s/timing%d", tc.name, envName, 2-runs)
				t.Run(name+"/o1", func(t *testing.T) {
					got := runSnap(t, lowered, mkEnv(), bytecode.VMOptions{}, goldenBudget, runs)
					if runs == 2 {
						diffSnaps(t, lat, fullSnap(t, tc.src, lat, mkEnv(), runs), got, false)
						return
					}
					key := goldenKey(tc.name, envName)
					if row := goldenRow(key, got); row != golden[key] {
						t.Errorf("lowered form differs from the golden row:\n want %s\n  got %s", golden[key], row)
					}
				})
				t.Run(name+"/o2", func(t *testing.T) {
					base := runSnap(t, lowered, mkEnv(), bytecode.VMOptions{}, goldenBudget, runs)
					diffSnaps(t, lat, base, runSnap(t, bc, mkEnv(), bytecode.VMOptions{}, goldenBudget, runs), true)
				})
			}
		}
	}
}

func TestOptDifferentialProgen(t *testing.T) {
	lat := lattice.TwoPoint()
	envs := optEnvs(lat)
	for seed := int64(1); seed <= 40; seed++ {
		_, _, src, err := progen.GenerateTyped(progen.Config{
			Lat: lat, Seed: seed, AllowMitigate: true, AllowSleep: true,
		}, 50)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bc := compileOpt(t, src, lat)
		envName := []string{"flat", "unpartitioned", "nofill", "partitioned"}[seed%4]
		t.Run(fmt.Sprintf("seed%d/%s", seed, envName), func(t *testing.T) {
			base := runSnap(t, unfused(t, bc), envs[envName](), bytecode.VMOptions{}, 2_000_000, 1)
			diffSnaps(t, lat, base, runSnap(t, bc, envs[envName](), bytecode.VMOptions{}, 2_000_000, 1), true)
		})
	}
}

// TestOptPlainEnvMatchesSites runs every optTestSources program on each
// environment twice over: once as the environment itself, whose site
// memos the VM replays, and once behind a wrapper that hides
// AccessSite, as an Env defined outside package hw is, so the VM
// charges every access through Access. Every observable must agree,
// on a fresh environment (timing1) and on the second run of a warm one
// (timing0), whose memos the first run recorded.
func TestOptPlainEnvMatchesSites(t *testing.T) {
	lat := lattice.TwoPoint()
	type plainEnv struct{ hw.Env }
	for _, tc := range optTestSources {
		bc := compileOpt(t, tc.src, lat)
		for envName, mkEnv := range optEnvs(lat) {
			for _, runs := range []int{2, 1} {
				t.Run(fmt.Sprintf("%s/%s/timing%d", tc.name, envName, 2-runs), func(t *testing.T) {
					plain := runSnap(t, bc, plainEnv{mkEnv()}, bytecode.VMOptions{}, goldenBudget, runs)
					plain.env = plain.env.(plainEnv).Env
					diffSnaps(t, lat, plain, runSnap(t, bc, mkEnv(), bytecode.VMOptions{}, goldenBudget, runs), true)
				})
			}
		}
	}
}

// TestOptZeroAllocPerInstruction pins the VM's loop at zero
// allocations per instruction: per-run allocations (Reset's right-sized
// trace buffer, mitigation bookkeeping) are constant, so a 20×-longer
// run must allocate exactly as much as a short one. Any per-instruction
// or per-access allocation — event name formatting, site memo growth,
// stack regrowth — would scale with the iteration count and fail.
func TestOptZeroAllocPerInstruction(t *testing.T) {
	lat := lattice.TwoPoint()
	bc := compileOpt(t, `
var n : L;
var acc : L;
var i : L;
array a[8] : L;
i := 0;
while (i < n) {
    acc := acc + i * 3;
    a[i] := acc;
    i := i + 1;
}
`, lat)
	allocsAt := func(n int64) float64 {
		env := hw.NewUnpartitioned(lat, hw.TinyConfig())
		vm := bytecode.NewVM(bc, env, bytecode.VMOptions{})
		run := func() {
			vm.Reset()
			if err := vm.SetScalar("n", n); err != nil {
				t.Fatal(err)
			}
			if err := vm.Run(0); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: sizes the trace hint and the site memos
		run()
		return testing.AllocsPerRun(20, run)
	}
	short, long := allocsAt(50), allocsAt(1000)
	if short != long {
		t.Errorf("allocs scale with instruction count: %v at n=50, %v at n=1000", short, long)
	}
	if long > 4 {
		t.Errorf("per-run allocation budget: %v > 4", long)
	}
}

// TestOptResumeAfterBudget checks that the VM's suspended
// state (pc, registers, labels) survives a step-budget stop and resumes
// to the same observable result as an uninterrupted run.
func TestOptResumeAfterBudget(t *testing.T) {
	lat := lattice.TwoPoint()
	bc := compileOpt(t, optTestSources[1].src, lat)
	opts := bytecode.VMOptions{}
	whole := runSnap(t, bc, hw.NewUnpartitioned(lat, hw.TinyConfig()), opts, 100000, 1)

	env := hw.NewUnpartitioned(lat, hw.TinyConfig())
	vm := bytecode.NewVM(bc, env, opts)
	for i, name := range bc.ScalarNames {
		if err := vm.SetScalar(name, scalarInput(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 10000; i++ {
		// MaxSteps is an absolute step count, so grow it a little each
		// slice to stop-and-resume through the whole program.
		if err := vm.Run(7 * i); err == nil {
			if vm.Clock() != whole.clock || vm.Steps() != whole.steps {
				t.Fatalf("resumed run: clock %d steps %d, want %d/%d",
					vm.Clock(), vm.Steps(), whole.clock, whole.steps)
			}
			if !reflect.DeepEqual(append(events.Trace(nil), vm.Trace()...), whole.trace) {
				t.Fatal("resumed trace differs")
			}
			return
		}
	}
	t.Fatal("program did not finish in budget slices")
}
