package exec

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec/budget"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/progen"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// Differential tests: the "vm" engine must be observationally identical
// to the "tree" engine — same event traces (values AND times), same
// mitigation records, same final memory — on every corpus program. This
// is the acceptance bar for putting the VM on the service hot path: any
// divergence would change the leakage analysis, not just performance.

type checkedProg struct {
	name string
	prog *ast.Program
	res  *types.Result
	lat  lattice.Lattice
}

// loadTestdata parses and checks every testdata program, trying each
// built-in lattice until one accepts it.
func loadTestdata(t *testing.T) []checkedProg {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.tc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	lats := []lattice.Lattice{lattice.TwoPoint(), lattice.ThreePoint(), lattice.Diamond()}
	var out []checkedProg
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var added bool
		for _, lat := range lats {
			res, err := types.Check(prog, lat)
			if err != nil {
				continue
			}
			out = append(out, checkedProg{name: filepath.Base(f), prog: prog, res: res, lat: lat})
			added = true
			break
		}
		if !added {
			// Deliberately ill-typed corpus entries (e.g. insecure.tc)
			// have no dynamic semantics to difference.
			t.Logf("%s: does not type-check under any built-in lattice; skipped", f)
		}
	}
	if len(out) == 0 {
		t.Fatal("no checkable testdata programs")
	}
	return out
}

// randomSetup writes seeded random values to every declared variable,
// so engines are differenced on many input points, not just zeros.
func randomSetup(prog *ast.Program, seed int64) func(*mem.Memory) {
	return func(m *mem.Memory) {
		r := rand.New(rand.NewSource(seed))
		for _, d := range prog.Decls {
			if d.IsArray {
				for i := int64(0); i < d.Size; i++ {
					m.SetEl(d.Name, i, r.Int63n(1024))
				}
			} else {
				m.Set(d.Name, r.Int63n(1024))
			}
		}
	}
}

// runEngine runs one request on a freshly constructed engine over a
// fresh environment, so both sides of a difference start from an
// identical machine state.
func runEngine(t *testing.T, engine, hwName string, p checkedProg, opts Options, setup func(*mem.Memory)) *Result {
	t.Helper()
	env := hw.MustEnv(hwName, p.lat, hw.Table1Config())
	eng, err := NewEngine(engine, p.prog, p.res, env, opts)
	if err != nil {
		t.Fatalf("%s: NewEngine(%s): %v", p.name, engine, err)
	}
	r, err := eng.Run(context.Background(), Request{Setup: setup, KeepMemory: true})
	if err != nil {
		t.Fatalf("%s: %s run: %v", p.name, engine, err)
	}
	return r
}

func assertSameResult(t *testing.T, name string, tree, vm *Result) {
	t.Helper()
	if !tree.Trace.Equal(vm.Trace) {
		t.Errorf("%s: traces differ\ntree: %v\nvm:   %v", name, tree.Trace, vm.Trace)
	}
	if tree.Clock != vm.Clock {
		t.Errorf("%s: clocks differ: tree %d, vm %d", name, tree.Clock, vm.Clock)
	}
	if !reflect.DeepEqual(tree.Mitigations, vm.Mitigations) {
		t.Errorf("%s: mitigation records differ\ntree: %v\nvm:   %v",
			name, tree.Mitigations, vm.Mitigations)
	}
	if !tree.Memory.Equal(vm.Memory) {
		t.Errorf("%s: final memories differ", name)
	}
}

func TestEnginesDifferentialTestdata(t *testing.T) {
	hwNames := []string{"partitioned", "nopar", "flat"}
	for _, p := range loadTestdata(t) {
		for _, hwName := range hwNames {
			for seed := int64(0); seed < 3; seed++ {
				setup := randomSetup(p.prog, seed)
				tree := runEngine(t, "tree", hwName, p, Options{}, setup)
				vm := runEngine(t, "vm", hwName, p, Options{}, setup)
				assertSameResult(t, p.name+"/"+hwName+"/vm", tree, vm)
			}
		}
	}
}

func TestEnginesDifferentialProgen(t *testing.T) {
	const n = 100
	hwNames := []string{"partitioned", "nopar", "flat"}
	for i := 0; i < n; i++ {
		cfg := progen.Config{
			Lat:           lattice.TwoPoint(),
			Seed:          int64(i),
			AllowMitigate: i%2 == 0,
			AllowSleep:    i%3 != 0,
		}
		prog, res, src, err := progen.GenerateTyped(cfg, 50)
		if err != nil {
			t.Fatalf("progen seed %d: %v", i, err)
		}
		p := checkedProg{name: "progen-" + string(rune('0'+i%10)), prog: prog, res: res, lat: cfg.Lat}
		setup := randomSetup(prog, int64(i))
		for _, hwName := range hwNames {
			tree := runEngine(t, "tree", hwName, p, Options{}, setup)
			vm := runEngine(t, "vm", hwName, p, Options{}, setup)
			assertSameResult(t, p.name+"/"+hwName+"/vm", tree, vm)
			if t.Failed() {
				t.Fatalf("progen seed %d diverged on %s; source:\n%s", i, hwName, src)
			}
		}
	}
}

// TestEnginesLeakageBoundEquality checks that both engines induce the
// same leakage partition: running the mitigated server program over a
// range of secrets, every secret produces the same trace under both
// engines, hence the same number of distinct observations (the
// measured channel capacity).
func TestEnginesLeakageBoundEquality(t *testing.T) {
	const src = `
var h: H;
var reply: L;
mitigate (1, H) [L, L] {
    sleep(h % 300) [H, H];
}
reply := 1;
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lat := lattice.TwoPoint()
	res, err := types.Check(prog, lat)
	if err != nil {
		t.Fatal(err)
	}
	p := checkedProg{name: "leakage", prog: prog, res: res, lat: lat}
	distinctTree := map[string]bool{}
	distinctVM := map[string]bool{}
	for secret := int64(0); secret < 64; secret++ {
		setup := func(m *mem.Memory) { m.Set("h", secret) }
		tree := runEngine(t, "tree", "partitioned", p, Options{}, setup)
		vm := runEngine(t, "vm", "partitioned", p, Options{}, setup)
		assertSameResult(t, p.name, tree, vm)
		distinctTree[tree.Trace.Key()] = true
		distinctVM[vm.Trace.Key()] = true
	}
	if len(distinctTree) != len(distinctVM) {
		t.Errorf("leakage bounds differ: tree %d distinct traces, vm %d",
			len(distinctTree), len(distinctVM))
	}
}

// TestEngineBudgetErrorParity checks that both engines report budget
// exhaustion and cancellation with the same shared sentinels.
func TestEngineBudgetErrorParity(t *testing.T) {
	const src = `
var x: L;
x := 0;
while (x < 1000000) [L, L] {
    x := x + 1;
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lat := lattice.TwoPoint()
	res, err := types.Check(prog, lat)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"tree", "vm"} {
		// Step budget.
		env := hw.MustEnv("flat", lat, hw.TinyConfig())
		eng, err := NewEngine(engine, prog, res, env, Options{Limits: Limits{MaxSteps: 50}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background(), Request{}); !errors.Is(err, budget.ErrStepLimit) {
			t.Errorf("%s: step budget: got %v, want ErrStepLimit", engine, err)
		}

		// Cycle budget.
		env = hw.MustEnv("flat", lat, hw.TinyConfig())
		eng, err = NewEngine(engine, prog, res, env, Options{Limits: Limits{MaxCycles: 100}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background(), Request{}); !errors.Is(err, budget.ErrCycleLimit) {
			t.Errorf("%s: cycle budget: got %v, want ErrCycleLimit", engine, err)
		}

		// Cancellation.
		env = hw.MustEnv("flat", lat, hw.TinyConfig())
		eng, err = NewEngine(engine, prog, res, env, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.Run(ctx, Request{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancellation: got %v, want context.Canceled", engine, err)
		}
	}
}

// TestVMRegisterLimit: an expression nested deeper than the VM's 256
// registers cannot be linked, so constructing the vm engine fails with
// the register error, while the tree engine still runs the program.
func TestVMRegisterLimit(t *testing.T) {
	const depth = 300
	src := "var x: L;\nx := " + strings.Repeat("1 + (", depth) + "1" + strings.Repeat(")", depth) + ";\n"
	prog, res := mustCheck(t, src)
	lat := lattice.TwoPoint()
	_, err := NewEngine("vm", prog, res, hw.MustEnv("flat", lat, hw.TinyConfig()), Options{})
	if err == nil || !strings.Contains(err.Error(), "expression needs 301 evaluation-stack slots, more than the VM's 256 registers") {
		t.Fatalf("vm engine: err = %v, want the register-limit error", err)
	}
	tree, err := NewEngine("tree", prog, res, hw.MustEnv("flat", lat, hw.TinyConfig()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := tree.Run(context.Background(), Request{KeepMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Memory.Get("x"); got != depth+1 {
		t.Errorf("tree engine: x = %d, want %d", got, depth+1)
	}
}

func TestEngineRegistry(t *testing.T) {
	names := EngineNames()
	want := map[string]bool{"tree": false, "vm": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("EngineNames() missing %q: %v", n, names)
		}
	}
	prog, err := parser.Parse("var x: L;\nx := 1;\n")
	if err != nil {
		t.Fatal(err)
	}
	lat := lattice.TwoPoint()
	res, err := types.Check(prog, lat)
	if err != nil {
		t.Fatal(err)
	}
	env := hw.MustEnv("flat", lat, hw.TinyConfig())
	if _, err := NewEngine("bogus", prog, res, env, Options{}); err == nil {
		t.Error("NewEngine(bogus) succeeded, want error")
	}
	eng, err := NewEngine("", prog, res, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "tree" {
		t.Errorf("empty engine name resolved to %q, want tree", eng.Name())
	}
}
