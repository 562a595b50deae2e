package bytecode_test

import (
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/events"
	"repro/internal/sem/full"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// FuzzOptTraceIdentity is the differential fuzz target for the VM's
// timing contract: for ANY program the type system accepts, on every
// machine environment, the VM must agree with its references on the
// simulated clock, the event trace, the mitigation records, the final
// memory, the hardware counters and every level's projection of the
// hardware state. The bool selects the reference: false runs the
// tree-walking semantics (sem/full), true the lowered but unfused
// register form, against which the step counts must agree too. The
// checked-in corpus (testdata/fuzz, regenerated by genfuzzcorpus) seeds
// it with the example programs; the fuzzer mutates from there.
func FuzzOptTraceIdentity(f *testing.F) {
	f.Add("var x : L;\nx := 1;\n", byte(0), false, byte(0))
	f.Add(`
var n : L;
var i : L;
array a[4] : L;
while (i < n) {
    a[i] := i + 2;
    i := i + 1;
}
`, byte(1), true, byte(3))
	f.Add(`
var h : H;
var l : L;
mitigate (2, H) [L,L] { sleep(h % 9) [H,H]; }
l := 1;
`, byte(2), false, byte(7))

	lat := lattice.TwoPoint()
	f.Fuzz(func(t *testing.T, src string, hwSel byte, unfusedRef bool, inputSeed byte) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		res, err := types.Check(prog, lat)
		if err != nil {
			return
		}
		bc, err := bytecode.Compile(prog, res)
		if err != nil {
			// Only an expression deeper than the register file fails
			// to link, and the type checker accepts those.
			return
		}

		mkEnv := func() hw.Env {
			switch hwSel % 4 {
			case 0:
				return hw.NewFlat(lat, 3)
			case 1:
				return hw.NewUnpartitioned(lat, hw.TinyConfig())
			case 2:
				return hw.NewNoFill(lat, hw.TinyConfig())
			default:
				return hw.NewPartitioned(lat, hw.TinyConfig())
			}
		}
		input := func(i int) int64 { return int64(i) + int64(inputSeed)%11 }

		type outcome struct {
			err   error
			clock uint64
			steps int
			trace events.Trace
			mits  events.MitTrace
			mem   *mem.Memory
			stats hw.Stats
			env   hw.Env
		}
		runVM := func(p *bytecode.Program) outcome {
			env := mkEnv()
			vm := bytecode.NewVM(p, env, bytecode.VMOptions{})
			for i, name := range p.ScalarNames {
				if err := vm.SetScalar(name, input(i)); err != nil {
					t.Fatal(err)
				}
			}
			o := outcome{err: vm.Run(100000), env: env, mem: mem.New(prog)}
			o.clock, o.steps = vm.Clock(), vm.Steps()
			o.trace = append(events.Trace(nil), vm.Trace()...)
			o.mits = append(events.MitTrace(nil), vm.Mitigations()...)
			vm.StoreTo(o.mem)
			o.stats = env.Stats()
			return o
		}

		var ref, got outcome
		if unfusedRef {
			lowered, err := bytecode.Unfused(bc)
			if err != nil {
				t.Fatalf("lowering a linked program: %v", err)
			}
			ref = runVM(lowered)
			got = runVM(bc)
			if (ref.err == nil) != (got.err == nil) {
				t.Fatalf("error mismatch: unfused %v, fused %v", ref.err, got.err)
			}
		} else {
			got = runVM(bc)
			if got.err != nil {
				// A step budget counts instructions here and language
				// steps in sem/full, so over-budget runs do not compare.
				return
			}
			env := mkEnv()
			m, err := full.New(prog, res, env, full.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range bc.ScalarNames {
				m.Memory().Set(name, input(i))
			}
			// Every VM instruction budget bounds sem/full's steps too:
			// each language step runs at least one instruction.
			ref = outcome{err: m.Run(100000), env: env, mem: m.Memory()}
			if ref.err != nil {
				t.Fatalf("sem/full failed where the VM finished: %v", ref.err)
			}
			ref.clock, ref.trace = m.Clock(), m.Trace()
			ref.mits = append(events.MitTrace(nil), m.Mitigations()...)
			ref.stats = env.Stats()
		}
		if ref.err != nil {
			// A budget stop may land mid-group in the fused form, so
			// exact intermediate state is only compared on clean runs.
			return
		}
		if unfusedRef && ref.steps != got.steps {
			t.Fatalf("steps: unfused %d, fused %d", ref.steps, got.steps)
		}
		if ref.clock != got.clock {
			t.Fatalf("clock: reference %d, vm %d", ref.clock, got.clock)
		}
		if !ref.trace.Equal(got.trace) {
			t.Fatalf("traces differ:\nreference: %v\nvm:        %v", ref.trace, got.trace)
		}
		if !reflect.DeepEqual(ref.mits, got.mits) {
			t.Fatalf("mitigation records differ:\nreference: %v\nvm:        %v", ref.mits, got.mits)
		}
		if !ref.mem.Equal(got.mem) {
			t.Fatalf("memory differs")
		}
		if ref.stats != got.stats {
			t.Fatalf("hw stats differ:\nreference: %+v\nvm:        %+v", ref.stats, got.stats)
		}
		for _, lv := range lat.Levels() {
			if !ref.env.ProjEqual(got.env, lv) {
				t.Fatalf("hw state differs at level %v", lv)
			}
		}
	})
}
