// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8), plus ablations of the design choices DESIGN.md calls
// out. Each experiment benchmark reports the paper's headline numbers
// as custom metrics (cycles, overhead ratios) so `go test -bench`
// output doubles as the reproduction record; EXPERIMENTS.md interprets
// them against the paper.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/apps/login"
	"repro/internal/apps/rsa"
	"repro/internal/bytecode"
	"repro/internal/experiments"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/progen"
	"repro/internal/sem/core"
	"repro/internal/sem/full"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/types"
)

// ---------------------------------------------------------------------------
// E1: Table 1 — the machine environment itself

func BenchmarkTable1MachineEnvironment(b *testing.B) {
	lat := lattice.TwoPoint()
	L, H := lat.Bot(), lat.Top()
	for _, mk := range []struct {
		name string
		env  hw.Env
	}{
		{"unpartitioned", hw.NewUnpartitioned(lat, hw.Table1Config())},
		{"nofill", hw.NewNoFill(lat, hw.Table1Config())},
		{"partitioned", hw.NewPartitioned(lat, hw.Table1Config())},
	} {
		b.Run(mk.name, func(b *testing.B) {
			env := mk.env
			var cycles uint64
			for i := 0; i < b.N; i++ {
				lv := L
				if i%3 == 0 {
					lv = H
				}
				cycles += env.Access(hw.Read, uint64(i*8)%(1<<18), lv, lv)
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/access")
		})
	}
}

// ---------------------------------------------------------------------------
// E2: Figure 7 — login time with various secrets

func BenchmarkFigure7LoginTiming(b *testing.B) {
	cfg := experiments.Figure7Config{
		App:         login.Config{TableSize: 40, WorkFactor: 120, WorkTableSize: 512},
		Attempts:    40,
		ValidCounts: []int{10, 20, 40},
	}
	var d *experiments.Figure7Data
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper's claims as metrics: unmitigated valid/invalid separation
	// and mitigated coincidence (0 = coincide).
	um := d.Unmitigated[0]
	validAvg := avg(um.Times[:um.Valid])
	invalidAvg := avg(um.Times[um.Valid:])
	b.ReportMetric(float64(validAvg)/float64(invalidAvg), "unmit-valid/invalid")
	spread := 0.0
	for _, s := range d.Mitigated[1:] {
		for i := range s.Times {
			if s.Times[i] != d.Mitigated[0].Times[i] {
				spread++
			}
		}
	}
	b.ReportMetric(spread, "mitigated-divergent-points")
}

func avg(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s / uint64(len(xs))
}

// ---------------------------------------------------------------------------
// E3: Table 2 — login under nopar/moff/mon

func BenchmarkTable2LoginOptions(b *testing.B) {
	cfg := experiments.Table2Config{
		App:      login.Config{TableSize: 40, WorkFactor: 256, WorkTableSize: 1280},
		NumValid: 20,
		Attempts: 20,
	}
	var d *experiments.Table2Data
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.OverheadValid(experiments.Moff), "moff-overhead")
	b.ReportMetric(d.OverheadValid(experiments.Mon), "mon-overhead")
	b.ReportMetric(float64(d.AvgValid[experiments.Mon])/float64(d.AvgInvalid[experiments.Mon]),
		"mon-valid/invalid")
}

// ---------------------------------------------------------------------------
// E4: Figure 8 — RSA decryption with two keys

func BenchmarkFigure8RSATiming(b *testing.B) {
	cfg := experiments.Figure8Config{
		App:      rsa.Config{MaxBlocks: 4, Modulus: 2147483647},
		Messages: 20,
		Blocks:   3,
	}
	var d *experiments.Figure8Data
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	differ := 0.0
	for i := range d.Unmit1 {
		if d.Unmit1[i] != d.Unmit2[i] {
			differ++
		}
	}
	b.ReportMetric(differ/float64(len(d.Unmit1)), "unmit-key-distinguishable-frac")
	mitEqual := 1.0
	for i := range d.Mit1 {
		if d.Mit1[i] != d.Mit2[i] || d.Mit1[i] != d.Mit1[0] {
			mitEqual = 0
		}
	}
	b.ReportMetric(mitEqual, "mit-constant")
	b.ReportMetric(float64(d.Mit1[0]), "mit-cycles")
	b.ReportMetric(float64(d.Unmit1[0]), "unmit-cycles")
}

// ---------------------------------------------------------------------------
// E5: Figure 9 — language-level vs system-level mitigation

func BenchmarkFigure9MitigationComparison(b *testing.B) {
	cfg := experiments.Figure9Config{
		App:       rsa.Config{MaxBlocks: 8, Modulus: 2147483647},
		MaxBlocks: 8,
	}
	var d *experiments.Figure9Data
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sumLang, sumSys, sumUnmit uint64
	for i := range d.Blocks {
		sumLang += d.LanguageLevel[i]
		sumSys += d.SystemLevel[i]
		sumUnmit += d.Unmitigated[i]
	}
	b.ReportMetric(float64(sumSys)/float64(sumLang), "system/language")
	b.ReportMetric(float64(sumLang)/float64(sumUnmit), "language/unmitigated")
}

// ---------------------------------------------------------------------------
// E6: leakage bounds

func BenchmarkLeakageBounds(b *testing.B) {
	cfg := experiments.LeakageConfig{
		App:    rsa.Config{MaxBlocks: 4, Modulus: 1000003},
		Blocks: 2,
	}
	var d *experiments.LeakageData
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.LeakageBounds(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.UnmitigatedQBits, "unmit-bits")
	b.ReportMetric(d.MitigatedQBits, "mit-bits")
	b.ReportMetric(d.BoundBits, "bound-bits")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4)

// BenchmarkAblationHardware compares the secure designs' cost on the
// same mitigated login workload: no-fill (cheap hardware, slow in high
// contexts) vs partitioned (the paper's design).
func BenchmarkAblationHardware(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := login.Build(login.Config{TableSize: 32, WorkFactor: 96, WorkTableSize: 512}, lat)
	if err != nil {
		b.Fatal(err)
	}
	creds := login.MakeCredentials(16)
	att := login.Attempt{User: creds[3].User, Pass: creds[3].Pass}
	for _, name := range []string{"nofill", "partitioned", "flush"} {
		name := name
		mk := func() hw.Env { return hw.MustEnv(name, lat, hw.Table1Config()) }
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := app.Run(login.RunOptions{Env: mk(), Mitigate: false, Pred1: 1, Pred2: 1},
					creds, att)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Clock
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/login")
		})
	}
}

// BenchmarkAblationSchemes compares the doubling scheme against the
// linear scheme on a workload with occasional slow requests: doubling
// pads more but mispredicts less.
func BenchmarkAblationSchemes(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := rsa.Build(rsa.Config{MaxBlocks: 4, Modulus: 1000003}, rsa.LanguageLevel, lat)
	if err != nil {
		b.Fatal(err)
	}
	msg := rsa.Message(3, 5)
	for _, scheme := range []mitigation.Scheme{
		mitigation.FastDoubling{}, mitigation.Linear{}, mitigation.SlowDoubling{Period: 4},
	} {
		b.Run(scheme.Name(), func(b *testing.B) {
			var cycles, misses uint64
			for i := 0; i < b.N; i++ {
				env := hw.NewPartitioned(lat, hw.Table1Config())
				m, err := full.New(app.Prog, app.Res, env, full.Options{Scheme: scheme})
				if err != nil {
					b.Fatal(err)
				}
				app.Setup(m.Memory(), int64(0x7FFF00FF)+int64(i%7), msg, 256)
				if err := m.Run(10_000_000); err != nil {
					b.Fatal(err)
				}
				cycles += m.Clock()
				for _, r := range m.Mitigations() {
					if r.Mispredicted {
						misses++
					}
				}
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/decrypt")
			b.ReportMetric(float64(misses)/float64(b.N), "mispredictions/decrypt")
		})
	}
}

// BenchmarkAblationPenaltyPolicies compares the per-level (paper),
// global, and per-site penalty policies on nested mitigation.
func BenchmarkAblationPenaltyPolicies(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := rsa.Build(rsa.Config{MaxBlocks: 6, Modulus: 1000003}, rsa.LanguageLevel, lat)
	if err != nil {
		b.Fatal(err)
	}
	msg := rsa.Message(6, 2)
	for _, pol := range []mitigation.Policy{mitigation.PerLevel, mitigation.Global, mitigation.PerSite} {
		b.Run(pol.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				env := hw.NewPartitioned(lat, hw.Table1Config())
				m, err := full.New(app.Prog, app.Res, env, full.Options{Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				app.Setup(m.Memory(), 0x7FFFBEEF, msg, 128)
				if err := m.Run(10_000_000); err != nil {
					b.Fatal(err)
				}
				cycles += m.Clock()
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/decrypt")
		})
	}
}

// BenchmarkAblationServerSchemes runs a warm login server over a
// request sequence per scheme, reporting total time and how many
// distinct response durations (leakage surface) each schedule exposes.
func BenchmarkAblationServerSchemes(b *testing.B) {
	lat := lattice.TwoPoint()
	prog, res := mustProg(b, sleepSrc)
	ctx := context.Background()
	for _, scheme := range []mitigation.Scheme{
		mitigation.FastDoubling{}, mitigation.Linear{}, mitigation.SlowDoubling{Period: 4},
	} {
		b.Run(scheme.Name(), func(b *testing.B) {
			var total uint64
			distinct := 0
			for i := 0; i < b.N; i++ {
				srv, err := server.New(prog, res, server.Options{
					Env:    hw.MustEnv("partitioned", lat, hw.Table1Config()),
					Scheme: scheme,
				})
				if err != nil {
					b.Fatal(err)
				}
				seen := map[uint64]bool{}
				for r := 0; r < 48; r++ {
					resp, err := srv.Handle(ctx, func(m *mem.Memory) { m.Set("h", int64(r*17%300)) })
					if err != nil {
						b.Fatal(err)
					}
					total += resp.Time
					seen[resp.Time] = true
				}
				distinct = len(seen)
			}
			b.ReportMetric(float64(total)/float64(b.N), "cycles/sequence")
			b.ReportMetric(float64(distinct), "distinct-durations")
		})
	}
}

// BenchmarkServerPool is the pool's throughput record: one submitter
// drives 64-request HandleAll bursts through pools of 1, 2, 4 and 8
// shards on both engines, releasing each response as the server does,
// for two workloads. "sleep" is the mitigated sleep(h % 300): the
// mitigator and the simulated hierarchy bound it. "compute" is a tight
// loop of fusable compare-and-branch, immediate arithmetic and array
// traffic with only a token mitigation: instruction dispatch bounds it.
// Each pool is built once and reused across iterations, with a queue
// deep enough for a whole burst, so req/s is steady-state request
// processing, not environment construction or backpressure. Wall-clock
// speedup from shards is bounded by GOMAXPROCS. `make bench-engines`
// records it into BENCH_engines.json.
func BenchmarkServerPool(b *testing.B) {
	lat := lattice.TwoPoint()
	ctx := context.Background()
	const nreq = 64
	for _, w := range []struct {
		name string
		src  string
		set  func(m *mem.Memory, r int64)
	}{
		{"sleep", sleepSrc, func(m *mem.Memory, r int64) { m.Set("h", r*17%300) }},
		{"compute", computeSrc, func(m *mem.Memory, r int64) {
			m.Set("n", 1500)
			m.Set("seed", r%13+1)
			m.Set("h", r*17%100)
		}},
	} {
		prog, res := mustProg(b, w.src)
		reqs := make([]server.Request, nreq)
		for i := range reqs {
			r := int64(i)
			reqs[i] = func(m *mem.Memory) { w.set(m, r) }
		}
		for _, engine := range []string{"tree", "vm"} {
			for _, workers := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("workload=%s/engine=%s/workers=%d", w.name, engine, workers), func(b *testing.B) {
					pool, err := server.NewPool(prog, res, server.PoolOptions{
						Workers:    workers,
						QueueDepth: nreq,
						Options: server.Options{
							Env:    hw.MustEnv("partitioned", lat, hw.Table1Config()),
							Engine: engine,
						},
					})
					if err != nil {
						b.Fatal(err)
					}
					defer pool.Close()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						resps, err := pool.HandleAll(ctx, reqs)
						if err != nil {
							b.Fatal(err)
						}
						for _, r := range resps {
							server.ReleaseResponse(r)
						}
					}
					b.ReportMetric(float64(nreq)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
				})
			}
		}
	}
}

// sleepSrc is the service benchmarks' mitigated workload: a sleep on
// the secret, then a public reply.
const sleepSrc = `
var h : H;
var reply : L;
mitigate (1, H) [L,L] {
    sleep(h % 300) [H,H];
}
reply := 1;
`

// computeSrc is a compute-bound workload with only a token mitigation,
// so it times instruction dispatch rather than the mitigator.
const computeSrc = `
var h : H;
var n : L;
var seed : L;
var acc : L;
var i : L;
var reply : L;
array tab[32] : L;
while (i < n) {
    acc := ((((((((((((((((((((((((((((((((acc * 31 + 7) % 8191) * 3 + 13) % 4093) * 17 + 3) % 2039) * 7 + 11) % 1021) * 23 + 5) % 509) * 13 + 37) % 251) * 11 + 17) % 127) * 9 + 1) % 8191) * 3 + 29) % 4093) * 5 + 7) % 2039) * 7 + 3) % 1021) * 9 + 5) % 509) * 19 + 23) % 8191) * 29 + 31) % 4093) * 37 + 41) % 2039) * 43 + 47) % 1021) + seed;
    i := i + 1;
}
tab[seed % 32] := acc;
acc := acc + tab[(seed + 7) % 32];
mitigate (1, H) [L,L] {
    sleep(h % 8) [H,H];
}
reply := acc;
`

func mustProg(b *testing.B, src string) (*ast.Program, *types.Result) {
	b.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	res, err := types.Check(prog, lattice.TwoPoint())
	if err != nil {
		b.Fatal(err)
	}
	return prog, res
}

// ---------------------------------------------------------------------------
// Infrastructure microbenchmarks

func BenchmarkInterpreterCore(b *testing.B) {
	prog, _, _, err := progen.GenerateTyped(progen.Config{
		Lat: lattice.TwoPoint(), Seed: 5, AllowMitigate: true, AllowSleep: true, MaxDepth: 4,
	}, 50)
	if err != nil {
		b.Fatal(err)
	}
	steps := 0
	for i := 0; i < b.N; i++ {
		k := core.New(prog, mem.New(prog))
		if err := k.Run(1_000_000); err != nil {
			b.Fatal(err)
		}
		steps += k.Steps()
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
}

func BenchmarkInterpreterFull(b *testing.B) {
	lat := lattice.TwoPoint()
	prog, res, _, err := progen.GenerateTyped(progen.Config{
		Lat: lat, Seed: 5, AllowMitigate: true, AllowSleep: true, MaxDepth: 4,
	}, 50)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		env := hw.NewPartitioned(lat, hw.Table1Config())
		m, err := full.New(prog, res, env, full.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImplementations compares the two language implementations —
// the tree-walking full semantics and the compiled bytecode VM — on the
// same program and hardware. Both charge one cost model, so they report
// the same simulated cycles; the host time per run is what differs.
func BenchmarkImplementations(b *testing.B) {
	lat := lattice.TwoPoint()
	prog, res, _, err := progen.GenerateTyped(progen.Config{
		Lat: lat, Seed: 5, AllowMitigate: true, AllowSleep: true, MaxDepth: 4,
	}, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tree-walker", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			env := hw.NewPartitioned(lat, hw.Table1Config())
			m, err := full.New(prog, res, env, full.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(1_000_000); err != nil {
				b.Fatal(err)
			}
			cycles = m.Clock()
		}
		b.ReportMetric(float64(cycles), "simulated-cycles")
	})
	bc, err := bytecode.Compile(prog, res)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bytecode-vm", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			env := hw.NewPartitioned(lat, hw.Table1Config())
			vm := bytecode.NewVM(bc, env, bytecode.VMOptions{})
			if err := vm.Run(10_000_000); err != nil {
				b.Fatal(err)
			}
			cycles = vm.Clock()
		}
		b.ReportMetric(float64(cycles), "simulated-cycles")
	})
}

func BenchmarkTypeChecker(b *testing.B) {
	prog, _, _, err := progen.GenerateTyped(progen.Config{
		Lat: lattice.TwoPoint(), Seed: 9, AllowMitigate: true, MaxDepth: 4,
	}, 50)
	if err != nil {
		b.Fatal(err)
	}
	lat := lattice.TwoPoint()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := types.Check(prog, lat); err != nil {
			b.Fatal(err)
		}
	}
}
