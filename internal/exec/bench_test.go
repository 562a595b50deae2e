package exec

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps/login"
	"repro/internal/apps/rsa"
	"repro/internal/bytecode"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/sem/events"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// BenchmarkEngine* compare the tree-walking engine against the VM
// engine (compiled once when it is built, machine reused) on the
// paper's two case-study applications. The simulated cycle counts are
// identical by construction (differential tests); what differs is host
// time per request — the service hot path.

func benchEngine(b *testing.B, engine string, prog *ast.Program, res *types.Result,
	lat lattice.Lattice, setup func(*mem.Memory)) {
	b.Helper()
	env := hw.MustEnv("partitioned", lat, hw.Table1Config())
	eng, err := NewEngine(engine, prog, res, env, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, Request{Setup: setup}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e6, "us/req")
}

func BenchmarkEngineLogin(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := login.Build(login.Config{TableSize: 32, WorkFactor: 96, WorkTableSize: 512}, lat)
	if err != nil {
		b.Fatal(err)
	}
	creds := login.MakeCredentials(16)
	att := login.Attempt{User: creds[3].User, Pass: creds[3].Pass}
	setup := func(m *mem.Memory) { app.Setup(m, creds, att, 1, 1) }
	for _, engine := range []string{"tree", "vm"} {
		b.Run(engine, func(b *testing.B) {
			benchEngine(b, engine, app.Prog, app.Res, lat, setup)
		})
	}
	for _, valid := range []bool{true, false} {
		name := "login.tc/invalid"
		if valid {
			name = "login.tc/valid"
		}
		b.Run(name, func(b *testing.B) { benchLoginTC(b, valid) })
	}
}

// benchLoginTC serves testdata/login.tc as the repository benchmark's
// login-stream workload does: the vm engine on partitioned Table 1
// hardware and one persistent mitigation state, both kept warm across
// requests, and each run's trace and mitigation records recycled as the
// server recycles them. The inputs are drawn like that workload's: pass
// in {0, 1}, pred1 in [1, 2000] and pred2 in [1, 20000]; a valid
// attempt names user 0 with 1-100 valid users (slot 0 matches, then
// the 640-round verification runs), an invalid one a user in
// [1, 2^20] with 0-100 valid users (the full scan).
func benchLoginTC(b *testing.B, valid bool) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "login.tc"))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	lat := lattice.TwoPoint()
	res, err := types.Check(prog, lat)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine("vm", prog, res, hw.MustEnv("partitioned", lat, hw.Table1Config()), Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	setups := make([]func(*mem.Memory), 256)
	for i := range setups {
		user, nvalid := int64(1+rng.Intn(1<<20)), int64(rng.Intn(101))
		if valid {
			user, nvalid = 0, int64(1+rng.Intn(100))
		}
		in := map[string]int64{
			"pass": int64(rng.Intn(2)), "pred1": int64(1 + rng.Intn(2000)), "pred2": int64(1 + rng.Intn(20000)),
			"user": user, "nvalid": nvalid,
		}
		setups[i] = func(m *mem.Memory) {
			for name, v := range in {
				m.Set(name, v)
			}
		}
	}
	mit := mitigation.NewState(lat, nil, mitigation.PerLevel)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := eng.Run(ctx, Request{Setup: setups[i%len(setups)], Mit: mit})
		if err != nil {
			b.Fatal(err)
		}
		events.Recycle(r.Trace, r.Mitigations)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e6, "us/req")
}

func BenchmarkEngineRSA(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := rsa.Build(rsa.Config{MaxBlocks: 4, Modulus: 1000003}, rsa.LanguageLevel, lat)
	if err != nil {
		b.Fatal(err)
	}
	msg := rsa.Message(3, 5)
	setup := func(m *mem.Memory) { app.Setup(m, 0x7FFF00FF, msg, 256) }
	for _, engine := range []string{"tree", "vm"} {
		b.Run(engine, func(b *testing.B) {
			benchEngine(b, engine, app.Prog, app.Res, lat, setup)
		})
	}
}

// BenchmarkEngineVMColdCompile measures one shard's compile at
// start-up, with a fresh VM and one run, per iteration, against the
// login workload. Compare with BenchmarkEngineLogin/vm to see what
// building an engine adds to a run.
func BenchmarkEngineVMColdCompile(b *testing.B) {
	lat := lattice.TwoPoint()
	app, err := login.Build(login.Config{TableSize: 32, WorkFactor: 96, WorkTableSize: 512}, lat)
	if err != nil {
		b.Fatal(err)
	}
	creds := login.MakeCredentials(16)
	att := login.Attempt{User: creds[3].User, Pass: creds[3].Pass}
	env := hw.MustEnv("partitioned", lat, hw.Table1Config())
	m := mem.New(app.Prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := bytecode.Compile(app.Prog, app.Res)
		if err != nil {
			b.Fatal(err)
		}
		vm := bytecode.NewVM(bc, env, bytecode.VMOptions{})
		m.Zero()
		app.Setup(m, creds, att, 1, 1)
		vm.LoadFrom(m)
		if err := vm.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
