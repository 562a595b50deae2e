// BenchmarkVMOpt is the VM throughput record: a compute-bound workload
// through vm-engine pools across worker counts. `make bench-vmopt`
// captures it (with -benchmem, so the VM loop's zero-allocation
// property is visible) into BENCH_vmopt.json, where benchjson derives
// the mean req/s per worker count.
//
// The workload is deliberately compute-heavy — a tight loop of
// fusable compare-and-branch, immediate arithmetic, and array traffic,
// with only a token mitigation — because it measures instruction
// dispatch: a mitigation-dominated program (like the scaling
// benchmark's) measures the mitigator, not the VM.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/types"
)

func mustComputeProg(b *testing.B) (*ast.Program, *types.Result) {
	b.Helper()
	src := `
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

func BenchmarkVMOpt(b *testing.B) {
	lat := lattice.TwoPoint()
	prog, res := mustComputeProg(b)
	ctx := context.Background()
	const nreq = 64
	reqs := make([]server.Request, nreq)
	for r := 0; r < nreq; r++ {
		s := int64(r)
		reqs[r] = func(m *mem.Memory) {
			m.Set("n", 1500)
			m.Set("seed", s%13+1)
			m.Set("h", s*17%100)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool, err := server.NewPool(prog, res, server.PoolOptions{
				Workers:    workers,
				QueueDepth: nreq,
				Options: server.Options{
					Env:    hw.MustEnv("partitioned", lat, hw.Table1Config()),
					Engine: "vm",
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
