// BenchmarkPoolScaling is the multi-core scalability record for the
// sharded mitigation service: the same login-style workload through
// pools of 1, 2, 4, and 8 shards, for both execution engines, in two
// submission modes. `make bench-scaling` captures it (with -benchmem,
// so allocation regressions are visible) into BENCH_scaling.json, where
// benchjson derives speedup and scaling-efficiency
// (req/s at N workers ÷ N · req/s at 1 worker) per mode and engine.
//
// Wall-clock speedup is bounded by GOMAXPROCS — on a single-core host
// the meaningful result is that adding shards is close to free: the
// per-request pool-crossing cost (queue handoff, metrics, lifecycle)
// must not grow with shard count now that the submit path is
// lock-free and the metrics are striped per shard.
package repro

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
	"repro/internal/server"
)

// scalingWorkers are the shard counts in the scaling matrix.
var scalingWorkers = []int{1, 2, 4, 8}

func BenchmarkPoolScaling(b *testing.B) {
	lat := lattice.TwoPoint()
	prog, res := mustServerProg(b)
	ctx := context.Background()
	const nreq = 64
	reqs := make([]server.Request, nreq)
	for r := 0; r < nreq; r++ {
		s := int64(r*17) % 300
		reqs[r] = func(m *mem.Memory) { m.Set("h", s) }
	}
	newPool := func(b *testing.B, engine string, workers int) *server.Pool {
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
		return pool
	}
	for _, engine := range []string{"tree", "vm"} {
		for _, workers := range scalingWorkers {
			// Batch mode: one submitter drives whole bursts through
			// HandleAll, which submits every request before it waits
			// for the first — shard-side scaling with one uncontended
			// submitter.
			b.Run(fmt.Sprintf("mode=batch/engine=%s/workers=%d", engine, workers),
				func(b *testing.B) {
					pool := newPool(b, engine, workers)
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
			// Submit mode: several concurrent submitters issue
			// independent Submit+Wait round-trips — the contended
			// path, measuring the lock-free submission fast path.
			b.Run(fmt.Sprintf("mode=submit/engine=%s/workers=%d", engine, workers),
				func(b *testing.B) {
					pool := newPool(b, engine, workers)
					defer pool.Close()
					b.ReportAllocs()
					b.SetParallelism(4) // 4·GOMAXPROCS submitter goroutines
					var next atomic.Int64
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						for pb.Next() {
							req := reqs[int(next.Add(1)-1)%nreq]
							resp, err := pool.Handle(ctx, req)
							if err != nil {
								b.Fatal(err)
							}
							server.ReleaseResponse(resp)
						}
					})
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
				})
		}
	}
}
