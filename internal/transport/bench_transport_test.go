package transport

// BenchmarkTransport is the wire transport record: the mitigated echo
// workload through the HTTP service over loopback, measured as
// submit-path req/s for each submission mode (per-request /v1/run,
// 64-item /v1/batch, pipelined /v1/stream). `make bench-transport`
// captures it (with -benchmem, so the allocation profile is on record)
// into BENCH_transport.json, where benchjson reports each mode's
// median, min and max req/s over three runs.
//
// The run mode fans requests across GOMAXPROCS client goroutines; the
// stream mode pipelines everything down one connection, which is the
// point of the streaming endpoint: one connection keeps every shard
// busy with no per-request HTTP round trip.

import (
	"context"
	"io"
	"testing"

	"repro/internal/server"
	"repro/internal/transport/client"
	"repro/internal/transport/wire"
)

func BenchmarkTransport(b *testing.B) {
	const nreq = 64
	reqs := make([]wire.RunRequest, nreq)
	for i := range reqs {
		reqs[i] = wire.RunRequest{Inputs: map[string]int64{"h": int64(i % 64)}}
	}
	ctx := context.Background()

	_, ts := newService(b, server.PoolOptions{Workers: 4, QueueDepth: nreq}, Options{})
	c := client.New(ts.URL, client.Options{Concurrency: 16})

	b.Run("mode=run", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := c.Run(ctx, reqs[i%nreq]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("mode=batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := c.RunBatch(ctx, reqs)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Results) != nreq {
				b.Fatalf("batch returned %d results, want %d", len(resp.Results), nreq)
			}
		}
		b.ReportMetric(float64(b.N)*nreq/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("mode=stream", func(b *testing.B) {
		s, err := c.Stream(ctx)
		if err != nil {
			b.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < b.N; i++ {
				if err := s.Send(reqs[i%nreq]); err != nil {
					errc <- err
					return
				}
			}
			errc <- s.CloseSend()
		}()
		got := 0
		for {
			res, err := s.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if res.Error != nil {
				b.Fatalf("stream item failed: %+v", res.Error)
			}
			got++
		}
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
		if got != b.N {
			b.Fatalf("received %d results for %d sends", got, b.N)
		}
		s.Close()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}
