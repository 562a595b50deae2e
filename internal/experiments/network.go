package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/client"
	"repro/internal/transport/wire"
	"repro/internal/types"
)

// networkSrc is the wire workload: a mitigated sleep on the secret,
// then a public reply. It is scalars-only because the wire schema
// carries scalar inputs (the login app needs array setup, which stays
// in-process).
const networkSrc = `
var h : H;
var reply : L;
mitigate (1, H) [L,L] {
    sleep(h % 64) [H,H];
}
reply := 1;
`

// NetworkData holds the transport-layer experiment: the mitigated
// workload over loopback HTTP, with wire results checked for identity
// against an in-process pool and host-time latency measured under
// concurrent load.
func init() {
	MustRegister(Experiment{
		Name: "network", Order: 90,
		Summary: "HTTP transport fidelity and loopback latency",
		Run: func(o RunOptions) (*Report, error) {
			cfg := NetworkConfig{}
			if o.Quick {
				cfg = cfg.Quick()
			}
			cfg.Engine = o.Engine
			d, err := Network(cfg)
			if err != nil {
				return nil, err
			}
			return &Report{Text: d.Render(), Data: d}, nil
		},
	})
}

type NetworkData struct {
	Requests    int
	Workers     int
	Concurrency int
	// Engine names the execution engine the pool ran ("tree"/"vm").
	Engine string
	// Identical is true when the HTTP batch results matched the
	// in-process pool bit for bit (simulated time and mispredictions per
	// request) — the transport adds no nondeterminism.
	Identical bool
	// Wall is the host wall-clock time of the concurrent-load phase;
	// ReqPerSec is Requests/Wall.
	Wall      time.Duration
	ReqPerSec float64
	// P50/P99/Max are host-time request latencies over loopback.
	P50, P99, Max time.Duration
	// RunReqPerSec and StreamReqPerSec compare the same load through
	// two transports, each against a fresh service: per-request
	// /v1/run and the pipelined /v1/stream endpoint. StreamSpeedup is
	// StreamReqPerSec over RunReqPerSec — pipelining's gain over one
	// HTTP round trip per request.
	RunReqPerSec    float64
	StreamReqPerSec float64
	StreamSpeedup   float64
	// Export is the service's own metrics as scraped from /v1/metrics
	// after the load phase (JSON form of the Prometheus exposition).
	Export obs.Export
}

// NetworkConfig sizes the experiment.
type NetworkConfig struct {
	Requests    int
	Workers     int
	Concurrency int
	// Engine names the execution engine in the exec registry; default
	// "tree".
	Engine string
}

// Defaults fills zero fields.
func (c NetworkConfig) Defaults() NetworkConfig {
	if c.Requests == 0 {
		c.Requests = 256
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
	if c.Engine == "" {
		c.Engine = "tree"
	}
	return c
}

// Quick returns the reduced-scale network configuration.
func (c NetworkConfig) Quick() NetworkConfig {
	c.Requests = 64
	c.Workers = 2
	c.Concurrency = 4
	return c
}

// networkService starts the HTTP service over networkSrc on loopback
// and returns its base URL plus a shutdown function.
func networkService(cfg NetworkConfig) (string, func() error, error) {
	p, err := parser.Parse(networkSrc)
	if err != nil {
		return "", nil, err
	}
	r, err := types.Check(p, lattice.TwoPoint())
	if err != nil {
		return "", nil, err
	}
	pool, err := server.NewPool(p, r, server.PoolOptions{
		Workers: cfg.Workers,
		Options: server.Options{
			Env:    hw.NewPartitioned(r.Lat, hw.Table1Config()),
			Engine: cfg.Engine,
		},
	})
	if err != nil {
		return "", nil, err
	}
	h, err := transport.New(transport.Options{Pool: pool, Prog: p})
	if err != nil {
		pool.Close()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := h.Shutdown(ctx); err != nil {
			return err
		}
		return hs.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// Network runs the mitigated workload through the HTTP/JSON transport
// over loopback: first a batch identity check against an in-process
// pool, then a concurrent request storm measuring req/s and host-time
// latency percentiles, then a metrics scrape.
func Network(cfg NetworkConfig) (*NetworkData, error) {
	cfg = cfg.Defaults()
	base, stop, err := networkService(cfg)
	if err != nil {
		return nil, err
	}
	defer stop()
	c := client.New(base, client.Options{})
	ctx := context.Background()

	// Phase 1: identity. The same request sequence through the HTTP
	// batch endpoint and through an identically configured in-process
	// pool must agree on every simulated result.
	inputs := make([]int64, cfg.Requests)
	for i := range inputs {
		inputs[i] = int64(i*37+11) % 64
	}
	reqs := make([]wire.RunRequest, cfg.Requests)
	for i, h := range inputs {
		reqs[i] = wire.RunRequest{Inputs: map[string]int64{"h": h}}
	}
	batch, err := c.RunBatch(ctx, reqs)
	if err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	ref, err := networkReference(cfg, inputs)
	if err != nil {
		return nil, err
	}
	data := &NetworkData{
		Requests:    cfg.Requests,
		Workers:     cfg.Workers,
		Concurrency: cfg.Concurrency,
		Engine:      cfg.Engine,
		Identical:   true,
	}
	for i, res := range batch.Results {
		if err := client.Err(res); err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		if res.Response.Time != ref[i].Time ||
			res.Response.Mispredictions != ref[i].Mispredictions {
			data.Identical = false
		}
	}

	// Phase 2: concurrent load. Individual /v1/run requests fanned
	// across Concurrency goroutines; latencies are host time including
	// the loopback round-trip.
	lats := make([]time.Duration, cfg.Requests)
	start := time.Now()
	err = forEachAttemptBounded(cfg.Requests, cfg.Concurrency, func(i int) error {
		t0 := time.Now()
		_, err := c.Run(ctx, reqs[i])
		lats[i] = time.Since(t0)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	data.Wall = time.Since(start)
	if data.Wall > 0 {
		data.ReqPerSec = float64(cfg.Requests) / data.Wall.Seconds()
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	data.P50 = lats[len(lats)/2]
	data.P99 = lats[len(lats)*99/100]
	data.Max = lats[len(lats)-1]

	// Phase 3: the service's own accounting.
	export, err := c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	data.Export = *export

	// Phase 4: transport comparison. The same load two ways, each
	// against a fresh service so neither mode inherits the other's warm
	// state: per-request /v1/run, and pipelined over one /v1/stream.
	if data.RunReqPerSec, err = networkLoad(cfg, false, reqs); err != nil {
		return nil, fmt.Errorf("run load: %w", err)
	}
	if data.StreamReqPerSec, err = networkLoad(cfg, true, reqs); err != nil {
		return nil, fmt.Errorf("stream load: %w", err)
	}
	if data.RunReqPerSec > 0 {
		data.StreamSpeedup = data.StreamReqPerSec / data.RunReqPerSec
	}
	return data, nil
}

// networkLoad measures one transport mode against a fresh service:
// per-request /v1/run fanned across cfg.Concurrency goroutines, or —
// with stream set — every request pipelined down one /v1/stream
// connection.
func networkLoad(cfg NetworkConfig, stream bool, reqs []wire.RunRequest) (float64, error) {
	base, stop, err := networkService(cfg)
	if err != nil {
		return 0, err
	}
	defer stop()
	c := client.New(base, client.Options{Concurrency: cfg.Concurrency})
	ctx := context.Background()

	start := time.Now()
	if stream {
		s, err := c.Stream(ctx)
		if err != nil {
			return 0, err
		}
		defer s.Close()
		errc := make(chan error, 1)
		go func() {
			for _, req := range reqs {
				if err := s.Send(req); err != nil {
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
				return 0, err
			}
			if err := client.Err(*res); err != nil {
				return 0, err
			}
			got++
		}
		if err := <-errc; err != nil {
			return 0, err
		}
		if got != len(reqs) {
			return 0, fmt.Errorf("stream answered %d of %d requests", got, len(reqs))
		}
	} else {
		err := forEachAttemptBounded(len(reqs), cfg.Concurrency, func(i int) error {
			_, err := c.Run(ctx, reqs[i])
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	wall := time.Since(start)
	if wall <= 0 {
		return 0, nil
	}
	return float64(len(reqs)) / wall.Seconds(), nil
}

// networkReference runs the same inputs through an in-process pool
// configured identically to the service's.
func networkReference(cfg NetworkConfig, inputs []int64) ([]*server.Response, error) {
	p, err := parser.Parse(networkSrc)
	if err != nil {
		return nil, err
	}
	r, err := types.Check(p, lattice.TwoPoint())
	if err != nil {
		return nil, err
	}
	pool, err := server.NewPool(p, r, server.PoolOptions{
		Workers: cfg.Workers,
		Options: server.Options{
			Env:    hw.NewPartitioned(r.Lat, hw.Table1Config()),
			Engine: cfg.Engine,
		},
	})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	reqs := make([]server.Request, len(inputs))
	for i, h := range inputs {
		h := h
		reqs[i] = func(m *mem.Memory) { m.Set("h", h) }
	}
	return pool.HandleAll(context.Background(), reqs)
}

// forEachAttemptBounded runs measure(0..n-1) across at most c
// goroutines, returning the first error.
func forEachAttemptBounded(n, c int, measure func(int) error) error {
	sem := make(chan struct{}, c)
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem }()
			errc <- measure(i)
		}(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Render formats the experiment.
func (d *NetworkData) Render() string {
	var b strings.Builder
	b.WriteString("Network transport: mitigation service over loopback HTTP\n")
	fmt.Fprintf(&b, "requests:            %d across %d shards (%s engine), %d client goroutines\n",
		d.Requests, d.Workers, d.Engine, d.Concurrency)
	fmt.Fprintf(&b, "wire identity:       %v (HTTP batch == in-process pool)\n", d.Identical)
	fmt.Fprintf(&b, "load wall-clock:     %v (%.0f req/s over loopback)\n", d.Wall, d.ReqPerSec)
	fmt.Fprintf(&b, "latency (host time): p50=%v p99=%v max=%v\n", d.P50, d.P99, d.Max)
	fmt.Fprintf(&b, "transport compare:   run=%.0f req/s  stream=%.0f req/s  (stream/run %.1fx)\n",
		d.RunReqPerSec, d.StreamReqPerSec, d.StreamSpeedup)
	fmt.Fprintf(&b, "service accounting:  %d requests, %d mitigations, %d padding cycles\n",
		d.Export.Requests, d.Export.Mitigations, d.Export.PaddingCycles)
	return b.String()
}

// CSVHeader implements CSV for the network experiment.
func (d *NetworkData) CSVHeader() []string {
	return []string{"requests", "workers", "concurrency", "engine", "identical",
		"wall_ns", "req_per_sec", "p50_ns", "p99_ns", "max_ns",
		"run_req_per_sec", "stream_req_per_sec", "stream_speedup",
		"served", "mitigations", "padding_cycles"}
}

// CSVRows implements CSV for the network experiment.
func (d *NetworkData) CSVRows() [][]string {
	return [][]string{{
		strconv.Itoa(d.Requests),
		strconv.Itoa(d.Workers),
		strconv.Itoa(d.Concurrency),
		d.Engine,
		strconv.FormatBool(d.Identical),
		strconv.FormatInt(d.Wall.Nanoseconds(), 10),
		strconv.FormatFloat(d.ReqPerSec, 'f', 1, 64),
		strconv.FormatInt(d.P50.Nanoseconds(), 10),
		strconv.FormatInt(d.P99.Nanoseconds(), 10),
		strconv.FormatInt(d.Max.Nanoseconds(), 10),
		strconv.FormatFloat(d.RunReqPerSec, 'f', 1, 64),
		strconv.FormatFloat(d.StreamReqPerSec, 'f', 1, 64),
		strconv.FormatFloat(d.StreamSpeedup, 'f', 2, 64),
		strconv.FormatUint(d.Export.Requests, 10),
		strconv.FormatUint(d.Export.Mitigations, 10),
		strconv.FormatUint(d.Export.PaddingCycles, 10),
	}}
}
