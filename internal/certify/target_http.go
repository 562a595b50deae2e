package certify

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/client"
	"repro/internal/transport/wire"
)

// HTTPTarget binds certification to the full network stack: the
// workload is served by a real loopback HTTP service (pool, sessions,
// transport handler) and probed through the client SDK, so JSON
// marshaling, admission, and the wire's leakage_bits field are all
// inside the attack surface. The reported bound is what the
// server told the client, not an in-process shortcut. Only workloads
// with wire inputs (Workload.Inputs non-nil) can bind here.
type HTTPTarget struct {
	w        *Workload
	cfg      TargetConfig
	handler  *transport.Handler
	srv      *http.Server
	client   *client.Client
	reported float64
}

// NewHTTPTarget builds the HTTP binding, starting a loopback service.
func NewHTTPTarget(w *Workload, cfg TargetConfig) (*HTTPTarget, error) {
	if w.Inputs == nil {
		return nil, fmt.Errorf("certify: workload %s has no wire inputs; it cannot bind over HTTP", w.Name)
	}
	cfg = cfg.withDefaults()
	pool, mgr, err := newServedPool(w, cfg)
	if err != nil {
		return nil, err
	}
	h, err := transport.New(transport.Options{Pool: pool, Prog: w.Prog, Sessions: mgr})
	if err != nil {
		pool.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return &HTTPTarget{
		w:       w,
		cfg:     cfg,
		handler: h,
		srv:     hs,
		client:  client.New("http://"+ln.Addr().String(), client.Options{Tenant: tenant}),
	}, nil
}

// Name implements Target.
func (t *HTTPTarget) Name() string {
	return fmt.Sprintf("http/%s/%s", t.cfg.label(), t.w.Name)
}

// Secrets implements Target.
func (t *HTTPTarget) Secrets() int { return t.w.N }

// Probe implements Target: one tenant request over the wire. The
// observation is the SIMULATED response time the service reports —
// the deterministic clock certification reasons about — and the
// reported bound is the response's leakage_bits.
func (t *HTTPTarget) Probe(ctx context.Context, secret int) (uint64, error) {
	resp, err := t.client.Run(ctx, wire.RunRequest{Inputs: t.w.Inputs(secret)})
	if err != nil {
		return 0, err
	}
	t.reported = resp.LeakageBits
	return resp.Time, nil
}

// ReportedBits implements Target.
func (t *HTTPTarget) ReportedBits() float64 {
	if !t.cfg.Mitigated {
		return 0
	}
	return t.reported
}

// Close implements Target: drain the handler, stop the listener,
// close the pool.
func (t *HTTPTarget) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := t.handler.Shutdown(ctx)
	if e := t.srv.Shutdown(ctx); err == nil {
		err = e
	}
	return err
}
