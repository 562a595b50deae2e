package experiments

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/leakage"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/splitmix"
	"repro/internal/transport"
	"repro/internal/transport/client"
	"repro/internal/transport/wire"
	"repro/internal/types"
)

func init() {
	MustRegister(Experiment{
		Name: "sessions", Order: 100,
		Summary: "per-tenant leakage accounts and budget enforcement",
		Run: func(o RunOptions) (*Report, error) {
			cfg := SessionsConfig{Seed: o.Seed}
			if o.Quick {
				cfg = cfg.Quick()
				cfg.Seed = o.Seed
			}
			cfg.Engine = o.Engine
			d, err := Sessions(cfg)
			if err != nil {
				return nil, err
			}
			return &Report{Text: d.Render(), Data: d}, nil
		},
	})
}

// SessionTrace is one tenant's view of its session: the per-request
// epoch and cumulative leakage the service reported, plus what the
// client can recompute on its own.
type SessionTrace struct {
	Tenant string
	// Epochs and LeakageBits are the session fields of each successful
	// response, in submission order.
	Epochs      []int
	LeakageBits []float64
	// Denials counts leakage_budget_exceeded rejections; RetryAfter is
	// the advertised wait of the first one.
	Denials    int
	RetryAfter time.Duration
	// CumTime and CumMitigations are the client-side tallies of the
	// tenant's observable cost — the K and T of the §7 bound, recomputed
	// from the responses rather than trusted from the server.
	CumTime        uint64
	CumMitigations int
}

// SessionsData holds the tenant-sessions experiment.
type SessionsData struct {
	// GreedyRequests and ModestRequests are the two tenants' submission
	// counts. Mitigation makes per-request time nearly secret-independent
	// (that is its job), so the §7 bound is driven by how many mitigated
	// observations a tenant collects — the budget is in effect a request
	// envelope, and the greedy tenant blows through it.
	GreedyRequests int
	ModestRequests int
	Workers        int
	Engine         string
	BudgetBits     float64
	TTL            time.Duration
	Seed           int64
	// Traces holds the greedy tenant (large secret-dependent variation,
	// meant to exhaust the budget) first and the modest tenant second.
	Traces []SessionTrace
	// IndependentEpochs is true when every tenant saw epochs 1,2,3,...
	// over its own successes, regardless of interleaving.
	IndependentEpochs bool
	// BoundMatches is true when the server-reported cumulative leakage
	// of every response equals the §7 bound recomputed client-side from
	// the response stream (same closure, K, T).
	BoundMatches bool
	// GreedyDenied and ModestUnaffected summarize enforcement: the
	// greedy tenant ran into 429s; the modest tenant, on the very same
	// service and budget, never did.
	GreedyDenied     bool
	ModestUnaffected bool
	// Deterministic is true when a second run against a fresh service
	// with the same seed reproduced every trace exactly.
	Deterministic bool
	// Export is the service's metrics after the first run.
	Export obs.Export
}

// SessionsConfig sizes the experiment.
type SessionsConfig struct {
	// GreedyRequests sizes the tenant meant to exhaust the budget;
	// ModestRequests the tenant meant to finish under it.
	GreedyRequests int
	ModestRequests int
	Workers        int
	// BudgetBits is the per-tenant leakage budget; the greedy tenant is
	// sized to exhaust it, the modest one to stay under.
	BudgetBits float64
	// TTL is the session idle lifetime (sets Retry-After on denials).
	TTL time.Duration
	// Engine names the execution engine; default "tree".
	Engine string
	// Seed drives the deterministic secret sequences.
	Seed int64
}

// Defaults fills zero fields.
func (c SessionsConfig) Defaults() SessionsConfig {
	if c.GreedyRequests == 0 {
		c.GreedyRequests = 24
	}
	if c.ModestRequests == 0 {
		c.ModestRequests = 8
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.BudgetBits == 0 {
		c.BudgetBits = 50
	}
	if c.TTL == 0 {
		c.TTL = time.Minute
	}
	if c.Engine == "" {
		c.Engine = "tree"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Quick returns the reduced-scale sessions configuration.
func (c SessionsConfig) Quick() SessionsConfig {
	c.GreedyRequests = 12
	c.ModestRequests = 4
	c.Workers = 2
	c.BudgetBits = 40
	return c
}

// sessionsService starts the HTTP service over networkSrc with a
// session manager attached, returning the base URL, the metrics
// handle, and a shutdown function.
func sessionsService(cfg SessionsConfig) (string, *obs.Metrics, func() error, error) {
	p, err := parser.Parse(networkSrc)
	if err != nil {
		return "", nil, nil, err
	}
	r, err := types.Check(p, lattice.TwoPoint())
	if err != nil {
		return "", nil, nil, err
	}
	met := obs.NewMetrics()
	pool, err := server.NewPool(p, r, server.PoolOptions{
		Workers: cfg.Workers,
		Options: server.Options{
			Env:     hw.NewPartitioned(r.Lat, hw.Table1Config()),
			Engine:  cfg.Engine,
			Metrics: met,
		},
	})
	if err != nil {
		return "", nil, nil, err
	}
	mgr, err := session.NewManager(session.Options{
		Lat:        r.Lat,
		BudgetBits: cfg.BudgetBits,
		TTL:        cfg.TTL,
		Metrics:    met,
	})
	if err != nil {
		pool.Close()
		return "", nil, nil, err
	}
	h, err := transport.New(transport.Options{Pool: pool, Prog: p, Sessions: mgr})
	if err != nil {
		pool.Close()
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return "", nil, nil, err
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
	return "http://" + ln.Addr().String(), met, stop, nil
}

// sessionSecret is tenant t's i-th secret: greedy tenants draw from
// the full 6-bit range (maximum timing variation, fast budget burn),
// modest tenants from a 3-bit range. Deterministic in (seed, t, i).
func sessionSecret(seed int64, greedy bool, i int) int64 {
	h := int64(splitmix.Mix64(uint64(seed), uint64(i+1)) % 64)
	if !greedy {
		h %= 8
	}
	return h
}

// sessionsRun drives both tenants' request sequences against one fresh
// service and returns their traces. A single goroutine alternates
// between the tenants (greedy 0, modest 0, greedy 1, modest 1, …; the
// longer sequence then finishes alone), so the order in which requests
// reach the pool — and with it each request's round-robin shard, the
// cache history it runs on, its simulated time and so its tenant's §7
// bits — is a function of the config and seed.
func sessionsRun(cfg SessionsConfig) ([]SessionTrace, obs.Export, error) {
	base, met, stop, err := sessionsService(cfg)
	if err != nil {
		return nil, obs.Export{}, err
	}
	defer stop()
	ctx := context.Background()

	tenants := []struct {
		name   string
		greedy bool
		count  int
	}{{"greedy", true, cfg.GreedyRequests}, {"modest", false, cfg.ModestRequests}}
	traces := make([]SessionTrace, len(tenants))
	clients := make([]*client.Client, len(tenants))
	for ti, tn := range tenants {
		traces[ti].Tenant = tn.name
		clients[ti] = client.New(base, client.Options{Tenant: tn.name})
	}
	for i := 0; i < max(cfg.GreedyRequests, cfg.ModestRequests); i++ {
		for ti, tn := range tenants {
			if i >= tn.count {
				continue
			}
			tr := &traces[ti]
			resp, err := clients[ti].Run(ctx, wire.RunRequest{
				Inputs:      map[string]int64{"h": sessionSecret(cfg.Seed, tn.greedy, i)},
				Mitigations: true,
			})
			if err != nil {
				var cerr *client.Error
				if errors.Is(err, client.ErrLeakageBudget) && errors.As(err, &cerr) {
					if tr.Denials == 0 {
						tr.RetryAfter = cerr.RetryAfter
					}
					tr.Denials++
					continue
				}
				return nil, obs.Export{}, fmt.Errorf("tenant %s request %d: %w", tn.name, i, err)
			}
			tr.Epochs = append(tr.Epochs, resp.Epoch)
			tr.LeakageBits = append(tr.LeakageBits, resp.LeakageBits)
			tr.CumTime += resp.Time
			tr.CumMitigations += len(resp.Mitigations)
		}
	}
	return traces, met.Snapshot().Export(), nil
}

// Sessions runs two tenants — one sized to exhaust the leakage budget,
// one to stay under it — through the session-enabled HTTP service,
// verifies the reported accounts against the §7 bound recomputed
// client-side, and replays the whole experiment on a fresh service to
// check determinism.
func Sessions(cfg SessionsConfig) (*SessionsData, error) {
	cfg = cfg.Defaults()
	traces, export, err := sessionsRun(cfg)
	if err != nil {
		return nil, err
	}
	data := &SessionsData{
		GreedyRequests: cfg.GreedyRequests,
		ModestRequests: cfg.ModestRequests,
		Workers:        cfg.Workers,
		Engine:         cfg.Engine,
		BudgetBits:     cfg.BudgetBits,
		TTL:            cfg.TTL,
		Seed:           cfg.Seed,
		Traces:         traces,
		Export:         export,
	}

	// Epoch independence: each tenant counts 1,2,3,... over its own
	// successes no matter how the streams interleaved on the service.
	data.IndependentEpochs = true
	for _, tr := range traces {
		for i, e := range tr.Epochs {
			if e != i+1 {
				data.IndependentEpochs = false
			}
		}
	}

	// Bound verification: replay each tenant's response stream and
	// recompute the §7 bound from the client-side K and T tallies; the
	// final reported figure must match. (The per-request figures are
	// checked in the package tests; here the end state suffices, since
	// any intermediate mismatch shifts the final K or T.)
	data.BoundMatches = true
	closure := lattice.TwoPoint().Size() - 1
	for _, tr := range traces {
		if len(tr.LeakageBits) == 0 {
			continue
		}
		want := leakage.Bound(closure, tr.CumMitigations, tr.CumTime)
		got := tr.LeakageBits[len(tr.LeakageBits)-1]
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			data.BoundMatches = false
		}
	}

	data.GreedyDenied = traces[0].Denials > 0
	data.ModestUnaffected = traces[1].Denials == 0

	// Determinism: a fresh service, same seed — every trace must replay
	// exactly (epochs, leakage figures, denial counts).
	replay, _, err := sessionsRun(cfg)
	if err != nil {
		return nil, err
	}
	data.Deterministic = tracesEqual(traces, replay)
	return data, nil
}

// tracesEqual compares two runs' traces field by field.
func tracesEqual(a, b []SessionTrace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Tenant != y.Tenant || x.Denials != y.Denials ||
			x.CumTime != y.CumTime || x.CumMitigations != y.CumMitigations ||
			len(x.Epochs) != len(y.Epochs) {
			return false
		}
		for j := range x.Epochs {
			if x.Epochs[j] != y.Epochs[j] || x.LeakageBits[j] != y.LeakageBits[j] {
				return false
			}
		}
	}
	return true
}

// Render formats the experiment.
func (d *SessionsData) Render() string {
	var b strings.Builder
	b.WriteString("Tenant sessions: per-tenant leakage accounts over HTTP\n")
	fmt.Fprintf(&b, "tenants:             greedy %d requests, modest %d, across %d shards (%s engine)\n",
		d.GreedyRequests, d.ModestRequests, d.Workers, d.Engine)
	fmt.Fprintf(&b, "budget:              %.1f bits per tenant, session TTL %v, seed %d\n",
		d.BudgetBits, d.TTL, d.Seed)
	for _, tr := range d.Traces {
		last := 0.0
		if n := len(tr.LeakageBits); n > 0 {
			last = tr.LeakageBits[n-1]
		}
		fmt.Fprintf(&b, "tenant %-8s       %d served, %d denied; leakage %.2f bits (K=%d, T=%d)\n",
			tr.Tenant+":", len(tr.Epochs), tr.Denials, last, tr.CumMitigations, tr.CumTime)
		fmt.Fprintf(&b, "  leakage curve:     %s\n", spark(tr.LeakageBits))
	}
	if len(d.Traces) > 0 && d.Traces[0].Denials > 0 {
		fmt.Fprintf(&b, "denial retry-after:  %v (the session TTL)\n", d.Traces[0].RetryAfter)
	}
	fmt.Fprintf(&b, "independent epochs:  %v\n", d.IndependentEpochs)
	fmt.Fprintf(&b, "bound verified:      %v (client-side §7 recomputation)\n", d.BoundMatches)
	fmt.Fprintf(&b, "enforcement:         greedy denied=%v, modest unaffected=%v\n",
		d.GreedyDenied, d.ModestUnaffected)
	fmt.Fprintf(&b, "deterministic:       %v (fresh service, same seed)\n", d.Deterministic)
	fmt.Fprintf(&b, "service accounting:  %d sessions created, %d budget denials\n",
		d.Export.SessionsCreated, d.Export.BudgetDenials)
	return b.String()
}

// spark renders a value sequence as a one-line sparkline — enough to
// see the log-shaped growth of the cumulative bound.
func spark(vs []float64) string {
	if len(vs) == 0 {
		return "(no successes)"
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	max := vs[0]
	for _, v := range vs {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return strings.Repeat("▁", len(vs))
	}
	var b strings.Builder
	for _, v := range vs {
		b.WriteRune(ramp[int(v/max*float64(len(ramp)-1))])
	}
	return b.String()
}

// CSVHeader implements CSV for the sessions experiment.
func (d *SessionsData) CSVHeader() []string {
	return []string{"tenant", "served", "denied", "leakage_bits", "k", "t",
		"budget_bits", "independent_epochs", "bound_matches", "deterministic"}
}

// CSVRows implements CSV for the sessions experiment.
func (d *SessionsData) CSVRows() [][]string {
	rows := make([][]string, 0, len(d.Traces))
	for _, tr := range d.Traces {
		last := 0.0
		if n := len(tr.LeakageBits); n > 0 {
			last = tr.LeakageBits[n-1]
		}
		rows = append(rows, []string{
			tr.Tenant,
			strconv.Itoa(len(tr.Epochs)),
			strconv.Itoa(tr.Denials),
			strconv.FormatFloat(last, 'f', 4, 64),
			strconv.Itoa(tr.CumMitigations),
			strconv.FormatUint(tr.CumTime, 10),
			strconv.FormatFloat(d.BudgetBits, 'f', 1, 64),
			strconv.FormatBool(d.IndependentEpochs),
			strconv.FormatBool(d.BoundMatches),
			strconv.FormatBool(d.Deterministic),
		})
	}
	return rows
}
