package certify

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/session"
)

// PoolTarget binds certification to a server.Pool fronted by the
// per-tenant session manager: every probe is one tenant request —
// Begin (admission), HandleWith against the tenant's persistent
// mitigation state, Commit (leakage accounting) — so queueing and the
// session layer's bookkeeping are inside the attack surface, and the
// reported bound is exactly the session's `leakage_bits`.
type PoolTarget struct {
	w        *Workload
	cfg      TargetConfig
	pool     *server.Pool
	mgr      *session.Manager
	reported float64
}

// tenant is the one tenant the pool and HTTP bindings probe as.
const tenant = "adversary"

// NewPoolTarget builds the pool+sessions binding.
func NewPoolTarget(w *Workload, cfg TargetConfig) (*PoolTarget, error) {
	cfg = cfg.withDefaults()
	pool, mgr, err := newServedPool(w, cfg)
	if err != nil {
		return nil, err
	}
	return &PoolTarget{w: w, cfg: cfg, pool: pool, mgr: mgr}, nil
}

// newServedPool builds what the pool and HTTP bindings serve from: a
// one-worker pool on the workload's hardware, and a session manager.
// One worker because a certification target is one adversary probing
// serially, and a single shard keeps the warm-cache sequence
// deterministic.
func newServedPool(w *Workload, cfg TargetConfig) (*server.Pool, *session.Manager, error) {
	env, err := hw.NewEnv(cfg.Hardware, w.Lat, w.Config())
	if err != nil {
		return nil, nil, err
	}
	pool, err := server.NewPool(w.Prog, w.Res, server.PoolOptions{
		Workers: 1,
		Options: server.Options{
			Env:               env,
			Engine:            cfg.Engine,
			DisableMitigation: !cfg.Mitigated,
			Limits:            exec.Limits{MaxSteps: w.maxSteps()},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	mgr, err := session.NewManager(session.Options{Lat: w.Lat})
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	return pool, mgr, nil
}

// Name implements Target.
func (t *PoolTarget) Name() string {
	return fmt.Sprintf("pool/%s/%s", t.cfg.label(), t.w.Name)
}

// Secrets implements Target.
func (t *PoolTarget) Secrets() int { return t.w.N }

// Probe implements Target.
func (t *PoolTarget) Probe(ctx context.Context, secret int) (uint64, error) {
	tk, err := t.mgr.Begin(tenant)
	if err != nil {
		return 0, err
	}
	resp, err := t.pool.HandleWith(ctx, func(m *mem.Memory) { t.w.Set(secret, m) }, tk.Mit())
	if err != nil {
		tk.Abort()
		return 0, err
	}
	info := tk.Commit(resp.Time, len(resp.Mitigations))
	t.reported = info.SpentBits
	tm := resp.Time
	server.ReleaseResponse(resp)
	return tm, nil
}

// ReportedBits implements Target: the session layer's own account.
func (t *PoolTarget) ReportedBits() float64 {
	if !t.cfg.Mitigated {
		return 0
	}
	return t.reported
}

// Close implements Target.
func (t *PoolTarget) Close() error {
	t.pool.Close()
	return nil
}
