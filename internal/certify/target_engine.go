package certify

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/leakage"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/sem/mem"
)

// TargetConfig selects one stack configuration to certify. The same
// struct configures all three bindings.
type TargetConfig struct {
	// Engine is the registered engine name ("tree", "vm"); default
	// "tree".
	Engine string
	// Hardware is the registered machine-design name; default
	// "partitioned".
	Hardware string
	// Mitigated runs the program with predictive mitigation; when
	// false the target claims NO §7 bound (ReportedBits = 0) — the
	// paper's guarantee covers mitigated execution only, which is what
	// makes unmitigated configurations the positive control.
	Mitigated bool
}

func (c TargetConfig) withDefaults() TargetConfig {
	if c.Engine == "" {
		c.Engine = "tree"
	}
	if c.Hardware == "" {
		c.Hardware = "partitioned"
	}
	return c
}

// label renders the configuration for target names.
func (c TargetConfig) label() string {
	mit := "unmitigated"
	if c.Mitigated {
		mit = "mitigated"
	}
	return fmt.Sprintf("%s/%s/%s", c.Engine, c.Hardware, mit)
}

// EngineTarget binds certification directly to an exec.Engine: the
// adversary is a local caller sharing the engine's machine
// environment (caches stay warm across probes) and its persistent
// mitigation state (epochs advance), exactly like a serial server.
type EngineTarget struct {
	w    *Workload
	cfg  TargetConfig
	env  hw.Env
	eng  exec.Engine
	mit  *mitigation.State
	cumK int
	cumT uint64
}

// NewEngineTarget builds the direct-engine binding.
func NewEngineTarget(w *Workload, cfg TargetConfig) (*EngineTarget, error) {
	cfg = cfg.withDefaults()
	env, err := hw.NewEnv(cfg.Hardware, w.Lat, w.Config())
	if err != nil {
		return nil, err
	}
	eng, err := exec.NewEngine(cfg.Engine, w.Prog, w.Res, env, exec.Options{
		DisableMitigation: !cfg.Mitigated,
		Limits:            exec.Limits{MaxSteps: w.maxSteps()},
	})
	if err != nil {
		return nil, err
	}
	return &EngineTarget{
		w:   w,
		cfg: cfg,
		env: env,
		eng: eng,
		mit: mitigation.NewState(w.Lat, nil, mitigation.PerLevel),
	}, nil
}

// Name implements Target.
func (t *EngineTarget) Name() string {
	return fmt.Sprintf("engine/%s/%s", t.cfg.label(), t.w.Name)
}

// Secrets implements Target.
func (t *EngineTarget) Secrets() int { return t.w.N }

// Probe implements Target.
func (t *EngineTarget) Probe(ctx context.Context, secret int) (uint64, error) {
	res, err := t.eng.Run(ctx, exec.Request{
		Setup: func(m *mem.Memory) { t.w.Set(secret, m) },
		Mit:   t.mit,
	})
	if err != nil {
		return 0, err
	}
	t.cumK += len(res.Mitigations)
	t.cumT += res.Clock
	return res.Clock, nil
}

// ReportedBits implements Target: the same conservative account the
// session layer keeps — |L↑| = Lat.Size()−1 (everything above bottom),
// K every completed mitigation record, T the cumulative clock.
func (t *EngineTarget) ReportedBits() float64 {
	if !t.cfg.Mitigated {
		return 0
	}
	return leakage.Bound(t.w.Lat.Size()-1, t.cumK, t.cumT)
}

// SharedEnv implements Coresident: a direct engine caller shares the
// victim's hardware, so cache-probing adversaries apply.
func (t *EngineTarget) SharedEnv() hw.Env { return t.env }

// HWConfig implements Coresident.
func (t *EngineTarget) HWConfig() hw.Config { return t.w.Config() }

// Close implements Target.
func (t *EngineTarget) Close() error { return nil }
