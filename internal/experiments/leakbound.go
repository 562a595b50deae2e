package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/rsa"
	"repro/internal/lattice"
	"repro/internal/leakage"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
)

// LeakageData holds the E6 experiment: measured leakage of the
// mitigated and unmitigated RSA decryption versus the §7 analytic
// bound, over a family of secret keys.
type LeakageData struct {
	Keys                int
	UnmitigatedQBits    float64
	MitigatedQBits      float64
	MitigatedVBits      float64
	BoundBits           float64
	MaxClock            uint64
	RelevantMitigations int
}

// LeakageConfig sizes the experiment.
type LeakageConfig struct {
	App    rsa.Config
	Blocks int
	Keys   []int64
}

// Defaults fills zero fields with the paper-scale values.
func (c LeakageConfig) Defaults() LeakageConfig {
	if c.App.MaxBlocks == 0 {
		c.App = rsa.DefaultConfig()
	}
	if c.Blocks == 0 {
		c.Blocks = 3
	}
	if len(c.Keys) == 0 {
		// A spread of 48-bit keys with varying density.
		base := int64(0x800000000001)
		for i := 0; i < 16; i++ {
			c.Keys = append(c.Keys, base|int64(i)<<24|int64(i*i)<<8)
		}
	}
	return c
}

// LeakageBounds measures the RSA case study's leakage to a public
// adversary with and without mitigation and compares it against the
// analytic bound (Theorem 2 + §7).
func LeakageBounds(cfg LeakageConfig) (*LeakageData, error) {
	cfg = cfg.Defaults()
	lat := lattice.TwoPoint()
	app, err := rsa.Build(cfg.App, rsa.LanguageLevel, lat)
	if err != nil {
		return nil, err
	}
	newEnv := func() hw.Env { return hw.MustEnv("partitioned", lat, hw.Table1Config()) }
	pred, err := app.SamplePrediction(newEnv, cfg.Keys[:2], [][]int64{rsa.Message(cfg.Blocks, 1)})
	if err != nil {
		return nil, err
	}
	msg := rsa.Message(cfg.Blocks, 99)
	secrets := make([]leakage.Secret, len(cfg.Keys))
	for i, k := range cfg.Keys {
		k := k
		secrets[i] = func(m *mem.Memory) { m.Set("key", k) }
	}
	setup := func(m *mem.Memory) {
		app.Setup(m, 0, msg, pred) // key overwritten by the secret
	}
	base := leakage.Config{
		Prog:      app.Prog,
		Res:       app.Res,
		NewEnv:    newEnv,
		Adversary: lat.Bot(),
		Setup:     setup,
		MaxSteps:  50_000_000,
	}

	unmit := base
	unmit.Opts.DisableMitigation = true
	mu, err := leakage.Measure(unmit, secrets)
	if err != nil {
		return nil, err
	}
	mm, err := leakage.Measure(base, secrets)
	if err != nil {
		return nil, err
	}
	if err := leakage.CheckTheorem2(mm); err != nil {
		return nil, err
	}
	return &LeakageData{
		Keys:                len(cfg.Keys),
		UnmitigatedQBits:    mu.QBits,
		MitigatedQBits:      mm.QBits,
		MitigatedVBits:      mm.VBits,
		BoundBits:           leakage.BoundForMeasurement(mm, 1),
		MaxClock:            mm.MaxClock,
		RelevantMitigations: mm.RelevantMitigates,
	}, nil
}

// Render formats the experiment.
func (d *LeakageData) Render() string {
	var b strings.Builder
	b.WriteString("E6: Leakage bounds (RSA decryption, adversary at L)\n")
	fmt.Fprintf(&b, "secret keys tried:            %d (max %.2f bits of secret distinguishable)\n",
		d.Keys, log2(d.Keys))
	fmt.Fprintf(&b, "unmitigated measured leakage: %.2f bits\n", d.UnmitigatedQBits)
	fmt.Fprintf(&b, "mitigated measured leakage:   %.2f bits\n", d.MitigatedQBits)
	fmt.Fprintf(&b, "mitigate timing variations:   %.2f bits (Theorem 2 bound)\n", d.MitigatedVBits)
	fmt.Fprintf(&b, "analytic §7 bound:            %.2f bits (K=%d, T=%d)\n",
		d.BoundBits, d.RelevantMitigations, d.MaxClock)
	return b.String()
}

func log2(n int) float64 {
	b := 0.0
	for v := 1; v < n; v *= 2 {
		b++
	}
	return b
}
