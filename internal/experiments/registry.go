package experiments

// RunOptions are the harness-level knobs shared by every experiment.
// An experiment reads the knobs that apply to it and ignores the rest
// (Engine, say, only matters to the sessions experiment).
type RunOptions struct {
	// Quick selects the reduced-scale configuration.
	Quick bool
	// Parallel fans independent probes across goroutines where the
	// experiment supports it.
	Parallel bool
	// Plot renders figures as ASCII charts instead of tables.
	Plot bool
	// Engine names the execution engine for service-backed experiments
	// ("tree", "vm").
	Engine string
	// Seed fixes the pseudo-random choices of randomized experiments.
	Seed int64
}

// Report is one experiment's output: the human-readable text and,
// when the experiment produces tabular data, its CSV/JSON form. A nil
// Data marks a text-only experiment (table1 is configuration, not
// measurement).
type Report struct {
	Text string
	Data CSV
}

// Experiment is one evaluation artifact: a stable name the harness
// dispatches on, a one-line summary for `-experiment list`, and the
// runner.
type Experiment struct {
	// Name is the harness-facing identifier (figure7, leakage, ...).
	Name string
	// Summary is the one-line description shown by `-experiment list`.
	Summary string
	// Run executes the experiment.
	Run func(RunOptions) (*Report, error)
}

// table is the fixed set of experiments in the paper's presentation
// order: E1–E6 (§8's tables and figures and the §7 bound), then E7 and
// E9, the §7 claims that reach the service.
var table = []Experiment{
	{
		Name:    "table1",
		Summary: "machine environment parameters (§8; text only)",
		Run: func(RunOptions) (*Report, error) {
			return &Report{Text: Table1()}, nil
		},
	},
	{
		Name:    "figure7",
		Summary: "login time across attempts, ± mitigation (§8.2)",
		Run: func(o RunOptions) (*Report, error) {
			cfg := Figure7Config{}
			if o.Quick {
				cfg = cfg.Quick()
			}
			cfg.Parallel = o.Parallel
			d, err := Figure7(cfg)
			if err != nil {
				return nil, err
			}
			text := d.Render()
			if o.Plot {
				text = d.Plot()
			}
			return &Report{Text: text + fig7Summary(d), Data: d}, nil
		},
	},
	{
		Name:    "table2",
		Summary: "login time under {nopar, moff, mon} (§8.2)",
		Run: func(o RunOptions) (*Report, error) {
			cfg := Table2Config{}
			if o.Quick {
				cfg = cfg.Quick()
			}
			d, err := Table2(cfg)
			if err != nil {
				return nil, err
			}
			return &Report{Text: d.Render(), Data: d}, nil
		},
	},
	{
		Name:    "figure8",
		Summary: "RSA decryption time for two keys, ± mitigation (§8.3)",
		Run: func(o RunOptions) (*Report, error) {
			cfg := Figure8Config{}
			if o.Quick {
				cfg = cfg.Quick()
			}
			d, err := Figure8(cfg)
			if err != nil {
				return nil, err
			}
			text := d.Render()
			if o.Plot {
				text = d.Plot()
			}
			return &Report{Text: text, Data: d}, nil
		},
	},
	{
		Name:    "figure9",
		Summary: "language-level vs system-level mitigation (§8.4)",
		Run: func(o RunOptions) (*Report, error) {
			cfg := Figure9Config{}
			if o.Quick {
				cfg = cfg.Quick()
			}
			d, err := Figure9(cfg)
			if err != nil {
				return nil, err
			}
			text := d.Render()
			if o.Plot {
				text = d.Plot()
			}
			return &Report{Text: text, Data: d}, nil
		},
	},
	{
		Name:    "leakage",
		Summary: "measured leakage vs the §7 analytic bound (E6)",
		Run: func(o RunOptions) (*Report, error) {
			cfg := LeakageConfig{}
			if o.Quick {
				cfg = cfg.Quick()
			}
			d, err := LeakageBounds(cfg)
			if err != nil {
				return nil, err
			}
			return &Report{Text: d.Render(), Data: d}, nil
		},
	},
	{
		Name:    "sessions",
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
	},
	{
		Name:    "certify",
		Summary: "adversarial leakage certification of the §7 bounds",
		Run: func(o RunOptions) (*Report, error) {
			d, err := Certify(CertifyConfig{Seed: o.Seed, Quick: o.Quick})
			if err != nil {
				return nil, err
			}
			return &Report{Text: d.Render(), Data: d}, nil
		},
	},
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	for _, e := range table {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return append([]Experiment(nil), table...)
}

// Names returns the experiment names in presentation order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}
