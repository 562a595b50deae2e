package certify

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/splitmix"
)

// SweepOptions configure the certification matrix.
type SweepOptions struct {
	// Seed drives every row's adversaries; equal seeds replay the
	// whole sweep bit-for-bit.
	Seed int64
	// Quick selects the smoke slice: every binding, both verdict
	// polarities and the cache control, a few seconds of work. The
	// full matrix crosses {tree, vm} × {partitioned, nopar} ×
	// {mitigated, unmitigated} × every workload.
	Quick bool
}

// Row is one certified configuration of the sweep.
type Row struct {
	// Binding is the target layer: "engine", "pool", or "http".
	Binding string
	// Workload names the certified workload.
	Workload string
	// Config is the stack configuration.
	Config TargetConfig
	// Result is the certification report.
	Result *Result
}

// Label renders the row's stable identity (also the benchmark name
// suffix in BENCH_certify.json).
func (r Row) Label() string {
	mit := "off"
	if r.Config.Mitigated {
		mit = "on"
	}
	return fmt.Sprintf("bind=%s/workload=%s/engine=%s/hw=%s/mit=%s",
		r.Binding, r.Workload, r.Config.Engine, r.Config.Hardware, mit)
}

// plan is one row before execution.
type plan struct {
	binding string
	w       *Workload
	cfg     TargetConfig
}

// Sweep runs the certification matrix and returns one row per
// configuration, in a stable order.
func Sweep(ctx context.Context, o SweepOptions) ([]Row, error) {
	login, err := LoginWorkload(8)
	if err != nil {
		return nil, err
	}
	sleep, err := SleepWorkload(8)
	if err != nil {
		return nil, err
	}
	progs, err := CorpusWorkloads()
	if err != nil {
		return nil, err
	}

	var plans []plan
	engCfg := func(engine, hwName string, mit bool) TargetConfig {
		return TargetConfig{Engine: engine, Hardware: hwName, Mitigated: mit}
	}
	if o.Quick {
		plans = []plan{
			{"engine", login, engCfg("tree", "partitioned", true)},
			{"engine", login, engCfg("vm", "partitioned", true)},
			{"engine", login, engCfg("vm", "partitioned", false)},
			{"engine", sleep, engCfg("vm", "partitioned", true)},
			{"engine", progs[0], engCfg("vm", "partitioned", true)},
			{"engine", progs[0], engCfg("vm", "partitioned", false)},
			{"pool", sleep, engCfg("tree", "partitioned", true)},
			{"pool", sleep, engCfg("tree", "partitioned", false)},
			{"http", sleep, engCfg("vm", "partitioned", true)},
			{"engine", login, engCfg("vm", "nopar", true)},
		}
	} else {
		rsa, err := RSAWorkload(nil)
		if err != nil {
			return nil, err
		}
		workloads := append([]*Workload{login, rsa, sleep}, progs...)
		for _, w := range workloads {
			for _, e := range []string{"tree", "vm"} {
				for _, hwName := range []string{"partitioned", "nopar"} {
					for _, mit := range []bool{true, false} {
						plans = append(plans, plan{"engine", w, engCfg(e, hwName, mit)})
					}
				}
			}
		}
		for _, e := range []string{"tree", "vm"} {
			for _, mit := range []bool{true, false} {
				plans = append(plans, plan{"pool", sleep, engCfg(e, "partitioned", mit)})
			}
		}
		for _, mit := range []bool{true, false} {
			plans = append(plans, plan{"http", sleep, engCfg("vm", "partitioned", mit)})
		}
	}

	rows := make([]Row, 0, len(plans))
	for i, p := range plans {
		var (
			t   Target
			err error
		)
		switch p.binding {
		case "engine":
			t, err = NewEngineTarget(p.w, p.cfg)
		case "pool":
			t, err = NewPoolTarget(p.w, p.cfg)
		case "http":
			t, err = NewHTTPTarget(p.w, p.cfg)
		default:
			err = fmt.Errorf("certify: unknown binding %q", p.binding)
		}
		if err != nil {
			return nil, err
		}
		// Each row's adversaries draw from an independent stream
		// derived from (sweep seed, row index), so reordering one row
		// cannot perturb another.
		res, cerr := Certify(ctx, t, int64(splitmix.Mix64(uint64(o.Seed), uint64(i+1))>>1))
		if closeErr := t.Close(); cerr == nil {
			cerr = closeErr
		}
		if cerr != nil {
			return nil, fmt.Errorf("certify: row %s: %w", p.binding+"/"+p.w.Name, cerr)
		}
		rows = append(rows, Row{Binding: p.binding, Workload: p.w.Name, Config: p.cfg, Result: res})
	}
	return rows, nil
}

// Check asserts the sweep's acceptance claims, one per polarity and
// channel: every mitigated configuration on partitioned hardware
// certifies (measured upper confidence bound ≤ reported §7 bound); at
// least one unmitigated baseline measurably leaks ≥ 1 bit — the
// positive control showing the estimators detect real channels; and
// the prime+probe attacker measures ≥ 1 bit on at least one mitigated
// row on nopar hardware — the cache control, showing the attacker
// detects the channel the partitioned hardware closes, which
// mitigation alone does not.
func Check(rows []Row) error {
	var failures []string
	leaked, cacheLeaked := false, false
	for _, r := range rows {
		if r.Config.Mitigated && r.Config.Hardware == "partitioned" && !r.Result.Certified {
			failures = append(failures,
				fmt.Sprintf("%s: upper %.3f bits exceeds reported %.3f", r.Label(), r.Result.UpperBits, r.Result.ReportedBits))
		}
		if !r.Config.Mitigated && r.Result.MeasuredBits >= 1 {
			leaked = true
		}
		if r.Config.Mitigated && r.Config.Hardware == "nopar" {
			for _, a := range r.Result.Attacks {
				if a.Adversary == "prime-probe" && a.Bits >= 1 {
					cacheLeaked = true
				}
			}
		}
	}
	if !leaked {
		failures = append(failures, "positive control failed: no unmitigated baseline measured ≥ 1 bit")
	}
	if !cacheLeaked {
		failures = append(failures, "cache control failed: no mitigated nopar row's prime-probe attack measured ≥ 1 bit")
	}
	if len(failures) > 0 {
		return fmt.Errorf("certification failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// BenchLines renders the rows in `go test -bench` format so
// internal/tools/benchjson can parse them into BENCH_certify.json.
// Every metric is a deterministic function of the sweep seed (no
// wall-clock units appear), so equal seeds yield byte-identical
// output — and therefore a byte-identical JSON record.
func BenchLines(rows []Row) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		certified := 0
		if r.Result.Certified {
			certified = 1
		}
		out = append(out, fmt.Sprintf(
			"BenchmarkCertify/%s\t%d\t%.4f measured_bits\t%.4f upper_bits\t%.4f reported_bits\t%.4f secret_bits\t%d certified",
			r.Label(), r.Result.Probes, r.Result.MeasuredBits, r.Result.UpperBits,
			r.Result.ReportedBits, r.Result.SecretBits, certified))
	}
	return out
}
