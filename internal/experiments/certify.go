package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/certify"
)

// CertifyConfig sizes the certification experiment.
type CertifyConfig struct {
	// Seed drives every adversary; equal seeds replay bit-for-bit.
	Seed int64
	// Quick runs the smoke slice instead of the full matrix.
	Quick bool
}

// CertifyData is the E9 report: the sweep rows, the gate verdict, and
// the summary counters the harness renders.
type CertifyData struct {
	Seed  int64
	Quick bool
	Rows  []certify.Row
	// Certified counts certified rows; MitigatedRows/MitigatedCertified
	// restrict to mitigated configurations — the paper's claim is that
	// ALL of those certify on partitioned hardware.
	Certified          int
	MitigatedRows      int
	MitigatedCertified int
	// MaxUnmitigatedBits is the largest measured leakage across
	// unmitigated baselines — the positive control showing the attack
	// battery detects real channels.
	MaxUnmitigatedBits float64
	// GateErr is the certification gate's failure text ("" = passed):
	// a mitigated partitioned row whose measured upper confidence
	// bound exceeds its reported §7 bound, or a positive or cache
	// control that failed to leak.
	GateErr string
	// Deterministic is true when a second sweep with the same seed
	// reproduced every row exactly.
	Deterministic bool
}

// Certify runs the adversarial certification sweep — black-box timing
// and coresident cache attacks against every configuration of the
// stack — and checks that measured leakage never exceeds the reported
// §7 bound where the paper claims one, while insecure baselines
// measurably leak.
func Certify(cfg CertifyConfig) (*CertifyData, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	ctx := context.Background()
	opts := certify.SweepOptions{Seed: cfg.Seed, Quick: cfg.Quick}
	rows, err := certify.Sweep(ctx, opts)
	if err != nil {
		return nil, err
	}
	d := &CertifyData{Seed: cfg.Seed, Quick: cfg.Quick, Rows: rows}
	for _, r := range rows {
		if r.Result.Certified {
			d.Certified++
		}
		if r.Config.Mitigated {
			d.MitigatedRows++
			if r.Result.Certified {
				d.MitigatedCertified++
			}
		} else if r.Result.MeasuredBits > d.MaxUnmitigatedBits {
			d.MaxUnmitigatedBits = r.Result.MeasuredBits
		}
	}
	if err := certify.Check(rows); err != nil {
		d.GateErr = err.Error()
	}
	replay, err := certify.Sweep(ctx, opts)
	if err != nil {
		return nil, err
	}
	d.Deterministic = rowsEqual(rows, replay)
	return d, nil
}

// rowsEqual compares two sweeps through their canonical bench-line
// rendering — the same bytes BENCH_certify.json records.
func rowsEqual(a, b []certify.Row) bool {
	la, lb := certify.BenchLines(a), certify.BenchLines(b)
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}

// Render formats the experiment.
func (d *CertifyData) Render() string {
	var b strings.Builder
	scope := "full matrix"
	if d.Quick {
		scope = "quick slice"
	}
	b.WriteString("Adversarial leakage certification: measured attacks vs the §7 bound\n")
	fmt.Fprintf(&b, "sweep:          %s, %d rows, seed %d\n", scope, len(d.Rows), d.Seed)
	fmt.Fprintf(&b, "%-58s %9s %9s %9s  %s\n", "configuration", "measured", "upper", "reported", "verdict")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-58s %9.3f %9.3f %9.3f  %s\n",
			r.Label(), r.Result.MeasuredBits, r.Result.UpperBits, r.Result.ReportedBits, r.Result.Verdict())
	}
	fmt.Fprintf(&b, "mitigated rows: %d/%d certified (measured upper bound ≤ reported §7 bound)\n",
		d.MitigatedCertified, d.MitigatedRows)
	fmt.Fprintf(&b, "positive ctrl:  strongest unmitigated baseline leaked %.3f bits\n", d.MaxUnmitigatedBits)
	if d.GateErr == "" {
		b.WriteString("gate:           PASSED\n")
	} else {
		fmt.Fprintf(&b, "gate:           FAILED — %s\n", d.GateErr)
	}
	fmt.Fprintf(&b, "deterministic:  %v (fresh sweep, same seed)\n", d.Deterministic)
	return b.String()
}

// CSVHeader implements CSV for the certification experiment.
func (d *CertifyData) CSVHeader() []string {
	return []string{"binding", "workload", "engine", "hardware", "mitigated",
		"measured_bits", "upper_bits", "reported_bits", "secret_bits", "probes", "certified"}
}

// CSVRows implements CSV for the certification experiment.
func (d *CertifyData) CSVRows() [][]string {
	rows := make([][]string, 0, len(d.Rows))
	for _, r := range d.Rows {
		rows = append(rows, []string{
			r.Binding,
			r.Workload,
			r.Config.Engine,
			r.Config.Hardware,
			strconv.FormatBool(r.Config.Mitigated),
			strconv.FormatFloat(r.Result.MeasuredBits, 'f', 4, 64),
			strconv.FormatFloat(r.Result.UpperBits, 'f', 4, 64),
			strconv.FormatFloat(r.Result.ReportedBits, 'f', 4, 64),
			strconv.FormatFloat(r.Result.SecretBits, 'f', 4, 64),
			strconv.Itoa(r.Result.Probes),
			strconv.FormatBool(r.Result.Certified),
		})
	}
	return rows
}
