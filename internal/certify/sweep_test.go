package certify

import (
	"context"
	"strings"
	"testing"
)

// TestCertifySweepSmoke is the CI certification gate (`make
// certify-smoke`): the quick slice of the matrix must certify every
// mitigated+partitioned configuration, measurably leak on at least
// one unmitigated baseline, and measure the cache channel on nopar
// hardware, and the bench rendering must be a pure function of the
// seed.
func TestCertifySweepSmoke(t *testing.T) {
	ctx := context.Background()
	rows, err := Sweep(ctx, SweepOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("quick sweep has %d rows, want 10", len(rows))
	}
	if err := Check(rows); err != nil {
		t.Fatal(err)
	}

	bindings := map[string]bool{}
	for _, r := range rows {
		bindings[r.Binding] = true
		if r.Result == nil {
			t.Fatalf("%s: nil result", r.Label())
		}
	}
	for _, b := range []string{"engine", "pool", "http"} {
		if !bindings[b] {
			t.Errorf("quick sweep must exercise the %s binding", b)
		}
	}

	lines := BenchLines(rows)
	if len(lines) != len(rows) {
		t.Fatalf("%d bench lines for %d rows", len(lines), len(rows))
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, "BenchmarkCertify/"+rows[i].Label()+"\t") {
			t.Errorf("line %d does not carry its row label: %s", i, l)
		}
		if !strings.Contains(l, "measured_bits") || !strings.Contains(l, "certified") {
			t.Errorf("line %d missing metrics: %s", i, l)
		}
	}

	// Same seed ⇒ byte-identical bench lines (the BENCH_certify.json
	// determinism claim, minus the JSON encoder, which is itself
	// deterministic).
	again, err := Sweep(ctx, SweepOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	relines := BenchLines(again)
	if strings.Join(lines, "\n") != strings.Join(relines, "\n") {
		t.Errorf("same seed produced different bench lines:\n%s\n---\n%s",
			strings.Join(lines, "\n"), strings.Join(relines, "\n"))
	}
}

// TestSweepCheckFailures exercises Check's three failure directions
// on synthetic rows.
func TestSweepCheckFailures(t *testing.T) {
	certified := Row{
		Binding: "engine", Workload: "w",
		Config: TargetConfig{Engine: "tree", Hardware: "partitioned", Mitigated: true},
		Result: &Result{Certified: true},
	}
	leaky := Row{
		Binding: "engine", Workload: "w",
		Config: TargetConfig{Engine: "tree", Hardware: "partitioned", Mitigated: false},
		Result: &Result{MeasuredBits: 2},
	}
	cache := Row{
		Binding: "engine", Workload: "w",
		Config: TargetConfig{Engine: "tree", Hardware: "nopar", Mitigated: true},
		Result: &Result{Certified: true, Attacks: []Attack{{Adversary: "prime-probe", Bits: 1.5}}},
	}
	if err := Check([]Row{certified, leaky, cache}); err != nil {
		t.Errorf("healthy rows should pass: %v", err)
	}

	broken := certified
	broken.Result = &Result{Certified: false, UpperBits: 5, ReportedBits: 1}
	if err := Check([]Row{broken, leaky, cache}); err == nil {
		t.Error("uncertified mitigated row must fail Check")
	}

	quiet := leaky
	quiet.Result = &Result{MeasuredBits: 0}
	if err := Check([]Row{certified, quiet, cache}); err == nil {
		t.Error("missing positive control must fail Check")
	} else if !strings.Contains(err.Error(), "positive control") {
		t.Errorf("unexpected failure message: %v", err)
	}

	// The cache control needs the prime+probe attacker itself to
	// measure the channel: a nopar row leaking through another
	// attacker, or a quiet prime+probe attack, does not count.
	for _, attacks := range [][]Attack{
		nil,
		{{Adversary: "prime-probe", Bits: 0.5}},
		{{Adversary: "exhaustive", Bits: 3}},
	} {
		quietCache := cache
		quietCache.Result = &Result{Certified: true, Attacks: attacks}
		if err := Check([]Row{certified, leaky, quietCache}); err == nil {
			t.Errorf("quiet cache %+v must fail Check", attacks)
		} else if !strings.Contains(err.Error(), "cache control") {
			t.Errorf("unexpected failure message: %v", err)
		}
	}
}

func TestRowLabel(t *testing.T) {
	r := Row{
		Binding: "http", Workload: "sleep",
		Config: TargetConfig{Engine: "vm", Hardware: "partitioned", Mitigated: true},
	}
	want := "bind=http/workload=sleep/engine=vm/hw=partitioned/mit=on"
	if got := r.Label(); got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
	r.Config = TargetConfig{Engine: "tree", Hardware: "nopar"}
	want = "bind=http/workload=sleep/engine=tree/hw=nopar/mit=off"
	if got := r.Label(); got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
}
