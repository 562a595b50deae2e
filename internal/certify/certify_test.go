package certify

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestCertifyEngineSleep is the core loop in miniature: the mitigated
// sleep workload certifies (measured ≈ 0 against a positive reported
// bound) and the unmitigated baseline leaks its full secret entropy
// against a 0-bit claim.
func TestCertifyEngineSleep(t *testing.T) {
	w, err := SleepWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	mit, err := NewEngineTarget(w, TargetConfig{Engine: "tree", Mitigated: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Certify(ctx, mit, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Errorf("mitigated sleep should certify: upper %.3f vs reported %.3f", res.UpperBits, res.ReportedBits)
	}
	if res.ReportedBits <= 0 {
		t.Errorf("mitigated target should report a positive §7 bound, got %f", res.ReportedBits)
	}
	// An engine target is coresident, so the whole battery mounts, in
	// its fixed order.
	if got, want := attackNames(res), "exhaustive,binary-search,mi-estimator,prime-probe,branch-pair"; got != want {
		t.Errorf("battery = %s, want %s", got, want)
	}

	unmit, err := NewEngineTarget(w, TargetConfig{Engine: "tree", Mitigated: false})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Certify(ctx, unmit, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified {
		t.Error("unmitigated sleep must fail certification (positive control)")
	}
	if res.MeasuredBits < res.SecretBits-1e-9 {
		t.Errorf("unmitigated sleep leaks the whole secret: measured %.3f of %.3f bits",
			res.MeasuredBits, res.SecretBits)
	}
	if res.ReportedBits != 0 {
		t.Errorf("unmitigated target must claim no bound, reported %f", res.ReportedBits)
	}
	if res.Verdict() != "LEAKS" {
		t.Errorf("verdict = %s", res.Verdict())
	}
}

// TestCertifyDeterministic: same seed ⇒ identical report, different
// seed ⇒ same verdict (the claim is statistical, the replay exact).
func TestCertifyDeterministic(t *testing.T) {
	ctx := context.Background()
	run := func(seed int64) *Result {
		w, err := SleepWorkload(8)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := NewEngineTarget(w, TargetConfig{Engine: "vm", Mitigated: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Certify(ctx, tgt, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if a.MeasuredBits != b.MeasuredBits || a.UpperBits != b.UpperBits ||
		a.ReportedBits != b.ReportedBits || a.Probes != b.Probes {
		t.Errorf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	for i := range a.Attacks {
		if a.Attacks[i] != b.Attacks[i] {
			t.Errorf("attack %d differs: %+v vs %+v", i, a.Attacks[i], b.Attacks[i])
		}
	}
	if c := run(43); c.Certified != a.Certified {
		t.Error("verdict should not depend on the seed")
	}
}

// TestCertifyLoginEngines: the login workload's position channel is
// fully distinguishable unmitigated and closed by mitigation on both
// engines — and the adaptive attacker recovers the planted secret.
func TestCertifyLoginEngines(t *testing.T) {
	w, err := LoginWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, engine := range []string{"tree", "vm"} {
		unmit, err := NewEngineTarget(w, TargetConfig{Engine: engine, Mitigated: false})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Certify(ctx, unmit, 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeasuredBits < 1 {
			t.Errorf("%s unmitigated login measured %.3f bits; the position channel should exceed 1",
				engine, res.MeasuredBits)
		}
		var bs *Attack
		for i := range res.Attacks {
			if res.Attacks[i].Adversary == "binary-search" {
				bs = &res.Attacks[i]
			}
		}
		if bs == nil || bs.Bits < res.SecretBits-1e-9 {
			t.Errorf("%s: binary search should isolate the planted secret exactly: %+v", engine, bs)
		}

		mit, err := NewEngineTarget(w, TargetConfig{Engine: engine, Mitigated: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err = Certify(ctx, mit, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Certified {
			t.Errorf("%s mitigated login should certify: upper %.3f vs reported %.3f",
				engine, res.UpperBits, res.ReportedBits)
		}
		if res.MeasuredBits != 0 {
			t.Errorf("%s mitigated login should time identically (measured %.3f bits)", engine, res.MeasuredBits)
		}
	}
}

// TestCertifyPoolBinding drives the session-managed pool: the
// reported bound is the session layer's own leakage account.
func TestCertifyPoolBinding(t *testing.T) {
	w, err := SleepWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mit, err := NewPoolTarget(w, TargetConfig{Engine: "vm", Mitigated: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mit.Close()
	res, err := Certify(ctx, mit, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Errorf("mitigated pool should certify: upper %.3f vs reported %.3f", res.UpperBits, res.ReportedBits)
	}
	if !strings.HasPrefix(res.Target, "pool/") {
		t.Errorf("target name = %q", res.Target)
	}

	unmit, err := NewPoolTarget(w, TargetConfig{Mitigated: false})
	if err != nil {
		t.Fatal(err)
	}
	defer unmit.Close()
	res, err = Certify(ctx, unmit, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified || res.MeasuredBits < 1 {
		t.Errorf("unmitigated pool is the positive control: %+v", res)
	}
}

// TestCertifyHTTPBinding drives the full network stack through the
// client SDK; the reported bound is the wire's leakage_bits.
func TestCertifyHTTPBinding(t *testing.T) {
	w, err := SleepWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mit, err := NewHTTPTarget(w, TargetConfig{Engine: "vm", Mitigated: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mit.Close()
	res, err := Certify(ctx, mit, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Errorf("mitigated HTTP should certify: upper %.3f vs reported %.3f", res.UpperBits, res.ReportedBits)
	}
	if res.ReportedBits <= 0 {
		t.Errorf("wire leakage_bits should be positive, got %f", res.ReportedBits)
	}

	// A workload without wire inputs cannot bind over HTTP.
	login, err := LoginWorkload(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHTTPTarget(login, TargetConfig{}); err == nil {
		t.Error("login workload has no wire inputs; NewHTTPTarget should refuse")
	}
}

// TestCertifyRSAWorkload: the Kocher channel on the vm engine.
func TestCertifyRSAWorkload(t *testing.T) {
	w, err := RSAWorkload(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := TargetConfig{Engine: "vm"}
	unmit, err := NewEngineTarget(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Certify(ctx, unmit, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredBits < 1 {
		t.Errorf("unmitigated rsa measured %.3f bits", res.MeasuredBits)
	}
	cfg.Mitigated = true
	mit, err := NewEngineTarget(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Certify(ctx, mit, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Errorf("mitigated rsa should certify: upper %.3f vs reported %.3f",
			res.UpperBits, res.ReportedBits)
	}
}

// TestCertifyCorpusWorkloads: every checked-in progen seed loads and
// its mitigated configuration certifies.
func TestCertifyCorpusWorkloads(t *testing.T) {
	ws, err := CorpusWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range ws {
		mit, err := NewEngineTarget(w, TargetConfig{Mitigated: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Certify(ctx, mit, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Certified {
			t.Errorf("%s mitigated should certify: upper %.3f vs reported %.3f",
				w.Name, res.UpperBits, res.ReportedBits)
		}
		unmit, err := NewEngineTarget(w, TargetConfig{Mitigated: false})
		if err != nil {
			t.Fatal(err)
		}
		res, err = Certify(ctx, unmit, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeasuredBits < 1 {
			t.Errorf("%s unmitigated measured %.3f bits; the corpus tool requires ≥ 1", w.Name, res.MeasuredBits)
		}
	}
}

// TestCertifyErrors covers the driver's failure modes.
func TestCertifyErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := SleepWorkload(1); err == nil {
		t.Error("1-secret workload should be rejected")
	}
	if _, err := LoginWorkload(1); err == nil {
		t.Error("1-secret login should be rejected")
	}
	if _, err := RSAWorkload([]int64{1}); err == nil {
		t.Error("1-key rsa should be rejected")
	}
	if _, err := ProgenWorkload(1, "no_such_var", 8); err == nil {
		t.Error("unknown secret var should be rejected")
	}
	if _, err := ProgenWorkload(1, "s_H_0", 1); err == nil {
		t.Error("1-secret progen should be rejected")
	}
	if _, err := NewEngineTarget(mustSleep(t), TargetConfig{Hardware: "no-such-hw"}); err == nil {
		t.Error("unknown hardware should be rejected")
	}
	if _, err := NewEngineTarget(mustSleep(t), TargetConfig{Engine: "no-such-engine"}); err == nil {
		t.Error("unknown engine should be rejected")
	}
	w := mustSleep(t)
	w.N = 1
	tgt, err := NewEngineTarget(w, TargetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Certify(ctx, tgt, 0); err == nil {
		t.Error("Certify should reject a 1-secret target")
	}
}

func mustSleep(t *testing.T) *Workload {
	t.Helper()
	w, err := SleepWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// attackNames lists a result's adversaries in mount order.
func attackNames(res *Result) string {
	var names []string
	for _, a := range res.Attacks {
		names = append(names, a.Adversary)
	}
	return strings.Join(names, ",")
}

// TestSample: the statistical attackers' measurement loop discards
// exactly one warm pass, records rounds passes over the probed
// secrets, each secret once per pass, and replays from its rng.
func TestSample(t *testing.T) {
	ctx := context.Background()
	run := func(secrets []int) ([]int, []uint64, int) {
		tgt, err := NewEngineTarget(mustSleep(t), TargetConfig{Mitigated: false})
		if err != nil {
			t.Fatal(err)
		}
		xs, ys, probes, err := sample(ctx, tgt, secrets, 3, NewRNG(5), tgt.Probe)
		if err != nil {
			t.Fatal(err)
		}
		return xs, ys, probes
	}
	for _, secrets := range [][]int{allSecrets(4), {0, 7}} {
		xs, ys, probes := run(secrets)
		n := len(secrets)
		if len(xs) != 3*n || len(ys) != 3*n {
			t.Fatalf("%v: want 3 rounds × %d secrets, got %d/%d pairs", secrets, n, len(xs), len(ys))
		}
		if probes != 4*n {
			t.Errorf("%v: probes = %d, want %d (recorded + warm)", secrets, probes, 4*n)
		}
		bySecret := map[int]uint64{}
		for r := 0; r < 3; r++ {
			pass := map[int]bool{}
			for _, s := range xs[r*n : (r+1)*n] {
				pass[s] = true
			}
			if len(pass) != n {
				t.Errorf("%v: pass %d probes %v, not each secret once", secrets, r, xs[r*n:(r+1)*n])
			}
		}
		// The unmitigated sleep channel is exact: time determines secret.
		for i, s := range xs {
			if prev, ok := bySecret[s]; ok && prev != ys[i] {
				t.Fatalf("secret %d timed inconsistently: %d vs %d", s, prev, ys[i])
			}
			bySecret[s] = ys[i]
		}
		if again, _, _ := run(secrets); fmt.Sprint(again) != fmt.Sprint(xs) {
			t.Errorf("%v: same rng, different order: %v vs %v", secrets, again, xs)
		}
	}
}
