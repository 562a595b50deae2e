package certify

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/apps/login"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
)

// The classical analyses of §8.3 and §8.4 — the Bortz–Boneh username
// prober and Kocher's key-weight regression — read the same response
// times the battery reads, so they live here as test code: each
// end-to-end test wraps its case study as a Workload (the "secret"
// indexes what the attacker varies) and drives probes through the
// battery's own sampling loop.

// bestThreshold finds the split of a 1-D sample that maximizes the
// between-cluster separation (the midpoint of the largest gap between
// consecutive sorted values). It returns the threshold and the gap
// width; a gap of zero means the sample is a single cluster.
func bestThreshold(times []uint64) (threshold uint64, gap uint64) {
	if len(times) < 2 {
		return 0, 0
	}
	sorted := append([]uint64(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	best := sorted[0]
	for i := 1; i < len(sorted); i++ {
		if g := sorted[i] - sorted[i-1]; g > gap {
			gap = g
			best = sorted[i-1] + g/2
		}
	}
	return best, gap
}

// classify labels each observation as above-threshold (true) or not.
func classify(times []uint64, threshold uint64) []bool {
	out := make([]bool, len(times))
	for i, t := range times {
		out[i] = t > threshold
	}
	return out
}

// accuracy scores a classification against ground truth under
// whichever polarity fits better — the attacker does not know which
// cluster is which a priori.
func accuracy(guess, truth []bool) float64 {
	if len(guess) != len(truth) || len(guess) == 0 {
		return 0
	}
	same := 0
	for i := range guess {
		if guess[i] == truth[i] {
			same++
		}
	}
	return float64(max(same, len(guess)-same)) / float64(len(guess))
}

// linearFit is a least-squares line fit t ≈ intercept + slope·x, with
// r2 its coefficient of determination.
type linearFit struct {
	intercept, slope, r2 float64
}

// fitLinear performs ordinary least squares of y against x.
func fitLinear(x []float64, y []uint64) (linearFit, error) {
	if len(x) != len(y) || len(x) < 2 {
		return linearFit{}, fmt.Errorf("need ≥2 paired samples, got %d/%d", len(x), len(y))
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += float64(y[i])
		sxx += x[i] * x[i]
		sxy += x[i] * float64(y[i])
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return linearFit{}, fmt.Errorf("x values are all equal")
	}
	f := linearFit{slope: (n*sxy - sx*sy) / den}
	f.intercept = (sy - f.slope*sx) / n
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range x {
		d, r := float64(y[i])-meanY, float64(y[i])-(f.intercept+f.slope*x[i])
		ssTot += d * d
		ssRes += r * r
	}
	f.r2 = 1
	if ssTot > 0 {
		f.r2 = 1 - ssRes/ssTot
	}
	return f, nil
}

// invert estimates the x that would produce observation t. It fails
// when the slope is (near) zero — the defining signature of a
// mitigated system, where time carries no information about x.
func (f linearFit) invert(t uint64) (float64, error) {
	if math.Abs(f.slope) < 1e-9 {
		return 0, fmt.Errorf("timing is flat; nothing to invert")
	}
	return (float64(t) - f.intercept) / f.slope, nil
}

// timesBySecret runs one recorded sampling round and indexes the times
// by secret — the layout the classical analyses want.
func timesBySecret(t *testing.T, tgt Target, seed int64) []uint64 {
	t.Helper()
	secrets, times, _, err := sample(context.Background(), tgt, allSecrets(tgt.Secrets()), 1, NewRNG(seed), tgt.Probe)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, tgt.Secrets())
	for i, s := range secrets {
		out[s] = times[i]
	}
	return out
}

func TestBestThreshold(t *testing.T) {
	th, gap := bestThreshold([]uint64{10, 11, 12, 100, 101})
	if gap != 88 {
		t.Errorf("gap = %d, want 88", gap)
	}
	if th <= 12 || th >= 100 {
		t.Errorf("threshold %d not in the gap", th)
	}
	if _, g := bestThreshold([]uint64{5, 5, 5}); g != 0 {
		t.Error("constant sample should have zero gap")
	}
	if _, g := bestThreshold([]uint64{7}); g != 0 {
		t.Error("single sample")
	}
	if _, g := bestThreshold(nil); g != 0 {
		t.Error("empty sample")
	}
}

func TestClassifyAndAccuracy(t *testing.T) {
	times := []uint64{1, 2, 100, 101}
	truth := []bool{false, false, true, true}
	th, _ := bestThreshold(times)
	if acc := accuracy(classify(times, th), truth); acc != 1.0 {
		t.Errorf("accuracy = %f", acc)
	}
	// Inverted polarity also scores 1.0 (the attacker flips labels).
	inverted := []bool{true, true, false, false}
	if acc := accuracy(classify(times, th), inverted); acc != 1.0 {
		t.Errorf("inverted accuracy = %f", acc)
	}
	if accuracy(nil, nil) != 0 {
		t.Error("empty accuracy")
	}
	if accuracy([]bool{true}, []bool{true, false}) != 0 {
		t.Error("length mismatch")
	}
}

func TestFitLinear(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []uint64{12, 14, 16, 18} // t = 10 + 2x
	f, err := fitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.slope-2) > 1e-9 || math.Abs(f.intercept-10) > 1e-9 {
		t.Errorf("fit = %+v", f)
	}
	if f.r2 < 0.999 {
		t.Errorf("r2 = %f", f.r2)
	}
	inv, err := f.invert(20)
	if err != nil || math.Abs(inv-5) > 1e-9 {
		t.Errorf("invert(20) = %f, %v", inv, err)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if _, err := fitLinear([]float64{1}, []uint64{2}); err == nil {
		t.Error("too few samples")
	}
	if _, err := fitLinear([]float64{3, 3, 3}, []uint64{1, 2, 3}); err == nil {
		t.Error("constant x")
	}
	flat, err := fitLinear([]float64{1, 2, 3}, []uint64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.invert(7); err == nil {
		t.Error("flat fit should refuse to invert")
	}
}

func TestUsernameProbingEndToEnd(t *testing.T) {
	lat := lattice.TwoPoint()
	app, err := login.Build(login.Config{TableSize: 24, WorkFactor: 64, WorkTableSize: 128}, lat)
	if err != nil {
		t.Fatal(err)
	}
	newEnv := func() hw.Env { return hw.NewPartitioned(lat, hw.Table1Config()) }
	secretCreds := login.MakeCredentials(9)
	probes := login.MakeCredentials(18)
	p1, p2, err := app.SamplePredictions(newEnv, secretCreds, []login.Attempt{
		{User: secretCreds[8].User, Pass: "wrong"},
		{User: "ghost", Pass: "x"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The Bortz–Boneh prober varies the USERNAME: secret index i means
	// "probe username i", the first 9 of which exist in the table.
	w := &Workload{
		Name: "login-probe", Prog: app.Prog, Res: app.Res, Lat: lat, N: len(probes),
		Set: func(i int, m *mem.Memory) {
			app.Setup(m, secretCreds, login.Attempt{User: probes[i].User, Pass: "guess"}, p1, p2)
		},
	}
	truth := make([]bool, len(probes))
	for i := range truth {
		truth[i] = i < len(secretCreds)
	}

	unmit, err := NewEngineTarget(w, TargetConfig{Mitigated: false})
	if err != nil {
		t.Fatal(err)
	}
	times := timesBySecret(t, unmit, 1)
	th, _ := bestThreshold(times)
	if acc := accuracy(classify(times, th), truth); acc != 1.0 {
		t.Errorf("unmitigated probe accuracy = %f, want 1.0", acc)
	}

	mit, err := NewEngineTarget(w, TargetConfig{Mitigated: true})
	if err != nil {
		t.Fatal(err)
	}
	times = timesBySecret(t, mit, 1)
	th, gap := bestThreshold(times)
	if gap != 0 {
		t.Errorf("mitigated timings should be constant; gap = %d", gap)
	}
	// With constant times, accuracy collapses to the base rate of the
	// majority class (9/18 here → 0.5).
	if acc := accuracy(classify(times, th), truth); acc > 0.51 {
		t.Errorf("mitigated probe accuracy = %f; should be chance", acc)
	}
}

func TestRSAWeightRecoveryEndToEnd(t *testing.T) {
	// Offline calibration with chosen keys of the same bit length,
	// plus the victim as the last secret index.
	calKeys := []int64{
		0x4000000000000001, 0x400000FF000000FF, 0x4FFF0FFF0FFF0FFF, 0x7FFFFFFFFFFFFFFF,
	}
	victim := int64(0x5A5A5A5A5A5A5A5B)
	w, err := RSAWorkload(append(append([]int64(nil), calKeys...), victim))
	if err != nil {
		t.Fatal(err)
	}
	// Disable the branch predictor for this analysis: the regression
	// models time as linear in key WEIGHT, which holds for the cache
	// model but not under a trained predictor (alternating-bit keys
	// mispredict every iteration — the separate signal the
	// BranchPairAdversary exploits instead).
	w.HW = func() hw.Config {
		cfg := hw.Table1Config()
		cfg.BP.Size = 0
		return cfg
	}

	unmit, err := NewEngineTarget(w, TargetConfig{Mitigated: false})
	if err != nil {
		t.Fatal(err)
	}
	times := timesBySecret(t, unmit, 1)
	var xs []float64
	for _, k := range calKeys {
		xs = append(xs, float64(bits.OnesCount64(uint64(k))))
	}
	fit, err := fitLinear(xs, times[:len(calKeys)])
	if err != nil {
		t.Fatal(err)
	}
	if fit.r2 < 0.99 {
		t.Fatalf("timing should be near-linear in weight; r2 = %f", fit.r2)
	}

	// Attack the victim key: recover its Hamming weight from one timing.
	wTrue := bits.OnesCount64(uint64(victim))
	wEst, err := fit.invert(times[len(calKeys)])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wEst-float64(wTrue)) > 1.0 {
		t.Errorf("recovered weight %.1f, true %d", wEst, wTrue)
	}

	// Mitigated: the same attack finds a flat line and cannot invert.
	mit, err := NewEngineTarget(w, TargetConfig{Mitigated: true})
	if err != nil {
		t.Fatal(err)
	}
	mitTimes := timesBySecret(t, mit, 1)
	mitFit, err := fitLinear(xs, mitTimes[:len(calKeys)])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mitFit.invert(mitTimes[len(calKeys)]); err == nil {
		t.Error("mitigated timing should be uninvertible (flat)")
	}
}

// TestMutualInformationOnMitigatedRSA: the plug-in MI of one recorded
// pass over the default keys carries > 1.5 bits unmitigated and none
// mitigated.
func TestMutualInformationOnMitigatedRSA(t *testing.T) {
	w, err := RSAWorkload(nil)
	if err != nil {
		t.Fatal(err)
	}
	mi := func(mitigated bool) float64 {
		tgt, err := NewEngineTarget(w, TargetConfig{Mitigated: mitigated})
		if err != nil {
			t.Fatal(err)
		}
		return EstimateMI(allSecrets(w.N), timesBySecret(t, tgt, 3), NewRNG(3)).Plugin
	}
	if miU := mi(false); miU < 1.5 {
		t.Errorf("unmitigated MI = %f bits; attack should extract >1.5", miU)
	}
	if miM := mi(true); miM != 0 {
		t.Errorf("mitigated MI = %f bits, want 0", miM)
	}
}
