package certify

import (
	"context"
	"math/bits"
	"testing"

	"repro/internal/apps/rsa"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
)

// Branch-prediction analysis (Acıiçmez et al., cited by the paper):
// even among keys of EQUAL Hamming weight — indistinguishable to the
// cache/multiply-count channel — the branch predictor leaks the key's
// bit PATTERN: clustered bits train the square-and-multiply branch and
// run fast, alternating bits mispredict every iteration and run slow.
func TestBranchPredictionAnalysisUnmitigated(t *testing.T) {
	lat := lattice.TwoPoint()
	app, err := rsa.Build(rsa.Config{MaxBlocks: 2, Modulus: 2147483647}, rsa.LanguageLevel, lat)
	if err != nil {
		t.Fatal(err)
	}
	msg := rsa.Message(1, 5)
	timeOf := func(key int64, env hw.Env, mitigate bool, pred int64) uint64 {
		res, err := app.Run(env, key, msg, pred, mitigate)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := rsa.ResponseTime(res)
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}

	clustered := int64(0x00000000FFFFFFFF)   // 32 bits, one run
	alternating := int64(0x5555555555555555) // 32 bits, maximally alternating
	if bits.OnesCount64(uint64(clustered)) != bits.OnesCount64(uint64(alternating)) {
		t.Fatal("test keys must have equal weight")
	}

	// With the predictor, the patterns separate...
	cfg := hw.Table1Config()
	tClustered := timeOf(clustered, hw.NewUnpartitioned(lat, cfg), false, 1)
	tAlternating := timeOf(alternating, hw.NewUnpartitioned(lat, cfg), false, 1)
	if tAlternating <= tClustered {
		t.Errorf("alternating key (%d) should be slower than clustered (%d): predictor channel",
			tAlternating, tClustered)
	}

	// ...and the separation is the predictor's doing: with it disabled,
	// the bit-length difference dominates instead (alternating's top
	// bit is lower, so it does FEWER iterations — compare exactly).
	cfg.BP.Size = 0
	nClustered := timeOf(clustered, hw.NewUnpartitioned(lat, cfg), false, 1)
	nAlternating := timeOf(alternating, hw.NewUnpartitioned(lat, cfg), false, 1)
	withBPGap := int64(tAlternating) - int64(tClustered)
	withoutBPGap := int64(nAlternating) - int64(nClustered)
	if withBPGap <= withoutBPGap {
		t.Errorf("predictor should add to the gap: %d (with) vs %d (without)",
			withBPGap, withoutBPGap)
	}
}

// Mitigation closes the branch-prediction channel along with the rest:
// mitigated decryption time is identical for both patterns.
func TestBranchPredictionChannelMitigated(t *testing.T) {
	lat := lattice.TwoPoint()
	app, err := rsa.Build(rsa.Config{MaxBlocks: 2, Modulus: 2147483647}, rsa.LanguageLevel, lat)
	if err != nil {
		t.Fatal(err)
	}
	msg := rsa.Message(1, 5)
	pred, err := app.SamplePrediction(func() hw.Env { return hw.NewPartitioned(lat, hw.Table1Config()) },
		[]int64{0x5555555555555555}, [][]int64{msg})
	if err != nil {
		t.Fatal(err)
	}
	timeOf := func(key int64) uint64 {
		res, err := app.Run(hw.NewPartitioned(lat, hw.Table1Config()), key, msg, pred, true)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := rsa.ResponseTime(res)
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	if a, b := timeOf(0x00000000FFFFFFFF), timeOf(0x5555555555555555); a != b {
		t.Errorf("mitigated times differ: %d vs %d", a, b)
	}
}

// equalWeightKeys returns two RSA keys of equal Hamming weight (32)
// and equal bit length (63): indistinguishable to the multiply-count
// and iteration-count channels, separable only by how their patterns
// train the branch predictor — clustered bits predict well,
// alternating bits mispredict every iteration.
func equalWeightKeys() (clustered, alternating int64) {
	return 0x7FFFFFFF80000000, 0x5555555555555555
}

// TestBranchPairAdversaryPredictorChannel isolates the predictor as
// the channel: with the branch predictor modeled, the branch-pair
// attacker separates the equal-weight pair; with the predictor
// disabled (and nothing else changed) the pair is indistinguishable.
func TestBranchPairAdversaryPredictorChannel(t *testing.T) {
	ctx := context.Background()
	clustered, alternating := equalWeightKeys()
	w, err := RSAWorkload([]int64{clustered, alternating})
	if err != nil {
		t.Fatal(err)
	}

	tgt, err := NewEngineTarget(w, TargetConfig{Hardware: "unpartitioned", Mitigated: false})
	if err != nil {
		t.Fatal(err)
	}
	att, err := (&BranchPairAdversary{}).Mount(ctx, tgt, NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if att.Bits != 1 {
		t.Errorf("predictor should fully separate the equal-weight pair: %.3f bits", att.Bits)
	}

	noBP := *w
	noBP.HW = func() hw.Config {
		cfg := hw.Table1Config()
		cfg.BP.Size = 0
		return cfg
	}
	tgt, err = NewEngineTarget(&noBP, TargetConfig{Hardware: "unpartitioned", Mitigated: false})
	if err != nil {
		t.Fatal(err)
	}
	att, err = (&BranchPairAdversary{}).Mount(ctx, tgt, NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if att.Bits != 0 {
		t.Errorf("without the predictor the equal-weight pair must be indistinguishable: %.3f bits", att.Bits)
	}
}

// TestBranchPairAdversaryMitigated: mitigation closes the predictor
// channel along with the rest, and the configuration certifies under
// the battery.
func TestBranchPairAdversaryMitigated(t *testing.T) {
	clustered, alternating := equalWeightKeys()
	w, err := RSAWorkload([]int64{clustered, alternating})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewEngineTarget(w, TargetConfig{Hardware: "partitioned", Mitigated: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Certify(context.Background(), tgt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Errorf("mitigated RSA should certify against the branch attacker: upper %.3f vs reported %.3f",
			res.UpperBits, res.ReportedBits)
	}
	for _, a := range res.Attacks {
		if a.Adversary == "branch-pair" && a.Bits != 0 {
			t.Errorf("mitigated branch channel should be silent, measured %.3f bits", a.Bits)
		}
	}
}
