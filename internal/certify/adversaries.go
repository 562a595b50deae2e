package certify

import (
	"context"
	"fmt"
	"math"

	"repro/internal/machine/hw"
)

// Recorded passes over the probed secrets, after the discarded warm
// pass, for each adversary that samples.
const (
	exhaustiveRounds = 2
	miRounds         = 4
	primeProbeRounds = 2
	branchPairRounds = 8
)

// warmPass probes each of secrets once, in order, discarding the
// observations. Every adversary starts with one: the first touch of a
// cold cache (and the first misprediction of a fresh mitigation
// schedule) varies with public request position, not the secret, and a
// real attacker discards it the same way.
func warmPass(ctx context.Context, t Target, secrets []int) (int, error) {
	for i, s := range secrets {
		if _, err := t.Probe(ctx, s); err != nil {
			return i, err
		}
	}
	return len(secrets), nil
}

// sample is the statistical attackers' measurement loop: a warm pass
// over secrets, then rounds passes over them in rng-shuffled order,
// each recording (secret, observe(secret)). It returns the recorded
// pairs and the probes spent, warm pass included.
func sample(ctx context.Context, t Target, secrets []int, rounds int, rng *RNG,
	observe func(context.Context, int) (uint64, error)) (xs []int, ys []uint64, probes int, err error) {
	if probes, err = warmPass(ctx, t, secrets); err != nil {
		return nil, nil, probes, err
	}
	order := append([]int(nil), secrets...)
	xs = make([]int, 0, rounds*len(order))
	ys = make([]uint64, 0, rounds*len(order))
	for r := 0; r < rounds; r++ {
		rng.Shuffle(order)
		for _, s := range order {
			y, err := observe(ctx, s)
			if err != nil {
				return nil, nil, probes, err
			}
			probes++
			xs = append(xs, s)
			ys = append(ys, y)
		}
	}
	return xs, ys, probes, nil
}

// allSecrets lists the secret indices 0..n-1.
func allSecrets(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Exhaustive is the exhaustive-input distinguisher: after the warm
// pass it probes every secret exhaustiveRounds times, in index order,
// and partitions the secret space by observed time vector. The
// information extracted is exact for this deterministic channel:
// H(secret) − Σ (|c|/N)·log2|c| over the classes c — log2 N when
// every secret times differently, 0 when the channel is flat.
type Exhaustive struct{}

// Name implements Adversary.
func (e *Exhaustive) Name() string { return "exhaustive" }

// Mount implements Adversary.
func (e *Exhaustive) Mount(ctx context.Context, t Target, rng *RNG) (Attack, error) {
	n := t.Secrets()
	probes, err := warmPass(ctx, t, allSecrets(n))
	if err != nil {
		return Attack{}, err
	}
	vectors := make([][]uint64, n)
	for r := 0; r < exhaustiveRounds; r++ {
		for i := 0; i < n; i++ {
			tm, err := t.Probe(ctx, i)
			if err != nil {
				return Attack{}, err
			}
			vectors[i] = append(vectors[i], tm)
			probes++
		}
	}
	// Partition by vector equality; class sizes give the expected
	// posterior entropy under a uniform prior.
	classes := map[string]int{}
	for _, v := range vectors {
		classes[fmt.Sprint(v)]++
	}
	posterior := 0.0
	for _, size := range classes {
		posterior += float64(size) / float64(n) * math.Log2(float64(size))
	}
	bits := math.Log2(float64(n)) - posterior
	return Attack{
		Adversary: e.Name(),
		Probes:    probes,
		Bits:      bits,
		Upper:     bits,
		Detail:    fmt.Sprintf("%d timing classes over %d secrets", len(classes), n),
	}, nil
}

// BinarySearch is the adaptive attacker: it plants secret 0, observes
// the victim's time, then probes candidate secrets in bisection order
// to find which are consistent with the observation. It adapts its
// probe budget to the channel — if the first ⌈log2 N⌉+1 bisection
// probes all match, it declares the channel flat and stops; otherwise
// it completes the scan and reports log2(N/|survivors|) bits (how far
// the observation narrowed the secret space). It draws nothing from
// its rng.
type BinarySearch struct{}

// Name implements Adversary.
func (b *BinarySearch) Name() string { return "binary-search" }

// Mount implements Adversary.
func (b *BinarySearch) Mount(ctx context.Context, t Target, _ *RNG) (Attack, error) {
	const planted = 0
	n := t.Secrets()
	probes, err := warmPass(ctx, t, allSecrets(n))
	if err != nil {
		return Attack{}, err
	}
	target, err := t.Probe(ctx, planted)
	if err != nil {
		return Attack{}, err
	}
	probes++

	order := bisectionOrder(n)
	survivors := 0
	flatAfter := 0
	for i := range order {
		flatAfter = i + 1
		if i > bitsCeil(n) && survivors == i {
			// Every probe so far matched the victim: consistent with a
			// flat channel, so stop spending probes.
			survivors = n
			break
		}
		tm, err := t.Probe(ctx, order[i])
		if err != nil {
			return Attack{}, err
		}
		probes++
		if tm == target {
			survivors++
		}
	}
	if survivors == 0 {
		// The planted secret's own probe mismatched its earlier
		// observation (history-dependent machine state); the attack
		// learned the observation is unstable, not the secret.
		survivors = n
	}
	bits := math.Log2(float64(n) / float64(survivors))
	return Attack{
		Adversary: b.Name(),
		Probes:    probes,
		Bits:      bits,
		Upper:     bits,
		Detail:    fmt.Sprintf("planted %d: %d of %d candidates consistent after %d adaptive probes", planted, survivors, n, flatAfter),
	}, nil
}

// bisectionOrder lists 0..n-1 midpoint-first: the whole range's
// midpoint, then each half's, breadth-first — the probe order of a
// binary search that does not yet know which half the secret is in.
func bisectionOrder(n int) []int {
	out := make([]int, 0, n)
	type span struct{ lo, hi int }
	queue := []span{{0, n}}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s.lo >= s.hi {
			continue
		}
		mid := (s.lo + s.hi) / 2
		out = append(out, mid)
		queue = append(queue, span{s.lo, mid}, span{mid + 1, s.hi})
	}
	return out
}

func bitsCeil(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// MIEstimator samples the channel — miRounds passes over the secret
// space in rng-shuffled order — and estimates I(secret; time) with the
// Miller–Madow-corrected plug-in estimator plus a deterministic
// bootstrap upper confidence bound (see EstimateMI). This is the
// statistical workhorse: unlike the distinguishers it keeps working
// when timing is noisy, and its Upper is what certification holds
// against the reported §7 bound.
type MIEstimator struct{}

// Name implements Adversary.
func (m *MIEstimator) Name() string { return "mi-estimator" }

// Mount implements Adversary.
func (m *MIEstimator) Mount(ctx context.Context, t Target, rng *RNG) (Attack, error) {
	secrets, times, probes, err := sample(ctx, t, allSecrets(t.Secrets()), miRounds, rng, t.Probe)
	if err != nil {
		return Attack{}, err
	}
	mi := EstimateMI(secrets, times, rng)
	return Attack{
		Adversary: m.Name(),
		Probes:    probes,
		Bits:      mi.Bits,
		Upper:     mi.Upper,
		Detail:    fmt.Sprintf("%d samples: plugin %.3f, corrected %.3f, upper %.3f bits", mi.N, mi.Plugin, mi.Bits, mi.Upper),
	}, nil
}

// PrimeProbeAdversary is the §2.1 coresident cache attacker: it builds
// an eviction set covering every L1 data set from the target's
// published geometry, primes the shared environment before each
// recorded victim run, probes after, and estimates the mutual
// information between the secret and the eviction signature. The
// signature — WHICH lines the victim displaced — is a richer
// observable than response time, which is exactly why the partitioned
// and no-fill designs must silence it. Targets that are not
// Coresident (the pool and HTTP bindings) are skipped via
// ErrNotApplicable.
type PrimeProbeAdversary struct{}

// Name implements Adversary.
func (a *PrimeProbeAdversary) Name() string { return "prime-probe" }

// Mount implements Adversary.
func (a *PrimeProbeAdversary) Mount(ctx context.Context, t Target, rng *RNG) (Attack, error) {
	c, ok := t.(Coresident)
	if !ok {
		return Attack{}, ErrNotApplicable
	}
	env := c.SharedEnv()
	l1 := c.HWConfig().Data.L1
	var addrs []uint64
	for set := 0; set < l1.Sets; set++ {
		base := uint64(0x80000 + set*l1.BlockSize)
		addrs = append(addrs, ConflictAddrs(base, l1.Sets, l1.BlockSize, l1.Assoc)...)
	}
	observe := func(ctx context.Context, s int) (uint64, error) {
		var err error
		sig := PrimeProbe(env, addrs, func(hw.Env) { _, err = t.Probe(ctx, s) })
		return signatureHash(sig), err
	}
	secrets, sigs, probes, err := sample(ctx, t, allSecrets(t.Secrets()), primeProbeRounds, rng, observe)
	if err != nil {
		return Attack{}, err
	}
	mi := EstimateMI(secrets, sigs, rng)
	return Attack{
		Adversary: a.Name(),
		Probes:    probes,
		Bits:      mi.Bits,
		Upper:     mi.Upper,
		Detail: fmt.Sprintf("MI of %d-line eviction signatures over %d recorded probes",
			len(addrs), mi.N),
	}, nil
}

// BranchPairAdversary is the branch-prediction-analysis attacker
// (Acıiçmez et al., cited by the paper): it samples the extreme
// secrets 0 and N−1, branchPairRounds times each, and estimates the
// mutual information between which-of-the-two and the response time —
// at most 1 bit by construction. On the RSA case study a pair of keys
// of EQUAL Hamming weight and equal bit length whose patterns train the
// square-and-multiply branch differently makes any measured bit the
// predictor's doing, not the multiply count's.
type BranchPairAdversary struct{}

// Name implements Adversary.
func (a *BranchPairAdversary) Name() string { return "branch-pair" }

// Mount implements Adversary.
func (a *BranchPairAdversary) Mount(ctx context.Context, t Target, rng *RNG) (Attack, error) {
	last := t.Secrets() - 1
	labels, times, probes, err := sample(ctx, t, []int{0, last}, branchPairRounds, rng, t.Probe)
	if err != nil {
		return Attack{}, err
	}
	mi := EstimateMI(labels, times, rng)
	return Attack{
		Adversary: a.Name(),
		Probes:    probes,
		Bits:      math.Min(mi.Bits, 1),
		Upper:     math.Min(mi.Upper, 1),
		Detail:    fmt.Sprintf("MI over secret pair (0, %d), %d recorded probes", last, mi.N),
	}, nil
}
