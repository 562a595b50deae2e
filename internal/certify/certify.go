// Package certify is the adversarial counterpart to the §7 leakage
// bound: it mounts black-box timing attacks against the running system
// and statistically certifies that the leakage an adversary actually
// measures never exceeds the bound the system reports.
//
// The paper's guarantee is quantitative — predictive mitigation caps
// what a timing adversary can learn at |L↑|·log2(K+1)·(1+log2 T) bits
// — and the service layer enforces that number at admission. But an
// enforced number is only as good as its relationship to reality.
// This package closes the loop: a Target wraps one configuration of
// the stack (a direct exec.Engine, a server.Pool with per-tenant
// sessions, or the HTTP transport through the client SDK) behind a
// pure probe-the-secret-observe-the-clock interface, an Adversary
// mounts an attack against it knowing nothing but response times, and
// Certify compares the measured information (upper confidence bound)
// against the §7 bound the target reported for exactly the probes the
// adversary spent. Mitigated configurations must certify; unmitigated
// baselines must measurably leak (the positive control that shows the
// estimators have teeth).
//
// Determinism: every random choice — sampling order, plant selection,
// bootstrap resampling — derives from splitmix.Mix64 (the splitmix64
// finalizer the client jitter also uses), so a certification run
// replays bit-for-bit from its seed.
package certify

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/machine/hw"
	"repro/internal/splitmix"
)

// ErrNotApplicable is returned by an Adversary whose observation
// channel the target does not expose (e.g. a cache prime+probe
// attacker mounted on a remote HTTP target). Certify skips such
// adversaries instead of failing the run.
var ErrNotApplicable = errors.New("certify: adversary not applicable to this target")

// Target is one configuration of the system under attack, reduced to
// the adversary's view: pick a secret index, get a clock observation.
// The secret space is indexed 0..Secrets()-1; Probe installs secret i
// and returns the response time the adversary would observe. Targets
// are stateful on purpose — caches stay warm and mitigation epochs
// advance across probes, exactly as they would for a real client — and
// are not safe for concurrent use.
type Target interface {
	// Name identifies the configuration in reports
	// (e.g. "engine/vm/partitioned/mitigated/login").
	Name() string
	// Secrets is the size N of the secret space.
	Secrets() int
	// Probe runs the target with secret index i and returns the
	// observed response time in simulated cycles.
	Probe(ctx context.Context, secret int) (uint64, error)
	// ReportedBits is the cumulative §7 leakage bound the system
	// reports for the probes spent so far. Configurations that disable
	// mitigation claim no bound and must return 0 — the paper's
	// guarantee is only for mitigated execution.
	ReportedBits() float64
	// Close releases the target's resources (pools, listeners).
	Close() error
}

// Coresident is implemented by targets whose machine environment the
// adversary shares — the paper's §2.1 threat model, where attacker and
// victim are tenants of the same hardware. Cache-probing adversaries
// type-assert to it and skip targets that are only reachable remotely.
type Coresident interface {
	// SharedEnv returns the machine environment the victim runs on.
	SharedEnv() hw.Env
	// HWConfig returns the environment's geometry — what a coresident
	// attacker learns offline (cache sets, associativity, block size)
	// to build eviction sets.
	HWConfig() hw.Config
}

// Attack is one adversary's outcome against one target.
type Attack struct {
	// Adversary names the attacker.
	Adversary string
	// Probes is how many probes the attack spent.
	Probes int
	// Bits is the attack's point estimate of extracted information.
	Bits float64
	// Upper is the attack's upper confidence bound on Bits — what
	// certification compares against the reported §7 bound. Equal to
	// Bits for deterministic attacks with no sampling error.
	Upper float64
	// Detail is a short human-readable account of the attack.
	Detail string
}

// Adversary mounts a black-box attack against a target. rng is the
// adversary's private deterministic randomness stream.
type Adversary interface {
	Name() string
	Mount(ctx context.Context, t Target, rng *RNG) (Attack, error)
}

// Result is the certification report for one target.
type Result struct {
	// Target is the attacked configuration's name.
	Target string
	// Secrets is the secret-space size; SecretBits its entropy log2 N
	// (the ceiling on what any attack can extract).
	Secrets    int
	SecretBits float64
	// Attacks holds each adversary's outcome, in mount order.
	Attacks []Attack
	// MeasuredBits is the largest point estimate across adversaries,
	// UpperBits the largest upper confidence bound; both are clamped
	// to SecretBits.
	MeasuredBits float64
	UpperBits    float64
	// ReportedBits is the §7 bound the system reported after all
	// probes (0 for unmitigated configurations, which claim nothing).
	ReportedBits float64
	// Probes is the total probes spent across adversaries.
	Probes int
	// Certified is the verdict: no adversary's upper confidence bound
	// exceeded the reported bound.
	Certified bool
}

// Verdict renders the boolean verdict the way reports print it.
func (r *Result) Verdict() string {
	if r.Certified {
		return "CERTIFIED"
	}
	return "LEAKS"
}

// Options configure a certification run.
type Options struct {
	// Seed drives every random choice; runs with equal seeds replay
	// bit-for-bit.
	Seed int64
	// Adversaries is the attack battery; nil selects the default:
	// exhaustive distinguisher, adaptive binary search, and the
	// mutual-information estimator.
	Adversaries []Adversary
}

// DefaultAdversaries is the standard battery Certify mounts when
// Options.Adversaries is nil.
func DefaultAdversaries() []Adversary {
	return []Adversary{&Exhaustive{}, &BinarySearch{}, &MIEstimator{}}
}

// Certify mounts every adversary against the target and compares the
// worst measured upper confidence bound against the §7 bound the
// target reports for the probes spent. Adversaries returning
// ErrNotApplicable are skipped.
func Certify(ctx context.Context, t Target, opts Options) (*Result, error) {
	advs := opts.Adversaries
	if advs == nil {
		advs = DefaultAdversaries()
	}
	n := t.Secrets()
	if n < 2 {
		return nil, fmt.Errorf("certify: target %s has %d secrets; need ≥ 2", t.Name(), n)
	}
	res := &Result{
		Target:     t.Name(),
		Secrets:    n,
		SecretBits: math.Log2(float64(n)),
	}
	rng := NewRNG(opts.Seed)
	for i, adv := range advs {
		att, err := adv.Mount(ctx, t, rng.Fork(uint64(i+1)))
		if errors.Is(err, ErrNotApplicable) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("certify: %s vs %s: %w", adv.Name(), t.Name(), err)
		}
		att.Bits = clamp(att.Bits, res.SecretBits)
		att.Upper = clamp(att.Upper, res.SecretBits)
		if att.Upper < att.Bits {
			att.Upper = att.Bits
		}
		res.Attacks = append(res.Attacks, att)
		res.Probes += att.Probes
		res.MeasuredBits = math.Max(res.MeasuredBits, att.Bits)
		res.UpperBits = math.Max(res.UpperBits, att.Upper)
	}
	if len(res.Attacks) == 0 {
		return nil, fmt.Errorf("certify: no adversary applied to target %s", t.Name())
	}
	res.ReportedBits = t.ReportedBits()
	res.Certified = res.UpperBits <= res.ReportedBits+1e-9
	return res, nil
}

func clamp(v, hi float64) float64 {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

// RNG is the deterministic randomness stream of an attack: a counter
// hashed through splitmix.Mix64 (splitmix64 finalization), so every draw
// is a pure function of (seed, draw index) and a run replays exactly.
type RNG struct {
	seed uint64
	ctr  uint64
}

// NewRNG returns a stream for the given seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: uint64(seed)} }

// Fork derives an independent stream; children with distinct tags are
// uncorrelated regardless of how much the parent has drawn.
func (r *RNG) Fork(tag uint64) *RNG {
	return &RNG{seed: splitmix.Mix64(r.seed, 0x5ec7e7, tag)}
}

// Uint64 returns the next draw.
func (r *RNG) Uint64() uint64 {
	r.ctr++
	return splitmix.Mix64(r.seed, r.ctr)
}

// Intn returns a draw in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("certify: Intn needs n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a draw in [0, 1), with the same 53-bit construction
// the client jitter uses.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Shuffle permutes idx in place (Fisher–Yates).
func (r *RNG) Shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}
