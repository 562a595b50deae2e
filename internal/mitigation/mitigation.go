// Package mitigation implements the predictive timing-mitigation
// runtime of §7 (Fig. 6): prediction schemes and penalty policies that
// bound how much information the duration of a mitigate command can
// carry.
//
// The idea: each mitigate command gets a prediction of its body's
// execution time. If the body finishes early, the command idles until
// the prediction elapses, so its duration reveals nothing. On a
// misprediction the miss counter is incremented until the prediction
// covers the elapsed time, and the command is padded to the new
// prediction; subsequent predictions are inflated, making future
// mispredictions geometrically rarer. Durations therefore range over
// only the prediction schedule's values — logarithmically many in
// elapsed time for the doubling scheme — which is what Theorem 2 turns
// into a leakage bound.
package mitigation

import (
	"fmt"

	"repro/internal/lattice"
)

// Scheme maps an initial estimate and a miss count to a prediction.
type Scheme interface {
	// Predict returns the predicted duration in cycles for the given
	// initial estimate after misses mispredictions. Implementations
	// must be monotone in misses and satisfy Predict(n, m) ≥ 1.
	Predict(init int64, misses int) uint64
	// Name identifies the scheme in reports.
	Name() string
}

// FastDoubling is the paper's scheme: predict(n, ℓ) = max(n,1)·2^Miss[ℓ].
// Leakage grows polylogarithmically in elapsed time.
type FastDoubling struct{}

// Predict implements Scheme.
func (FastDoubling) Predict(init int64, misses int) uint64 {
	base := uint64(1)
	if init > 1 {
		base = uint64(init)
	}
	if misses >= 64 {
		return ^uint64(0) // saturate
	}
	shifted := base << uint(misses)
	if shifted>>uint(misses) != base {
		return ^uint64(0) // overflow: saturate
	}
	return shifted
}

// Name implements Scheme.
func (FastDoubling) Name() string { return "fast-doubling" }

// Linear is an ablation scheme: predict(n, m) = max(n,1)·(m+1). It
// mispredicts more often than doubling (leakage grows like √T rather
// than polylog T) but wastes less padding per miss.
type Linear struct{}

// Predict implements Scheme.
func (Linear) Predict(init int64, misses int) uint64 {
	base := uint64(1)
	if init > 1 {
		base = uint64(init)
	}
	return base * uint64(misses+1)
}

// Name implements Scheme.
func (Linear) Name() string { return "linear" }

// SlowDoubling generalizes the doubling scheme: the prediction doubles
// only on every Period-th miss — predict(n, m) = max(n,1)·2^⌊m/Period⌋.
// A mitigated body that overruns therefore pays Period penalty rounds
// before the schedule grows, trading extra (bounded) duration values
// for less over-padding once it stabilizes; Period 1 is FastDoubling.
type SlowDoubling struct {
	// Period is the misses-per-doubling count; values < 1 behave as 1.
	Period int
}

// Predict implements Scheme.
func (s SlowDoubling) Predict(init int64, misses int) uint64 {
	period := s.Period
	if period < 1 {
		period = 1
	}
	return FastDoubling{}.Predict(init, misses/period)
}

// Name implements Scheme.
func (s SlowDoubling) Name() string {
	return fmt.Sprintf("slow-doubling-%d", s.Period)
}

// Policy selects which miss counter a mitigate command uses.
type Policy int

const (
	// PerLevel is the paper's local penalty policy: one miss counter
	// per mitigation level ℓ. A misprediction at level ℓ inflates only
	// predictions at ℓ.
	PerLevel Policy = iota
	// Global uses a single miss counter for the whole program,
	// matching the original system-level predictive mitigation.
	Global
	// PerSite gives each mitigate identifier its own counter — the
	// least conservative policy, with a correspondingly larger leakage
	// bound (one log(K+1) term per site).
	PerSite
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PerLevel:
		return "per-level"
	case Global:
		return "global"
	case PerSite:
		return "per-site"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// State is the runtime mitigation state: the Miss array of Fig. 6. It
// is deterministic and cloneable, so interpreters can snapshot it.
type State struct {
	scheme Scheme
	policy Policy
	// byLevel is indexed by lattice label ID (PerLevel).
	byLevel []int
	global  int
	// bySite is indexed by mitigate identifier (PerSite).
	bySite map[int]int
}

// NewState creates mitigation state for the given lattice.
func NewState(lat lattice.Lattice, scheme Scheme, policy Policy) *State {
	if scheme == nil {
		scheme = FastDoubling{}
	}
	return &State{
		scheme:  scheme,
		policy:  policy,
		byLevel: make([]int, lat.Size()),
		bySite:  make(map[int]int),
	}
}

// Scheme returns the prediction scheme in use.
func (s *State) Scheme() Scheme { return s.scheme }

// Policy returns the penalty policy in use.
func (s *State) Policy() Policy { return s.policy }

// Misses returns the current miss count for a (level, site) pair.
func (s *State) Misses(level lattice.Label, site int) int {
	switch s.policy {
	case Global:
		return s.global
	case PerSite:
		return s.bySite[site]
	default:
		return s.byLevel[level.ID()]
	}
}

func (s *State) bump(level lattice.Label, site int) {
	switch s.policy {
	case Global:
		s.global++
	case PerSite:
		s.bySite[site]++
	default:
		s.byLevel[level.ID()]++
	}
}

// Predict returns the current prediction for a mitigate command with
// the given initial estimate, mitigation level, and site identifier.
func (s *State) Predict(init int64, level lattice.Label, site int) uint64 {
	return s.scheme.Predict(init, s.Misses(level, site))
}

// Penalize implements the update command of Fig. 6: while the elapsed
// time is at least the prediction, increment the miss counter. It
// returns the final prediction (≥ elapsed is NOT guaranteed for a
// saturating scheme, but the final prediction is always > elapsed for
// non-saturating inputs) and whether any misprediction occurred.
func (s *State) Penalize(init int64, level lattice.Label, site int, elapsed uint64) (pred uint64, miss bool) {
	pred = s.Predict(init, level, site)
	// Plateau schemes (SlowDoubling) legitimately return the same
	// prediction for several consecutive misses; only a long stretch of
	// stagnation means the scheme has saturated, at which point bail out
	// to keep the semantics total.
	stagnant := 0
	for elapsed >= pred {
		miss = true
		s.bump(level, site)
		next := s.Predict(init, level, site)
		if next <= pred {
			stagnant++
			if stagnant > 256 || next == ^uint64(0) {
				break
			}
			continue
		}
		stagnant = 0
		pred = next
	}
	return pred, miss
}

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	n := &State{
		scheme:  s.scheme,
		policy:  s.policy,
		byLevel: append([]int(nil), s.byLevel...),
		global:  s.global,
		bySite:  make(map[int]int, len(s.bySite)),
	}
	for k, v := range s.bySite {
		n.bySite[k] = v
	}
	return n
}

// Reset zeroes all miss counters in place, keeping the scheme and
// policy. It leaves the state exactly as NewState returned it, so
// a service can reuse one allocation across requests.
func (s *State) Reset() {
	for i := range s.byLevel {
		s.byLevel[i] = 0
	}
	s.global = 0
	if len(s.bySite) > 0 { // clear on an empty map still costs a runtime call
		clear(s.bySite)
	}
}

// CopyInto copies this state's counters into dst, which must have been
// created over the same lattice. Scheme and policy are not copied (dst
// keeps its own); this supports splicing persistent counters into fresh
// machines (the server runtime), where every state is the paper's
// fast-doubling, per-level one, so the two always agree.
func (s *State) CopyInto(dst *State) {
	copy(dst.byLevel, s.byLevel)
	dst.global = s.global
	if len(dst.bySite) > 0 {
		clear(dst.bySite)
	}
	for k, v := range s.bySite {
		dst.bySite[k] = v
	}
}

// Equal reports whether two states hold the same counters under the
// same scheme and policy.
func (s *State) Equal(o *State) bool {
	if s.policy != o.policy || s.scheme.Name() != o.scheme.Name() {
		return false
	}
	if s.global != o.global || len(s.byLevel) != len(o.byLevel) || len(s.bySite) != len(o.bySite) {
		return false
	}
	for i := range s.byLevel {
		if s.byLevel[i] != o.byLevel[i] {
			return false
		}
	}
	for k, v := range s.bySite {
		if o.bySite[k] != v {
			return false
		}
	}
	return true
}

// TotalMisses returns the sum of all miss counters — a rough measure of
// how much has been leaked so far.
func (s *State) TotalMisses() int {
	t := s.global
	for _, v := range s.byLevel {
		t += v
	}
	for _, v := range s.bySite {
		t += v
	}
	return t
}
