// Package obs is a lightweight instrumentation layer for the service
// runtime: concurrency-safe counters and a power-of-two latency
// histogram, aggregated into an immutable Snapshot for reporting.
//
// The counters are deliberately observational — recording them never
// changes simulated time or machine state, so instrumented runs remain
// bit-for-bit deterministic. All mutators are safe for concurrent use;
// a single Metrics value can be shared by every worker of a pool.
//
// Internally the accumulator is striped: Stripe(i) returns a handle
// whose mutators write to stripe i's cache-line-isolated counters, so
// concurrent workers never contend on shared cache lines; Snapshot
// merges every stripe. A handle obtained from NewMetrics writes to
// stripe 0, so single-writer callers need never know about striping.
package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/machine/hw"
)

// maxStripes bounds the stripe array; Stripe indices are reduced
// modulo this bound, which comfortably exceeds any realistic worker
// count while keeping pathological indices from allocating gigabytes.
const maxStripes = 256

// stripe holds one writer's private counters. Stripes are allocated
// individually (each lands in its own size class slot, a multiple of
// the cache line), so two stripes never share a cache line and
// cross-core writes never bounce.
type stripe struct {
	requests       atomic.Uint64
	failures       atomic.Uint64
	steps          atomic.Uint64
	cycles         atomic.Uint64
	paddingCycles  atomic.Uint64
	mitigations    atomic.Uint64
	mispredictions atomic.Uint64
	scheduleBumps  atomic.Uint64
	sheds          atomic.Uint64
	sessionsNew    atomic.Uint64
	sessionsTTL    atomic.Uint64
	sessionsLRU    atomic.Uint64
	budgetDenials  atomic.Uint64
	bytesIn        atomic.Uint64
	bytesOut       atomic.Uint64
	streamItems    atomic.Uint64
	latency        Histogram
}

// metricsState is the shared backing of every handle onto one
// accumulator: a copy-on-write stripe list, grown on demand by Stripe.
type metricsState struct {
	mu      sync.Mutex // serializes growth
	stripes atomic.Pointer[[]*stripe]
	// sessionsActive is a gauge, not a counter, so it cannot be striped:
	// increments and decrements from different handles must cancel in
	// one place. A single shared atomic is fine — session create/evict
	// is orders of magnitude rarer than per-request counter traffic.
	sessionsActive atomic.Int64
	// streamsActive gauges open /v1/stream connections; like
	// sessionsActive it is a shared gauge, and stream open/close is far
	// rarer than the per-item traffic it carries.
	streamsActive atomic.Int64
}

// Metrics accumulates service-layer counters. Construct with
// NewMetrics; handles derived with Stripe share one accumulator and may
// be used from any number of goroutines (each handle's writes land on
// its own stripe — point different workers at different stripes for a
// contention-free hot path).
type Metrics struct {
	state *metricsState
	local *stripe
}

// NewMetrics returns an empty metrics accumulator whose handle writes
// to stripe 0.
func NewMetrics() *Metrics {
	st := &metricsState{}
	s := &stripe{}
	sl := []*stripe{s}
	st.stripes.Store(&sl)
	return &Metrics{state: st, local: s}
}

// Stripe returns a handle onto the same accumulator whose mutators
// write to stripe i (reduced into range), growing the stripe list as
// needed. Snapshots taken through any handle see the merged totals.
// Typical use: a pool gives worker i the handle Stripe(i), so each
// shard's per-request counter updates stay on core-private cache lines.
func (m *Metrics) Stripe(i int) *Metrics {
	if i < 0 {
		i = -i
	}
	i %= maxStripes
	st := m.state
	if sl := *st.stripes.Load(); i < len(sl) {
		return &Metrics{state: st, local: sl[i]}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	sl := *st.stripes.Load()
	if i < len(sl) {
		return &Metrics{state: st, local: sl[i]}
	}
	grown := make([]*stripe, i+1)
	copy(grown, sl)
	for k := len(sl); k <= i; k++ {
		grown[k] = &stripe{}
	}
	st.stripes.Store(&grown)
	return &Metrics{state: st, local: grown[i]}
}

// Stripes returns the number of allocated stripes (mostly useful in
// tests and diagnostics).
func (m *Metrics) Stripes() int { return len(*m.state.stripes.Load()) }

// AddRequest records one served request and its response latency in
// simulated cycles.
func (m *Metrics) AddRequest(latency uint64) {
	m.local.requests.Add(1)
	m.local.latency.Observe(latency)
}

// AddFailure records one failed (aborted, over-budget, or canceled)
// request.
func (m *Metrics) AddFailure() { m.local.failures.Add(1) }

// AddSteps records language-level steps executed.
func (m *Metrics) AddSteps(n uint64) { m.local.steps.Add(n) }

// AddCycles records simulated cycles spent (useful work and padding
// together; padding is broken out by AddPadding).
func (m *Metrics) AddCycles(n uint64) { m.local.cycles.Add(n) }

// AddPadding records cycles spent idling to a mitigation prediction
// boundary rather than doing useful work.
func (m *Metrics) AddPadding(n uint64) { m.local.paddingCycles.Add(n) }

// AddMitigation records one completed mitigate command and whether it
// mispredicted.
func (m *Metrics) AddMitigation(mispredicted bool) {
	m.local.mitigations.Add(1)
	if mispredicted {
		m.local.mispredictions.Add(1)
	}
}

// AddScheduleBumps records miss-counter increments (schedule
// inflations); one misprediction may bump the counter several times.
func (m *Metrics) AddScheduleBumps(n uint64) { m.local.scheduleBumps.Add(n) }

// AddShed records one request rejected by load shedding (the caller
// got ErrOverloaded instead of unbounded queueing).
func (m *Metrics) AddShed() { m.local.sheds.Add(1) }

// AddSessionCreated records a new tenant session being admitted and
// bumps the sessions-active gauge.
func (m *Metrics) AddSessionCreated() {
	m.local.sessionsNew.Add(1)
	m.state.sessionsActive.Add(1)
}

// AddSessionEvicted records one session eviction and drops the gauge.
// ttl distinguishes idle-expiry evictions from LRU capacity evictions.
func (m *Metrics) AddSessionEvicted(ttl bool) {
	if ttl {
		m.local.sessionsTTL.Add(1)
	} else {
		m.local.sessionsLRU.Add(1)
	}
	m.state.sessionsActive.Add(-1)
}

// AddBudgetDenial records one request rejected at admission because
// the tenant's cumulative leakage budget would be exceeded.
func (m *Metrics) AddBudgetDenial() { m.local.budgetDenials.Add(1) }

// AddBytesIn records wire bytes read from request bodies.
func (m *Metrics) AddBytesIn(n int) { m.local.bytesIn.Add(uint64(n)) }

// AddBytesOut records wire bytes written to response bodies.
func (m *Metrics) AddBytesOut(n int) { m.local.bytesOut.Add(uint64(n)) }

// AddStreamItems records items served over /v1/stream connections.
func (m *Metrics) AddStreamItems(n int) { m.local.streamItems.Add(uint64(n)) }

// StreamOpened bumps the open-streams gauge; StreamClosed drops it.
func (m *Metrics) StreamOpened() { m.state.streamsActive.Add(1) }

// StreamClosed drops the open-streams gauge.
func (m *Metrics) StreamClosed() { m.state.streamsActive.Add(-1) }

// Snapshot returns a consistent-enough point-in-time copy of the
// counters, merged across every stripe. (Counters are read
// individually; a snapshot taken while requests are in flight may tear
// across fields, which is fine for reporting.) The HW field is left
// zero — the service layer that owns the machine environments fills it
// in.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	for _, st := range *m.state.stripes.Load() {
		s.Requests += st.requests.Load()
		s.Failures += st.failures.Load()
		s.Steps += st.steps.Load()
		s.Cycles += st.cycles.Load()
		s.PaddingCycles += st.paddingCycles.Load()
		s.Mitigations += st.mitigations.Load()
		s.Mispredictions += st.mispredictions.Load()
		s.ScheduleBumps += st.scheduleBumps.Load()
		s.Sheds += st.sheds.Load()
		s.SessionsCreated += st.sessionsNew.Load()
		s.SessionsEvictedTTL += st.sessionsTTL.Load()
		s.SessionsEvictedLRU += st.sessionsLRU.Load()
		s.BudgetDenials += st.budgetDenials.Load()
		s.BytesIn += st.bytesIn.Load()
		s.BytesOut += st.bytesOut.Load()
		s.StreamItems += st.streamItems.Load()
		s.Latency = s.Latency.Merge(st.latency.Snapshot())
	}
	s.SessionsActive = m.state.sessionsActive.Load()
	s.StreamsActive = m.state.streamsActive.Load()
	return s
}

// Snapshot is a plain-value copy of the metrics, suitable for
// rendering, JSON export, and assertions.
type Snapshot struct {
	// Requests and Failures count completed and aborted requests.
	Requests, Failures uint64
	// Steps and Cycles are the total language steps and simulated
	// cycles executed; PaddingCycles is the share of Cycles spent
	// idling to mitigation prediction boundaries.
	Steps, Cycles, PaddingCycles uint64
	// Mitigations counts completed mitigate commands; Mispredictions
	// those that missed; ScheduleBumps the miss-counter increments.
	Mitigations, Mispredictions, ScheduleBumps uint64
	// Sheds counts the requests rejected by load shedding.
	Sheds uint64
	// Session accounting: SessionsCreated counts tenant sessions ever
	// admitted; SessionsEvictedTTL/LRU the evictions by cause;
	// BudgetDenials the requests rejected over leakage budget;
	// SessionsActive the point-in-time gauge of live sessions.
	SessionsCreated    uint64
	SessionsEvictedTTL uint64
	SessionsEvictedLRU uint64
	BudgetDenials      uint64
	SessionsActive     int64
	// Wire accounting: BytesIn/BytesOut are request/response body bytes
	// moved by the transport; StreamItems counts items served over
	// /v1/stream; StreamsActive gauges open stream connections.
	BytesIn, BytesOut uint64
	StreamItems       uint64
	StreamsActive     int64
	// Latency is the distribution of per-request response times.
	Latency HistogramSnapshot
	// HW holds cumulative cache/TLB/branch-predictor counters, summed
	// over the service's machine environments.
	HW hw.Stats
}

// UsefulCycles returns the cycles spent on actual execution rather
// than padding.
func (s Snapshot) UsefulCycles() uint64 {
	if s.PaddingCycles > s.Cycles {
		return 0
	}
	return s.Cycles - s.PaddingCycles
}

// PaddingFraction returns padding cycles as a fraction of all cycles.
func (s Snapshot) PaddingFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.PaddingCycles) / float64(s.Cycles)
}

// Merge returns the field-wise sum of two snapshots.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := s
	out.Requests += o.Requests
	out.Failures += o.Failures
	out.Steps += o.Steps
	out.Cycles += o.Cycles
	out.PaddingCycles += o.PaddingCycles
	out.Mitigations += o.Mitigations
	out.Mispredictions += o.Mispredictions
	out.ScheduleBumps += o.ScheduleBumps
	out.Sheds += o.Sheds
	out.SessionsCreated += o.SessionsCreated
	out.SessionsEvictedTTL += o.SessionsEvictedTTL
	out.SessionsEvictedLRU += o.SessionsEvictedLRU
	out.BudgetDenials += o.BudgetDenials
	out.SessionsActive += o.SessionsActive
	out.BytesIn += o.BytesIn
	out.BytesOut += o.BytesOut
	out.StreamItems += o.StreamItems
	out.StreamsActive += o.StreamsActive
	out.Latency = s.Latency.Merge(o.Latency)
	out.HW = s.HW.Add(o.HW)
	return out
}

// String renders the snapshot as the human-readable report printed by
// cmd/harness and the CLI.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests served:      %d (%d failed)\n", s.Requests, s.Failures)
	fmt.Fprintf(&b, "language steps:       %d\n", s.Steps)
	fmt.Fprintf(&b, "cycles:               %d total = %d useful + %d padding (%.1f%% padding)\n",
		s.Cycles, s.UsefulCycles(), s.PaddingCycles, 100*s.PaddingFraction())
	fmt.Fprintf(&b, "mitigations:          %d (%d mispredicted, %d schedule bumps)\n",
		s.Mitigations, s.Mispredictions, s.ScheduleBumps)
	if s.Sheds > 0 {
		fmt.Fprintf(&b, "load shed:            %d requests\n", s.Sheds)
	}
	if s.SessionsCreated+s.BudgetDenials > 0 {
		fmt.Fprintf(&b, "tenant sessions:      %d active / %d created, evicted %d ttl + %d lru, %d budget denials\n",
			s.SessionsActive, s.SessionsCreated, s.SessionsEvictedTTL, s.SessionsEvictedLRU, s.BudgetDenials)
	}
	fmt.Fprintf(&b, "latency cycles:       mean %.0f, p50 ≤ %d, p99 ≤ %d, max ≤ %d\n",
		s.Latency.Mean(), s.Latency.Quantile(0.50), s.Latency.Quantile(0.99), s.Latency.Quantile(1))
	fmt.Fprintf(&b, "cache hit rates:      L1D %.1f%%  L2D %.1f%%  L1I %.1f%%  L2I %.1f%%\n",
		100*s.HW.L1DHitRate(), 100*s.HW.L2DHitRate(), 100*s.HW.L1IHitRate(), 100*s.HW.L2IHitRate())
	fmt.Fprintf(&b, "TLB/BP hit rates:     DTLB %.1f%%  ITLB %.1f%%  BP %.1f%%\n",
		100*s.HW.DTLBHitRate(), 100*s.HW.ITLBHitRate(), 100*s.HW.BPHitRate())
	return b.String()
}

// ---------------------------------------------------------------------------
// Histogram

// histBuckets is one bucket per possible bit length of a uint64 value
// (0 → bucket 0, [2^(k-1), 2^k) → bucket k).
const histBuckets = 65

// Histogram is a concurrency-safe power-of-two histogram. The zero
// value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram into a plain value.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Buckets[k] counts observations with bit length k, i.e. values in
	// [2^(k-1), 2^k) for k ≥ 1 and the value 0 for k = 0.
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
}

// Mean returns the exact mean of all observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]):
// the upper edge of the bucket containing it. Returns 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for k, n := range s.Buckets {
		seen += n
		if seen > rank {
			if k == 0 {
				return 0
			}
			if k == 64 {
				return ^uint64(0)
			}
			return 1<<uint(k) - 1
		}
	}
	return ^uint64(0)
}

// Merge returns the bucket-wise sum of two snapshots.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := s
	for i := range out.Buckets {
		out.Buckets[i] += o.Buckets[i]
	}
	out.Count += o.Count
	out.Sum += o.Sum
	return out
}
