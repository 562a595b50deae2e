// Package obs is a lightweight instrumentation layer for the service
// runtime: concurrency-safe counters and a power-of-two latency
// histogram, aggregated into an immutable Snapshot for reporting.
//
// Every counter is declared once, as a tagged field of Counts indexed
// by a Counter constant. The stripe storage, Snapshot, the JSON Export
// and the Prometheus exposition are all derived from that one table.
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
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/machine/hw"
)

// Counter indexes a field of Counts; the constants below follow the
// field order. Add(c, n) bumps counter c.
type Counter int

const (
	Requests Counter = iota
	Failures
	Steps
	Cycles
	PaddingCycles
	Mitigations
	Mispredictions
	ScheduleBumps
	Sheds
	SessionsCreated
	SessionsEvictedTTL
	SessionsEvictedLRU
	BudgetDenials
	BytesIn
	BytesOut
	StreamItems
	numCounters
)

// Counts is the counter table: one field per Counter, in constant
// order. A field's json tag is its export key and names its Prometheus
// series timingc_<key>_total; its help tag is that series' help text.
// Adding a counter takes one constant above and one tagged field here.
// ScheduleBumps counts miss-counter increments: one misprediction may
// bump the counter several times.
type Counts struct {
	Requests           uint64 `json:"requests" help:"Requests served."`
	Failures           uint64 `json:"failures" help:"Requests that failed (aborted, over budget, or canceled)."`
	Steps              uint64 `json:"steps" help:"Language-level steps executed."`
	Cycles             uint64 `json:"cycles" help:"Simulated cycles spent (useful work plus padding)."`
	PaddingCycles      uint64 `json:"padding_cycles" help:"Cycles spent idling to mitigation prediction boundaries."`
	Mitigations        uint64 `json:"mitigations" help:"Completed mitigate commands."`
	Mispredictions     uint64 `json:"mispredictions" help:"Mitigate executions that overran their prediction."`
	ScheduleBumps      uint64 `json:"schedule_bumps" help:"Mitigation schedule inflations."`
	Sheds              uint64 `json:"sheds" help:"Requests rejected by load shedding."`
	SessionsCreated    uint64 `json:"sessions_created" help:"Tenant sessions admitted."`
	SessionsEvictedTTL uint64 `json:"sessions_evicted_ttl" help:"Sessions evicted after idle TTL expiry."`
	SessionsEvictedLRU uint64 `json:"sessions_evicted_lru" help:"Sessions evicted by the LRU capacity bound."`
	BudgetDenials      uint64 `json:"budget_denials" help:"Requests rejected over the tenant leakage budget."`
	BytesIn            uint64 `json:"bytes_in" help:"Request body bytes read by the transport."`
	BytesOut           uint64 `json:"bytes_out" help:"Response body bytes written by the transport."`
	StreamItems        uint64 `json:"stream_items" help:"Items served over /v1/stream connections."`
}

// maxStripes bounds the stripe array; Stripe indices are reduced
// modulo this bound, which comfortably exceeds any realistic worker
// count while keeping pathological indices from allocating gigabytes.
const maxStripes = 256

// stripe holds one writer's private counters. Stripes are allocated
// individually (each lands in its own size class slot, a multiple of
// the cache line), so two stripes never share a cache line and
// cross-core writes never bounce.
type stripe struct {
	counts  [numCounters]atomic.Uint64
	latency Histogram
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

// Add adds n to counter c. Requests and the session counters have
// their own mutators below, which also feed the latency histogram or
// the sessions-active gauge.
func (m *Metrics) Add(c Counter, n uint64) { m.local.counts[c].Add(n) }

// AddRequest records one served request and its response latency in
// simulated cycles.
func (m *Metrics) AddRequest(latency uint64) {
	m.local.counts[Requests].Add(1)
	m.local.latency.Observe(latency)
}

// AddSessionCreated records a new tenant session being admitted and
// bumps the sessions-active gauge.
func (m *Metrics) AddSessionCreated() {
	m.local.counts[SessionsCreated].Add(1)
	m.state.sessionsActive.Add(1)
}

// AddSessionEvicted records one session eviction and drops the gauge.
// ttl distinguishes idle-expiry evictions from LRU capacity evictions.
func (m *Metrics) AddSessionEvicted(ttl bool) {
	if ttl {
		m.local.counts[SessionsEvictedTTL].Add(1)
	} else {
		m.local.counts[SessionsEvictedLRU].Add(1)
	}
	m.state.sessionsActive.Add(-1)
}

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
	var sum [numCounters]uint64
	for _, st := range *m.state.stripes.Load() {
		for c := range sum {
			sum[c] += st.counts[c].Load()
		}
		s.Latency = s.Latency.Merge(st.latency.Snapshot())
	}
	counts := reflect.ValueOf(&s.Counts).Elem()
	for c, v := range sum {
		counts.Field(c).SetUint(v)
	}
	s.SessionsActive = m.state.sessionsActive.Load()
	s.StreamsActive = m.state.streamsActive.Load()
	return s
}

// Snapshot is a plain-value copy of the metrics, suitable for
// rendering, JSON export, and assertions.
type Snapshot struct {
	Counts
	// SessionsActive and StreamsActive are point-in-time gauges of live
	// tenant sessions and open /v1/stream connections.
	SessionsActive, StreamsActive int64
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
