package obs

import (
	"fmt"
	"io"
	"math"
	"reflect"
)

// Export is the stable, versioned export schema of a metrics snapshot.
// It is the one shape external consumers — the /v1/metrics endpoint of
// internal/transport and the harness's JSON output — see, so the
// internal Snapshot (and the stripe layout behind it) can evolve
// without breaking them. Field names are frozen by the JSON tags and
// the golden wire fixtures in internal/transport/testdata/wire; any
// incompatible change must bump ExportSchemaVersion.
type Export struct {
	// SchemaVersion identifies this export layout; consumers should
	// reject versions they do not understand.
	SchemaVersion int `json:"schema_version"`
	// Counts flattens into one key per counter (see Counts).
	Counts
	// UsefulCycles = Cycles - PaddingCycles, precomputed so consumers
	// need no arithmetic over the schema.
	UsefulCycles uint64 `json:"useful_cycles"`
	// SessionsActive and StreamsActive are the live-session and
	// open-stream gauges.
	SessionsActive int64 `json:"sessions_active"`
	StreamsActive  int64 `json:"streams_active"`
	// Latency is the per-request response-time distribution in
	// simulated cycles.
	Latency LatencyExport `json:"latency"`
	// HW holds the hardware counters summed over the service's machine
	// environments.
	HW HWExport `json:"hw"`
}

// ExportSchemaVersion is the current Export layout version. Version 2
// added the tenant-session gauge and counters and version 3 the wire
// byte/stream accounting, both purely additive. Version 4 removed the
// faults, retries, breaker_opens and breaker_closes counters; a
// consumer that reads them must reject it.
const ExportSchemaVersion = 4

// LatencyExport is the stable form of the latency histogram: summary
// statistics plus sparse cumulative power-of-two buckets.
type LatencyExport struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	// P50/P99/Max are quantile upper bounds (bucket upper edges).
	P50 uint64 `json:"p50"`
	P99 uint64 `json:"p99"`
	Max uint64 `json:"max"`
	// Buckets are cumulative observation counts at increasing upper
	// bounds (Prometheus-style `le`); empty buckets are omitted, and
	// the final bucket's Count equals Count.
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// LatencyBucket is one cumulative histogram bucket: Count observations
// were ≤ Le cycles.
type LatencyBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HWExport is the stable form of the hardware counters, with hit rates
// precomputed.
type HWExport struct {
	L1DHits     uint64  `json:"l1d_hits"`
	L1DMisses   uint64  `json:"l1d_misses"`
	L2DHits     uint64  `json:"l2d_hits"`
	L2DMisses   uint64  `json:"l2d_misses"`
	L1IHits     uint64  `json:"l1i_hits"`
	L1IMisses   uint64  `json:"l1i_misses"`
	L2IHits     uint64  `json:"l2i_hits"`
	L2IMisses   uint64  `json:"l2i_misses"`
	DTLBHits    uint64  `json:"dtlb_hits"`
	DTLBMisses  uint64  `json:"dtlb_misses"`
	ITLBHits    uint64  `json:"itlb_hits"`
	ITLBMisses  uint64  `json:"itlb_misses"`
	BPHits      uint64  `json:"bp_hits"`
	BPMisses    uint64  `json:"bp_misses"`
	L1DHitRate  float64 `json:"l1d_hit_rate"`
	L2DHitRate  float64 `json:"l2d_hit_rate"`
	L1IHitRate  float64 `json:"l1i_hit_rate"`
	L2IHitRate  float64 `json:"l2i_hit_rate"`
	DTLBHitRate float64 `json:"dtlb_hit_rate"`
	ITLBHitRate float64 `json:"itlb_hit_rate"`
	BPHitRate   float64 `json:"bp_hit_rate"`
}

// Export converts the snapshot into the stable export schema.
func (s Snapshot) Export() Export {
	return Export{
		SchemaVersion:  ExportSchemaVersion,
		Counts:         s.Counts,
		UsefulCycles:   s.UsefulCycles(),
		SessionsActive: s.SessionsActive,
		StreamsActive:  s.StreamsActive,
		Latency:        s.Latency.Export(),
		HW: HWExport{
			L1DHits: s.HW.L1DHits, L1DMisses: s.HW.L1DMisses,
			L2DHits: s.HW.L2DHits, L2DMisses: s.HW.L2DMisses,
			L1IHits: s.HW.L1IHits, L1IMisses: s.HW.L1IMisses,
			L2IHits: s.HW.L2IHits, L2IMisses: s.HW.L2IMisses,
			DTLBHits: s.HW.DTLBHits, DTLBMisses: s.HW.DTLBMisses,
			ITLBHits: s.HW.ITLBHits, ITLBMisses: s.HW.ITLBMisses,
			BPHits: s.HW.BPHits, BPMisses: s.HW.BPMisses,
			L1DHitRate: s.HW.L1DHitRate(), L2DHitRate: s.HW.L2DHitRate(),
			L1IHitRate: s.HW.L1IHitRate(), L2IHitRate: s.HW.L2IHitRate(),
			DTLBHitRate: s.HW.DTLBHitRate(), ITLBHitRate: s.HW.ITLBHitRate(),
			BPHitRate: s.HW.BPHitRate(),
		},
	}
}

// Export converts the histogram snapshot into its stable form. Bucket
// upper bounds follow the internal power-of-two layout (bit length k
// covers values < 2^k), published as cumulative counts so consumers
// can difference or plot them directly.
func (s HistogramSnapshot) Export() LatencyExport {
	e := LatencyExport{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P99:   s.Quantile(0.99),
		Max:   s.Quantile(1),
	}
	var cum uint64
	for k, n := range s.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		le := ^uint64(0)
		if k < 64 {
			le = 1<<uint(k) - 1
		}
		e.Buckets = append(e.Buckets, LatencyBucket{Le: le, Count: cum})
	}
	return e
}

// WriteProm renders the export in the Prometheus text exposition format
// (version 0.0.4). Every number comes straight from the Export — the
// exposition is a projection of the stable schema, never a third
// accounting — so a scrape and a JSON export taken together always
// agree (modulo the race of two separate snapshots). Write errors are
// left to w: an HTTP response has no way to report them to its client.
func (e Export) WriteProm(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP timingc_%s %s\n# TYPE timingc_%s counter\ntimingc_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP timingc_%s %s\n# TYPE timingc_%s gauge\ntimingc_%s %g\n", name, help, name, name, v)
	}

	gauge("export_schema_version", "Schema version of the obs export these metrics project.", float64(e.SchemaVersion))
	ct, cv := reflect.TypeOf(e.Counts), reflect.ValueOf(e.Counts)
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		counter(f.Tag.Get("json")+"_total", f.Tag.Get("help"), cv.Field(i).Uint())
	}
	counter("useful_cycles_total", "Cycles spent on actual execution.", e.UsefulCycles)
	gauge("sessions_active", "Live tenant sessions.", float64(e.SessionsActive))
	gauge("streams_active", "Open /v1/stream connections.", float64(e.StreamsActive))

	// Latency as a native Prometheus histogram. The Export's buckets are
	// already cumulative with power-of-two upper bounds, which is exactly
	// the le-label contract.
	fmt.Fprintf(w, "# HELP timingc_latency_cycles Per-request response time in simulated cycles.\n")
	fmt.Fprintf(w, "# TYPE timingc_latency_cycles histogram\n")
	for _, b := range e.Latency.Buckets {
		if b.Le == math.MaxUint64 {
			// The top bucket is the +Inf bucket emitted below.
			continue
		}
		fmt.Fprintf(w, "timingc_latency_cycles_bucket{le=\"%d\"} %d\n", b.Le, b.Count)
	}
	fmt.Fprintf(w, "timingc_latency_cycles_bucket{le=\"+Inf\"} %d\n", e.Latency.Count)
	fmt.Fprintf(w, "timingc_latency_cycles_sum %d\n", e.Latency.Sum)
	fmt.Fprintf(w, "timingc_latency_cycles_count %d\n", e.Latency.Count)

	// Hardware counters, labeled by structure and event so dashboards
	// can compute any hit rate with a PromQL ratio.
	fmt.Fprintf(w, "# HELP timingc_hw_events_total Hardware structure hits and misses.\n")
	fmt.Fprintf(w, "# TYPE timingc_hw_events_total counter\n")
	for _, row := range []struct {
		unit         string
		hits, misses uint64
	}{
		{"l1d", e.HW.L1DHits, e.HW.L1DMisses},
		{"l2d", e.HW.L2DHits, e.HW.L2DMisses},
		{"l1i", e.HW.L1IHits, e.HW.L1IMisses},
		{"l2i", e.HW.L2IHits, e.HW.L2IMisses},
		{"dtlb", e.HW.DTLBHits, e.HW.DTLBMisses},
		{"itlb", e.HW.ITLBHits, e.HW.ITLBMisses},
		{"bp", e.HW.BPHits, e.HW.BPMisses},
	} {
		fmt.Fprintf(w, "timingc_hw_events_total{unit=%q,kind=\"hit\"} %d\n", row.unit, row.hits)
		fmt.Fprintf(w, "timingc_hw_events_total{unit=%q,kind=\"miss\"} %d\n", row.unit, row.misses)
	}
}
