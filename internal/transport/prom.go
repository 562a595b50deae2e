package transport

import (
	"fmt"
	"io"
	"math"

	"repro/internal/obs"
)

// writeProm renders an obs.Export in the Prometheus text exposition
// format (version 0.0.4). Every number comes straight from the Export —
// the exposition is a projection of the stable schema, never a third
// accounting — so a scrape and a JSON export taken together always
// agree (modulo the race of two separate snapshots).
func writeProm(w io.Writer, e obs.Export) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP timingc_%s %s\n# TYPE timingc_%s counter\ntimingc_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP timingc_%s %s\n# TYPE timingc_%s gauge\ntimingc_%s %g\n", name, help, name, name, v)
	}

	gauge("export_schema_version", "Schema version of the obs export these metrics project.", float64(e.SchemaVersion))
	counter("requests_total", "Requests served.", e.Requests)
	counter("failures_total", "Requests that failed (aborted, over budget, or canceled).", e.Failures)
	counter("steps_total", "Language-level steps executed.", e.Steps)
	counter("cycles_total", "Simulated cycles spent (useful work plus padding).", e.Cycles)
	counter("padding_cycles_total", "Cycles spent idling to mitigation prediction boundaries.", e.PaddingCycles)
	counter("useful_cycles_total", "Cycles spent on actual execution.", e.UsefulCycles)
	counter("mitigations_total", "Completed mitigate commands.", e.Mitigations)
	counter("mispredictions_total", "Mitigate executions that overran their prediction.", e.Mispredictions)
	counter("schedule_bumps_total", "Mitigation schedule inflations.", e.ScheduleBumps)
	counter("sheds_total", "Requests rejected by load shedding.", e.Sheds)
	gauge("sessions_active", "Live tenant sessions.", float64(e.SessionsActive))
	counter("sessions_created_total", "Tenant sessions admitted.", e.SessionsCreated)
	counter("sessions_evicted_ttl_total", "Sessions evicted after idle TTL expiry.", e.SessionsEvictedTTL)
	counter("sessions_evicted_lru_total", "Sessions evicted by the LRU capacity bound.", e.SessionsEvictedLRU)
	counter("budget_denials_total", "Requests rejected over the tenant leakage budget.", e.BudgetDenials)
	counter("bytes_in_total", "Request body bytes read by the transport.", e.BytesIn)
	counter("bytes_out_total", "Response body bytes written by the transport.", e.BytesOut)
	counter("stream_items_total", "Items served over /v1/stream connections.", e.StreamItems)
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
