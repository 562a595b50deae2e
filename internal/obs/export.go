package obs

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
	// Requests and Failures count completed and aborted requests.
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	// Steps, Cycles, PaddingCycles, and UsefulCycles account for the
	// work executed; UsefulCycles = Cycles - PaddingCycles is
	// precomputed so consumers need no arithmetic over the schema.
	Steps         uint64 `json:"steps"`
	Cycles        uint64 `json:"cycles"`
	PaddingCycles uint64 `json:"padding_cycles"`
	UsefulCycles  uint64 `json:"useful_cycles"`
	// Mitigation accounting (paper §6: completed mitigate commands,
	// mispredictions, and schedule inflations).
	Mitigations    uint64 `json:"mitigations"`
	Mispredictions uint64 `json:"mispredictions"`
	ScheduleBumps  uint64 `json:"schedule_bumps"`
	// Sheds counts requests rejected by load shedding.
	Sheds uint64 `json:"sheds"`
	// Tenant-session accounting (schema v2).
	SessionsActive     int64  `json:"sessions_active"`
	SessionsCreated    uint64 `json:"sessions_created"`
	SessionsEvictedTTL uint64 `json:"sessions_evicted_ttl"`
	SessionsEvictedLRU uint64 `json:"sessions_evicted_lru"`
	BudgetDenials      uint64 `json:"budget_denials"`
	// Wire accounting (schema v3): request/response body bytes moved by
	// the transport, items served over /v1/stream, and the open-streams
	// gauge.
	BytesIn       uint64 `json:"bytes_in"`
	BytesOut      uint64 `json:"bytes_out"`
	StreamItems   uint64 `json:"stream_items"`
	StreamsActive int64  `json:"streams_active"`
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
		SchemaVersion:      ExportSchemaVersion,
		Requests:           s.Requests,
		Failures:           s.Failures,
		Steps:              s.Steps,
		Cycles:             s.Cycles,
		PaddingCycles:      s.PaddingCycles,
		UsefulCycles:       s.UsefulCycles(),
		Mitigations:        s.Mitigations,
		Mispredictions:     s.Mispredictions,
		ScheduleBumps:      s.ScheduleBumps,
		Sheds:              s.Sheds,
		SessionsActive:     s.SessionsActive,
		SessionsCreated:    s.SessionsCreated,
		SessionsEvictedTTL: s.SessionsEvictedTTL,
		SessionsEvictedLRU: s.SessionsEvictedLRU,
		BudgetDenials:      s.BudgetDenials,
		BytesIn:            s.BytesIn,
		BytesOut:           s.BytesOut,
		StreamItems:        s.StreamItems,
		StreamsActive:      s.StreamsActive,
		Latency:            s.Latency.Export(),
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
