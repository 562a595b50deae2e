package obs

import (
	"encoding/json"
	"testing"

	"repro/internal/machine/hw"
)

func TestSnapshotExportCopiesCounters(t *testing.T) {
	m := NewMetrics()
	m.AddRequest(100)
	m.AddRequest(3)
	m.Add(Failures, 1)
	m.Add(Steps, 7)
	m.Add(Cycles, 1000)
	m.Add(PaddingCycles, 250)
	m.Add(Mitigations, 1)
	m.Add(Mispredictions, 1)
	m.Add(ScheduleBumps, 2)
	m.Add(Sheds, 1)
	m.AddSessionCreated()
	m.AddSessionCreated()
	m.AddSessionEvicted(true)
	m.Add(BudgetDenials, 1)
	m.Add(BytesIn, 11)
	m.Add(BytesOut, 13)
	m.Add(StreamItems, 3)

	s := m.Snapshot()
	s.HW = hw.Stats{L1DHits: 9, L1DMisses: 1, BPHits: 3, BPMisses: 1}
	e := s.Export()

	if e.SchemaVersion != ExportSchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", e.SchemaVersion, ExportSchemaVersion)
	}
	if e.Requests != 2 || e.Failures != 1 || e.Steps != 7 {
		t.Errorf("counters: %+v", e)
	}
	if e.Cycles != 1000 || e.PaddingCycles != 250 || e.UsefulCycles != 750 {
		t.Errorf("cycle accounting: %+v", e)
	}
	if e.Mitigations != 1 || e.Mispredictions != 1 || e.ScheduleBumps != 2 {
		t.Errorf("mitigation accounting: %+v", e)
	}
	if e.Sheds != 1 {
		t.Errorf("shed accounting: %+v", e)
	}
	if e.SessionsCreated != 2 || e.SessionsActive != 1 || e.SessionsEvictedTTL != 1 ||
		e.SessionsEvictedLRU != 0 || e.BudgetDenials != 1 {
		t.Errorf("session accounting: %+v", e)
	}
	if e.BytesIn != 11 || e.BytesOut != 13 || e.StreamItems != 3 {
		t.Errorf("wire accounting: %+v", e)
	}
	if e.Latency.Count != 2 || e.Latency.Sum != 103 {
		t.Errorf("latency summary: %+v", e.Latency)
	}
	if e.HW.L1DHits != 9 || e.HW.L1DHitRate != 0.9 || e.HW.BPHitRate != 0.75 {
		t.Errorf("hw export: %+v", e.HW)
	}
}

func TestLatencyExportBucketsAreCumulative(t *testing.T) {
	var h Histogram
	h.Observe(0)  // bit length 0
	h.Observe(1)  // bit length 1, le 1
	h.Observe(3)  // bit length 2, le 3
	h.Observe(2)  // bit length 2
	h.Observe(70) // bit length 7, le 127

	e := h.Snapshot().Export()
	want := []LatencyBucket{{Le: 0, Count: 1}, {Le: 1, Count: 2}, {Le: 3, Count: 4}, {Le: 127, Count: 5}}
	if len(e.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", e.Buckets, want)
	}
	for i, b := range e.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	if last := e.Buckets[len(e.Buckets)-1]; last.Count != e.Count {
		t.Errorf("final cumulative count %d must equal Count %d", last.Count, e.Count)
	}
}

// The JSON field names are the contract with /v1/metrics consumers and
// the harness output; renaming or removing one is a schema break.
func TestExportJSONFieldNames(t *testing.T) {
	raw, err := json.Marshal(Snapshot{}.Export())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"schema_version", "requests", "failures", "steps", "cycles",
		"padding_cycles", "useful_cycles", "mitigations", "mispredictions",
		"schedule_bumps", "sheds", "sessions_active", "sessions_created",
		"sessions_evicted_ttl", "sessions_evicted_lru", "budget_denials",
		"bytes_in", "bytes_out", "stream_items", "streams_active",
		"latency", "hw",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("export JSON missing key %q", key)
		}
	}
	// Schema v4 removed the fault-injection, retry and breaker counters.
	for _, key := range []string{"faults", "retries", "breaker_opens", "breaker_closes"} {
		if _, ok := m[key]; ok {
			t.Errorf("export JSON still carries removed key %q", key)
		}
	}
	if v := m["schema_version"]; v != float64(4) {
		t.Errorf("schema_version = %v, want 4", v)
	}
}
