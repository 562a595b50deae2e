package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine/hw"
)

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	m.AddRequest(100)
	m.AddRequest(200)
	m.Add(Failures, 1)
	m.Add(Steps, 50)
	m.Add(Cycles, 300)
	m.Add(PaddingCycles, 120)
	m.Add(Mitigations, 2)
	m.Add(Mispredictions, 1)
	m.Add(ScheduleBumps, 3)
	s := m.Snapshot()
	if s.Requests != 2 || s.Failures != 1 {
		t.Errorf("requests/failures = %d/%d", s.Requests, s.Failures)
	}
	if s.Steps != 50 || s.Cycles != 300 || s.PaddingCycles != 120 {
		t.Errorf("steps/cycles/padding = %d/%d/%d", s.Steps, s.Cycles, s.PaddingCycles)
	}
	if s.Mitigations != 2 || s.Mispredictions != 1 || s.ScheduleBumps != 3 {
		t.Errorf("mitigations/misses/bumps = %d/%d/%d",
			s.Mitigations, s.Mispredictions, s.ScheduleBumps)
	}
	if got := s.UsefulCycles(); got != 180 {
		t.Errorf("UsefulCycles = %d, want 180", got)
	}
	if got := s.PaddingFraction(); got != 0.4 {
		t.Errorf("PaddingFraction = %f, want 0.4", got)
	}
	if s.Latency.Count != 2 || s.Latency.Sum != 300 {
		t.Errorf("latency count/sum = %d/%d", s.Latency.Count, s.Latency.Sum)
	}
}

func TestSnapshotEdgeCases(t *testing.T) {
	var s Snapshot
	if s.UsefulCycles() != 0 || s.PaddingFraction() != 0 {
		t.Error("zero snapshot should report zero cycles split")
	}
	// Padding reported past cycles (tearing between atomic loads) must
	// not underflow.
	s = Snapshot{Counts: Counts{Cycles: 10, PaddingCycles: 15}}
	if s.UsefulCycles() != 0 {
		t.Errorf("UsefulCycles under tear = %d, want 0", s.UsefulCycles())
	}
}

func TestSnapshotString(t *testing.T) {
	m := NewMetrics()
	m.AddRequest(64)
	m.Add(Mitigations, 1)
	m.Add(Mispredictions, 1)
	m.Add(Cycles, 100)
	m.Add(PaddingCycles, 25)
	s := m.Snapshot()
	s.HW = hw.Stats{L1DHits: 9, L1DMisses: 1}
	out := s.String()
	for _, want := range []string{
		"requests served:      1",
		"mitigations:          1 (1 mispredicted",
		"75 useful + 25 padding (25.0% padding)",
		"cache hit rates:      L1D 90.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)    // bucket 0
	h.Observe(1)    // bucket 1
	h.Observe(2)    // bucket 2
	h.Observe(3)    // bucket 2
	h.Observe(1000) // bucket 10 ([512, 1024))
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[2] != 2 || s.Buckets[10] != 1 {
		t.Errorf("buckets = %v", s.Buckets[:11])
	}
	if s.Count != 5 || s.Sum != 1006 {
		t.Errorf("count/sum = %d/%d", s.Count, s.Sum)
	}
	if got := s.Mean(); got != 1006.0/5 {
		t.Errorf("Mean = %f", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(10) // bucket 4, upper edge 15
	}
	h.Observe(100_000) // bucket 17, upper edge 131071
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 15 {
		t.Errorf("p50 = %d, want 15", q)
	}
	if q := s.Quantile(1); q != 131071 {
		t.Errorf("p100 = %d, want 131071", q)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	// Out-of-range q is clamped.
	if s.Quantile(-1) != 15 || s.Quantile(2) != 131071 {
		t.Error("quantile clamping failed")
	}
}

func TestMetricsStripes(t *testing.T) {
	m := NewMetrics()
	if m.Stripes() != 1 {
		t.Fatalf("fresh accumulator has %d stripes, want 1", m.Stripes())
	}
	// Handles share one accumulator: writes through any stripe handle
	// are visible in every handle's snapshot.
	s0 := m.Stripe(0)
	s3 := m.Stripe(3)
	if m.Stripes() != 4 {
		t.Fatalf("after Stripe(3): %d stripes, want 4", m.Stripes())
	}
	m.AddRequest(8)
	s0.AddRequest(16)
	s3.AddRequest(32)
	s3.Add(Failures, 1)
	for name, h := range map[string]*Metrics{"root": m, "s0": s0, "s3": s3} {
		s := h.Snapshot()
		if s.Requests != 3 || s.Failures != 1 {
			t.Errorf("%s snapshot requests/failures = %d/%d, want 3/1", name, s.Requests, s.Failures)
		}
		if s.Latency.Count != 3 || s.Latency.Sum != 56 {
			t.Errorf("%s latency count/sum = %d/%d, want 3/56", name, s.Latency.Count, s.Latency.Sum)
		}
	}
	// Stripe is stable: the same index maps to the same stripe, and the
	// root handle writes to stripe 0.
	if m.Stripe(3) == s3 {
		t.Error("Stripe should return a fresh handle value")
	}
	// Negative and huge indices are reduced into range, not grown
	// without bound.
	m.Stripe(-7).Add(Steps, 5)
	m.Stripe(maxStripes+2).Add(Steps, 7)
	if m.Stripes() > maxStripes {
		t.Errorf("stripes grew past bound: %d", m.Stripes())
	}
	if s := m.Snapshot(); s.Steps != 12 {
		t.Errorf("steps = %d, want 12", s.Steps)
	}
}

func TestMetricsStripedConcurrent(t *testing.T) {
	// Each goroutine writes through its own stripe — the pool's usage
	// pattern — and the merged snapshot must still be exact.
	m := NewMetrics()
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		h := m.Stripe(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.AddRequest(uint64(i))
				h.Add(Cycles, 3)
				h.Add(PaddingCycles, 1)
				h.Add(Mitigations, 1)
				if i%4 == 0 {
					h.Add(Mispredictions, 1)
				}
				h.Add(ScheduleBumps, 2)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	const n = writers * perWriter
	if s.Requests != n || s.Cycles != 3*n || s.PaddingCycles != n {
		t.Errorf("requests/cycles/padding = %d/%d/%d", s.Requests, s.Cycles, s.PaddingCycles)
	}
	if s.Mitigations != n || s.Mispredictions != n/4 || s.ScheduleBumps != 2*n {
		t.Errorf("mitigations/misses/bumps = %d/%d/%d", s.Mitigations, s.Mispredictions, s.ScheduleBumps)
	}
	if s.Latency.Count != n {
		t.Errorf("latency count = %d, want %d", s.Latency.Count, n)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.AddRequest(uint64(i))
				m.Add(Cycles, 2)
				m.Add(Mitigations, 1)
				if i%2 == 0 {
					m.Add(Mispredictions, 1)
				}
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Requests != 8000 || s.Cycles != 16000 || s.Mitigations != 8000 || s.Mispredictions != 4000 {
		t.Errorf("concurrent totals: %+v", s)
	}
	if s.Latency.Count != 8000 {
		t.Errorf("latency count = %d", s.Latency.Count)
	}
}

func TestShedCounter(t *testing.T) {
	m := NewMetrics()
	w := m.Stripe(1) // counters merge across stripes like the others
	m.Add(Sheds, 1)
	w.Add(Sheds, 1)
	s := m.Snapshot()
	if s.Sheds != 2 {
		t.Errorf("sheds = %d, want 2", s.Sheds)
	}
	if !strings.Contains(s.String(), "load shed:            2 requests") {
		t.Errorf("String omits the shed line:\n%s", s)
	}
	// A snapshot without sheds keeps the report uncluttered.
	if strings.Contains(NewMetrics().Snapshot().String(), "load shed:") {
		t.Error("shed-free snapshot renders a shed line")
	}
}

// TestCountsTable: Counts has one uint64 field per Counter constant,
// each with a distinct export key and Prometheus help text — what
// Snapshot, Export and WriteProm derive every counter from.
func TestCountsTable(t *testing.T) {
	ct := reflect.TypeOf(Counts{})
	if ct.NumField() != int(numCounters) {
		t.Fatalf("Counts has %d fields for %d Counter constants", ct.NumField(), numCounters)
	}
	seen := map[string]bool{}
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		key, help := f.Tag.Get("json"), f.Tag.Get("help")
		if f.Type.Kind() != reflect.Uint64 || key == "" || help == "" || seen[key] {
			t.Errorf("field %s: type %s, json %q, help %q, key seen before: %v", f.Name, f.Type, key, help, seen[key])
		}
		seen[key] = true
	}
}
