package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]time.Duration, 10)
	for i := range v {
		v[i] = time.Duration(10-i) * time.Millisecond
	}
	sortDurations(v)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0, time.Millisecond},
		{0.1, time.Millisecond},
		{0.5, 5 * time.Millisecond},
		{0.9, 9 * time.Millisecond},
		{0.91, 10 * time.Millisecond},
		{1, 10 * time.Millisecond},
	} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestScheduleIsFixedRate(t *testing.T) {
	t0 := time.Unix(100, 0)
	interval := time.Second / 4000
	for k, want := range []time.Duration{0, 250 * time.Microsecond, 500 * time.Microsecond} {
		if got := dueAt(t0, k, interval).Sub(t0); got != want {
			t.Errorf("send %d due at +%v, want +%v", k, got, want)
		}
	}
	// The timeline does not drift: send k is due k intervals in.
	if got := dueAt(t0, 4000*60, interval).Sub(t0); got != time.Minute {
		t.Errorf("send 240000 due at +%v, want +1m", got)
	}
	w := &workload{rate: 300}
	if got := sends(w, 14*time.Second); got != 4200 {
		t.Errorf("14s at 300/s = %d sends, want 4200", got)
	}
}

func TestSleepUntilIsPunctual(t *testing.T) {
	for _, d := range []time.Duration{0, 50 * time.Microsecond, 700 * time.Microsecond, 3 * time.Millisecond} {
		due := time.Now().Add(d)
		sleepUntil(due)
		if late := time.Since(due); late < 0 || late > 2*time.Millisecond {
			t.Errorf("sleepUntil(+%v) returned %v after the due time", d, late)
		}
	}
}

func TestKeepFiltersByFlag(t *testing.T) {
	got := keep([]time.Duration{1, 2, 3, 4}, []bool{true, false, false, true})
	if !reflect.DeepEqual(got, []time.Duration{1, 4}) {
		t.Errorf("keep = %v, want [1 4]", got)
	}
}

// TestSeedIsHonoured checks that the input stream is a function of the
// seed: equal seeds give equal items, different seeds different ones.
func TestSeedIsHonoured(t *testing.T) {
	for _, w := range workloads {
		same, diff := 0, 0
		for i := 0; i < 200; i++ {
			a, b, c := w.itemAt(7, i), w.itemAt(7, i), w.itemAt(8, i)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s item %d differs between two draws with seed 7", w.name, i)
			}
			if reflect.DeepEqual(a, c) {
				same++
			} else {
				diff++
			}
		}
		if diff < 150 {
			t.Errorf("%s: seeds 7 and 8 agree on %d of 200 items", w.name, same)
		}
	}
}

// TestLoginMixIsValidAndInvalid checks the login stream mixes attempts
// that reach password verification with ones that only scan.
func TestLoginMixIsValidAndInvalid(t *testing.T) {
	w, err := findWorkload("login-stream")
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for i := 0; i < 1000; i++ {
		in := w.itemAt(1, i).inputs
		if in["user"] == 0 && in["nvalid"] > 0 {
			valid++
		}
	}
	if valid < 200 || valid > 300 {
		t.Errorf("%d of 1000 login attempts are valid, want about a quarter", valid)
	}
}

// TestNamesMatchBenchmarkJSON checks that the workloads and metrics the
// benchmark prints are exactly those BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	check := func(kind string, spec []struct{ Name, Unit, Better string }, defs []metricDef) {
		var got []metricDef
		for _, m := range spec {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, defs) {
			t.Errorf("BENCHMARK.json %s %v, benchmark prints %v", kind, got, defs)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestReportPrintsEveryMetric checks the result line names every
// declared metric with its unit.
func TestReportPrintsEveryMetric(t *testing.T) {
	res := &result{correct: true, attempted: 3, values: map[string]float64{}}
	for i, d := range endToEnd {
		res.values[d.name] = float64(i) + 0.5
	}
	var out jsonLineBuffer
	if err := report(&out, res, endToEnd); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(out.last(), &line); err != nil {
		t.Fatalf("last line %q: %v", out.last(), err)
	}
	if !line.Correct || line.Attempted != 3 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("result line %+v", line)
	}
	for _, d := range endToEnd {
		if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
		}
	}
	delete(res.values, "p50_ms")
	if err := report(&out, res, endToEnd); err == nil {
		t.Error("report accepted a result missing p50_ms")
	}
}

type jsonLineBuffer struct{ lines [][]byte }

func (b *jsonLineBuffer) Write(p []byte) (int, error) {
	b.lines = append(b.lines, append([]byte(nil), p...))
	return len(p), nil
}

func (b *jsonLineBuffer) last() []byte { return b.lines[len(b.lines)-1] }
