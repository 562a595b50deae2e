package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestCertifyRecordRoundTrips feeds the raw lines of the checked-in
// BENCH_certify.json back through the converter: the certification
// record is deterministic, so `make certify` must rewrite it byte for
// byte, and a summary rule that touched rows run once would break that.
func TestCertifyRecordRoundTrips(t *testing.T) {
	want, err := os.ReadFile("../../../BENCH_certify.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec Report
	if err := json.Unmarshal(want, &rec); err != nil {
		t.Fatal(err)
	}
	got, err := convert(strings.NewReader(strings.Join(rec.Raw, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-encoded BENCH_certify.json differs:\n%s", got)
	}
}

// TestRepeatedRunsSummary checks the one summary rule: a name that ran
// three times gets its run count and each unit's median, min and max,
// and a name that ran once gets no entry.
func TestRepeatedRunsSummary(t *testing.T) {
	in := `goos: linux
cpu: Test CPU
BenchmarkPool/workers=2-2   	 100	 300 ns/op	 9000 req/s	 2 allocs/op
BenchmarkPool/workers=2-2   	 100	 100 ns/op	 7000 req/s	 2 allocs/op
BenchmarkPool/workers=2-2   	 100	 200 ns/op	 8000 req/s	 4 allocs/op
BenchmarkOnce-2             	  10	 500 ns/op
`
	enc, err := convert(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(enc, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.CPU != "Test CPU" || rep.MaxProcs != 2 || len(rep.Raw) != 4 || rep.Summary != nil {
		t.Errorf("header: cpu %q, maxprocs %d, %d raw lines, summary %v", rep.CPU, rep.MaxProcs, len(rep.Raw), rep.Summary)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %v, want one entry", rep.Runs)
	}
	if _, ok := rep.Runs["BenchmarkOnce"]; ok {
		t.Error("a name that ran once must get no entry")
	}
	pool, ok := rep.Runs["BenchmarkPool/workers=2"]
	if !ok || pool.Count != 3 {
		t.Fatalf("BenchmarkPool/workers=2 = %+v, %v; want 3 runs", pool, ok)
	}
	for unit, want := range map[string]Spread{
		"ns/op":     {Median: 200, Min: 100, Max: 300},
		"req/s":     {Median: 8000, Min: 7000, Max: 9000},
		"allocs/op": {Median: 2, Min: 2, Max: 4},
	} {
		if got := pool.Units[unit]; got != want {
			t.Errorf("%s = %+v, want %+v", unit, got, want)
		}
	}
	if len(pool.Units) != 3 {
		t.Errorf("units = %v, want ns/op, req/s and allocs/op", pool.Units)
	}
}
