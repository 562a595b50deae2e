// Command benchjson converts `go test -bench` output into a JSON
// report. The raw benchmark lines are preserved verbatim (so benchstat
// can still consume them after extraction), every metric pair is
// parsed into a map, and one rule summarises repeated runs: each
// benchmark name that ran more than once (`-count N`) gets its run
// count and the median, min and max of each unit. A certification
// sweep (internal/tools/certifybench output) also gets its verdict
// counts.
//
// Usage:
//
//	go test -run '^$' -bench . -count 3 ... | go run ./internal/tools/benchjson -o BENCH_engines.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix trimmed.
	Name string `json:"name"`
	// Iterations is b.N for the run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every "value unit" pair on the
	// line (ns/op, req/s, us/req, B/op, allocs/op, ...).
	Metrics map[string]float64 `json:"metrics"`
}

// Spread is one unit's median, min and max over a benchmark's runs.
type Spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// RunSummary summarises the runs of one benchmark name.
type RunSummary struct {
	// Count is the number of result lines with this name.
	Count int `json:"count"`
	// Units maps each unit reported by those lines to its spread.
	Units map[string]Spread `json:"units"`
}

// Report is the full document written to the output file.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// MaxProcs is GOMAXPROCS for the run, recovered from the -N suffix
	// Go appends to benchmark names. Scaling numbers are meaningless
	// without it: worker counts beyond MaxProcs cannot speed up
	// wall-clock time.
	MaxProcs int `json:"maxprocs,omitempty"`
	// Raw holds the benchmark result lines verbatim, in input order —
	// feed them to benchstat to compare runs.
	Raw []string `json:"raw"`
	// Benchmarks holds the parsed lines, in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Summary holds a certification sweep's verdict counts; see
	// certifySummary.
	Summary map[string]float64 `json:"summary,omitempty"`
	// Runs maps each benchmark name that ran more than once to its run
	// count and the spread of each unit; a name that ran once has no
	// entry.
	Runs map[string]RunSummary `json:"runs,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	enc, err := convert(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// convert parses benchmark output and returns the report's JSON
// encoding, newline-terminated.
func convert(in io.Reader) ([]byte, error) {
	rep := parse(bufio.NewScanner(in))
	rep.Summary = certifySummary(rep.Benchmarks)
	rep.Runs = repeated(rep.Benchmarks)
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

func parse(sc *bufio.Scanner) *Report {
	rep := &Report{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			if rep.Pkg == "" {
				rep.Pkg = strings.TrimPrefix(line, "pkg: ")
			}
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       trimProcs(m[1]),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		if rep.MaxProcs == 0 && b.Name != m[1] {
			if n, err := strconv.Atoi(m[1][strings.LastIndex(m[1], "-")+1:]); err == nil {
				rep.MaxProcs = n
			}
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[fields[i+1]] = v
		}
		rep.Raw = append(rep.Raw, line)
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	// Go only appends the -N suffix when GOMAXPROCS != 1, so absence
	// of a suffix on parsed lines means the run was single-proc.
	if rep.MaxProcs == 0 && len(rep.Benchmarks) > 0 {
		rep.MaxProcs = 1
	}
	return rep
}

// trimProcs drops the trailing -N GOMAXPROCS suffix Go appends to
// benchmark names.
func trimProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// repeated applies the one summary rule: for each benchmark name that
// ran more than once, the run count and the median, min and max of
// each unit over its runs.
func repeated(benches []Benchmark) map[string]RunSummary {
	byName := map[string][]Benchmark{}
	for _, b := range benches {
		byName[b.Name] = append(byName[b.Name], b)
	}
	out := map[string]RunSummary{}
	for name, runs := range byName {
		if len(runs) < 2 {
			continue
		}
		values := map[string][]float64{}
		for _, b := range runs {
			for unit, v := range b.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		r := RunSummary{Count: len(runs), Units: map[string]Spread{}}
		for unit, vs := range values {
			sort.Float64s(vs)
			mid := len(vs) / 2
			median := vs[mid]
			if len(vs)%2 == 0 {
				median = (vs[mid-1] + vs[mid]) / 2
			}
			r.Units[unit] = Spread{Median: median, Min: vs[0], Max: vs[len(vs)-1]}
		}
		out[name] = r
	}
	return out
}

// certifySummary derives the leakage-certification record from
// BenchmarkCertify rows (internal/tools/certifybench output): row and
// certified-row counts, how many mitigated rows certified out of how
// many ran, and the worst measured leakage on each side of the
// mitigation switch. All inputs are deterministic functions of the
// sweep seed, so the summary — like the rows — is byte-stable. It
// returns nil when there are no certification rows.
func certifySummary(benches []Benchmark) map[string]float64 {
	var rows, certified, mit, mitCertified float64
	maxUnmit, maxMitUpper := 0.0, 0.0
	for _, b := range benches {
		if !strings.HasPrefix(b.Name, "BenchmarkCertify/") {
			continue
		}
		rows++
		certified += b.Metrics["certified"]
		mitigated := strings.HasSuffix(b.Name, "/mit=on")
		if mitigated {
			mit++
			mitCertified += b.Metrics["certified"]
			if u := b.Metrics["upper_bits"]; u > maxMitUpper {
				maxMitUpper = u
			}
		} else if m := b.Metrics["measured_bits"]; m > maxUnmit {
			maxUnmit = m
		}
	}
	if rows == 0 {
		return nil
	}
	return map[string]float64{
		"certify_rows":                          rows,
		"certify_certified":                     certified,
		"certify_mitigated_rows":                mit,
		"certify_mitigated_certified":           mitCertified,
		"certify_max_unmitigated_measured_bits": maxUnmit,
		"certify_max_mitigated_upper_bits":      maxMitUpper,
	}
}
