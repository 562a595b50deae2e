// Command benchjson converts `go test -bench` output into a JSON
// report. The raw benchmark lines are preserved verbatim (so benchstat
// can still consume them after extraction), every metric pair is
// parsed into a map, and two derived summaries are computed:
// engine-vs-engine throughput ratios for BenchmarkServerPool (the
// service-path headline), and per-worker-count speedup plus scaling
// efficiency (req/s at N workers ÷ N·req/s at 1) for
// BenchmarkPoolScaling (the multi-core scaling record).
//
// Usage:
//
//	go test -run '^$' -bench . ... | go run ./internal/tools/benchjson -o BENCH_engines.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
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
	// Summary maps a derived-statistic name to its value; see
	// summarize for the engine throughput ratios.
	Summary map[string]float64 `json:"summary,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep := parse(bufio.NewScanner(os.Stdin))
	rep.Summary = summarize(rep.Benchmarks)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
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

// summarize derives engine throughput ratios: for every
// BenchmarkServerPool worker count that has both an engine=tree and an
// engine=vm run, it emits the mean req/s of each and their ratio as
// vm_vs_tree_req_per_s/workers=N. Multiple -count runs average.
func summarize(benches []Benchmark) map[string]float64 {
	type acc struct {
		sum float64
		n   int
	}
	// key: engine|workers
	groups := map[string]*acc{}
	for _, b := range benches {
		if !strings.HasPrefix(b.Name, "BenchmarkServerPool/") {
			continue
		}
		rps, ok := b.Metrics["req/s"]
		if !ok {
			continue
		}
		key := strings.TrimPrefix(b.Name, "BenchmarkServerPool/")
		a := groups[key]
		if a == nil {
			a = &acc{}
			groups[key] = a
		}
		a.sum += rps
		a.n++
	}
	sum := map[string]float64{}
	for key, a := range groups {
		sum["mean_req_per_s/"+key] = a.sum / float64(a.n)
	}
	for key, tree := range groups {
		if !strings.HasPrefix(key, "engine=tree/") {
			continue
		}
		rest := strings.TrimPrefix(key, "engine=tree/")
		vm, ok := groups["engine=vm/"+rest]
		if !ok || tree.sum == 0 {
			continue
		}
		ratio := (vm.sum / float64(vm.n)) / (tree.sum / float64(tree.n))
		sum["vm_vs_tree_req_per_s/"+rest] = ratio
	}
	scaling(benches, sum)
	vmopt(benches, sum)
	transport(benches, sum)
	certifySummary(benches, sum)
	if len(sum) == 0 {
		return nil
	}
	return sum
}

// vmoptName parses "BenchmarkVMOpt/workers=M".
var vmoptName = regexp.MustCompile(`^BenchmarkVMOpt/(workers=\d+)$`)

// vmopt derives the VM throughput record from BenchmarkVMOpt runs: the
// mean req/s per worker count. Multiple -count runs average.
func vmopt(benches []Benchmark, sum map[string]float64) {
	type acc struct {
		sum float64
		n   int
	}
	// key: "workers=M"
	groups := map[string]*acc{}
	for _, b := range benches {
		m := vmoptName.FindStringSubmatch(b.Name)
		if m == nil {
			continue
		}
		rps, ok := b.Metrics["req/s"]
		if !ok {
			continue
		}
		a := groups[m[1]]
		if a == nil {
			a = &acc{}
			groups[m[1]] = a
		}
		a.sum += rps
		a.n++
	}
	for key, a := range groups {
		sum["mean_req_per_s/"+key] = a.sum / float64(a.n)
	}
}

// transportName parses "BenchmarkTransport/mode=M".
var transportName = regexp.MustCompile(`^BenchmarkTransport/mode=([a-z]+)$`)

// transport derives the wire transport record from BenchmarkTransport
// runs: mean req/s per submission mode, and the pipelined stream over
// per-request /v1/run. Multiple -count runs average.
func transport(benches []Benchmark, sum map[string]float64) {
	type acc struct {
		sum float64
		n   int
	}
	// key: "mode=M"
	groups := map[string]*acc{}
	for _, b := range benches {
		m := transportName.FindStringSubmatch(b.Name)
		if m == nil {
			continue
		}
		rps, ok := b.Metrics["req/s"]
		if !ok {
			continue
		}
		key := "mode=" + m[1]
		a := groups[key]
		if a == nil {
			a = &acc{}
			groups[key] = a
		}
		a.sum += rps
		a.n++
	}
	mean := func(a *acc) float64 { return a.sum / float64(a.n) }
	for key, a := range groups {
		sum["mean_req_per_s/"+key] = mean(a)
	}
	run, okRun := groups["mode=run"]
	stream, okStream := groups["mode=stream"]
	if okRun && okStream && run.sum > 0 {
		sum["stream_vs_run_req_per_s"] = mean(stream) / mean(run)
	}
}

// certifySummary derives the leakage-certification record from
// BenchmarkCertify rows (internal/tools/certifybench output): row and
// certified-row counts, how many mitigated rows certified out of how
// many ran, and the worst measured leakage on each side of the
// mitigation switch. All inputs are deterministic functions of the
// sweep seed, so the summary — like the rows — is byte-stable.
func certifySummary(benches []Benchmark, sum map[string]float64) {
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
		return
	}
	sum["certify_rows"] = rows
	sum["certify_certified"] = certified
	sum["certify_mitigated_rows"] = mit
	sum["certify_mitigated_certified"] = mitCertified
	sum["certify_max_unmitigated_measured_bits"] = maxUnmit
	sum["certify_max_mitigated_upper_bits"] = maxMitUpper
}

// scalingName parses "BenchmarkPoolScaling/<group>/workers=N" into the
// group key and worker count.
var scalingName = regexp.MustCompile(`^BenchmarkPoolScaling/(.+)/workers=(\d+)$`)

// scaling derives the scaling record from BenchmarkPoolScaling runs:
// for every mode/engine group it emits the mean req/s per worker
// count, the speedup over the 1-worker baseline, and the scaling
// efficiency speedup/N (1.0 = perfectly linear). Multiple -count runs
// average.
func scaling(benches []Benchmark, sum map[string]float64) {
	type acc struct {
		sum float64
		n   int
	}
	// group ("mode=batch/engine=vm") -> workers -> mean accumulator
	groups := map[string]map[int]*acc{}
	for _, b := range benches {
		m := scalingName.FindStringSubmatch(b.Name)
		if m == nil {
			continue
		}
		rps, ok := b.Metrics["req/s"]
		if !ok {
			continue
		}
		workers, err := strconv.Atoi(m[2])
		if err != nil || workers <= 0 {
			continue
		}
		byWorkers := groups[m[1]]
		if byWorkers == nil {
			byWorkers = map[int]*acc{}
			groups[m[1]] = byWorkers
		}
		a := byWorkers[workers]
		if a == nil {
			a = &acc{}
			byWorkers[workers] = a
		}
		a.sum += rps
		a.n++
	}
	for group, byWorkers := range groups {
		base, ok := byWorkers[1]
		for workers, a := range byWorkers {
			mean := a.sum / float64(a.n)
			key := fmt.Sprintf("%s/workers=%d", group, workers)
			sum["mean_req_per_s/"+key] = mean
			if ok && base.sum > 0 {
				speedup := mean / (base.sum / float64(base.n))
				sum["speedup/"+key] = speedup
				sum["scaling_efficiency/"+key] = speedup / float64(workers)
			}
		}
	}
}
