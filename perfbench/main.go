// Command perfbench is the end-to-end benchmark of `timingc serve`.
//
// With --trace 0 it starts the real `timingc serve -listen` binary and
// drives one workload from a single-process open-loop generator through
// the client SDK: set-up (spawn to first correct response, repeated),
// a warm-up, then a fixed-rate phase (latency from each send's due time,
// and the server's CPU per item). Every response is checked against the
// tree-engine replay and the §7 account. It prints the end-to-end
// metrics.
//
// With --trace 1 it builds the same serve stack in-process from its
// public constructors, drives it with the same generator and schedule
// once plain and once with spans recorded around each layer's public
// entry points, probes each layer's functions on the recorded traffic,
// and prints the per-layer metrics.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. Build and run it with
//
//	bash perfbench/run.sh --workload login-stream --seed 1 --seconds 50 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/transport/wire"
)

// metricDef names one reported metric; the tables below are the
// benchmark's contract and must match BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"cpu_us_per_req", "us", "lower"},
	{"rss_mb", "MiB", "lower"},
	{"ok_share", "share", "higher"},
}

var perLayer = []metricDef{
	{"client.span_us", "us", "lower"},
	{"client.self_us", "us", "lower"},
	{"transport.self_us", "us", "lower"},
	{"transport.bytes_in_per_req", "B", "lower"},
	{"transport.bytes_out_per_req", "B", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.allocs_per_msg", "count", "lower"},
	{"session.admit_ns", "ns", "lower"},
	{"session.hit_ratio", "share", "higher"},
	{"session.evicted_lru_per_kreq", "count", "lower"},
	{"server.wait_us", "us", "lower"},
	{"exec.self_us", "us", "lower"},
	{"exec.run_us", "us", "lower"},
	{"exec.probe_run_us", "us", "lower"},
	{"exec.ns_per_step", "ns", "lower"},
	{"exec.steps_per_req", "count", "lower"},
	{"mitigation.mispredictions_per_kreq", "count", "lower"},
	{"mitigation.padding_share", "share", "lower"},
	{"hw.l1d_hit_rate", "share", "higher"},
	{"hw.bp_hit_rate", "share", "higher"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.p99_ms", "ms", "lower"},
	{"tracing.overhead_p50_ms", "ms", "lower"},
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
	notes             []string // human-readable lines printed before the JSON
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// config is one invocation.
type config struct {
	w       *workload
	p       *program
	seed    uint64
	seconds int
	bin     string
	root    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed: the same seed sends the same inputs")
	seconds := fs.Int("seconds", 50, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from the real binary; 1: per-layer metrics from a traced in-process run")
	bin := fs.String("bin", "", "timingc binary (built from this checkout)")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	// The generator is one process with at most two OS threads running
	// Go code, the size of the two-CPU machine the benchmark was made for.
	runtime.GOMAXPROCS(2)
	// The generator allocates fast and keeps little, so by default its
	// garbage collector would run every few tens of milliseconds, for a
	// tenth of the time, on the CPU that times the requests. Let the heap
	// grow tenfold, within a cap, so collections are rare.
	debug.SetGCPercent(1000)
	debug.SetMemoryLimit(512 << 20)

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	p, err := loadProgram(*root, w.program)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{w: w, p: p, seed: *seed, seconds: *seconds, bin: *bin, root: *root}
	var res *result
	var defs []metricDef
	if *trace == 0 {
		if *bin == "" {
			fmt.Fprintln(stderr, "perfbench: --bin is required with --trace 0")
			return 2
		}
		res, err = runE2E(cfg)
		defs = endToEnd
	} else {
		res, err = runTraced(cfg)
		defs = perLayer
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, res, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints the notes, a metric table, and the result line.
func report(out io.Writer, res *result, defs []metricDef) error {
	for _, n := range res.notes {
		fmt.Fprintln(out, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(out, "%-36s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// Phase lengths: one second of warm-up at the fixed rate, then the
// measured seconds as short rounds at the same rate. The machine's speed
// drifts over seconds; each round is checked for a generator that fell
// behind on its own, and pooling every valid round's samples makes each
// metric a smooth average over the run.
const (
	warmup    = time.Second
	rounds    = 15
	setupReps = 21
	// lateLimit bounds the 99th percentile of how late a round's sends
	// left. Beyond it the generator, not the server, set the schedule —
	// the machine was busy with something else — and the round is invalid.
	lateLimit = 2 * time.Millisecond
)

func sends(w *workload, d time.Duration) int {
	return int(w.rate * d.Seconds())
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runE2E measures the real binary.
func runE2E(cfg config) (*result, error) {
	w := cfg.w
	o := &oracle{w: w, p: cfg.p, seed: cfg.seed}
	args := serveArgs(w, cfg.root)
	ctx := context.Background()
	res := &result{values: map[string]float64{}}
	srvCPUs, err := splitCPUs()
	if err != nil {
		return nil, fmt.Errorf("pin the generator: %w", err)
	}

	// Set-up: spawn to first correct response, several times; the last
	// server stays up for the measurement.
	var setups []float64
	var srv *serverProc
	var t *target
	next := 0
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		s, err := startServer(cfg.bin, args, srvCPUs)
		if err != nil {
			return nil, err
		}
		tt := newTarget(w, cfg.seed, "http://"+s.addr)
		// Anonymous, so a fresh server answers it from a fresh state.
		req := wire.RunRequest{Inputs: w.itemAt(cfg.seed, next).inputs}
		resp, err := tt.c.Run(ctx, req)
		ok := tt.result(next, req, resp, err)
		took := time.Since(start)
		next++
		if !ok || o.check(tt.recs).bad > 0 {
			s.kill()
			return nil, fmt.Errorf("first response of a fresh server is wrong: %v", tt.failErrs)
		}
		setups = append(setups, took.Seconds())
		if i < setupReps-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			res.attempted += tt.attempts
			continue
		}
		srv, t = s, tt
	}
	defer srv.kill()
	pid := srv.cmd.Process.Pid

	roundDur := time.Duration(cfg.seconds) * time.Second / rounds
	nWarm := sends(w, warmup)
	t.openLoop(ctx, next, nWarm)
	next += nWarm * w.batch

	type round struct {
		latency []time.Duration // sorted
		lateP99 time.Duration
		cpu     time.Duration // server CPU over the round
		items   int           // completed in the round
	}
	var all []round
	for r := 0; r < rounds; r++ {
		cpu0, err := cpuTime(pid)
		if err != nil {
			return nil, err
		}
		st := t.openLoop(ctx, next, sends(w, roundDur))
		next += st.sends * w.batch
		cpu1, err := cpuTime(pid)
		if err != nil {
			return nil, err
		}
		sortDurations(st.latency)
		sortDurations(st.late)
		all = append(all, round{
			latency: st.latency,
			lateP99: percentile(st.late, 0.99),
			cpu:     cpu1 - cpu0,
			items:   st.items,
		})
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	chk := o.check(t.recs)
	res.attempted += t.attempts
	res.failed = t.fails + chk.bad

	var used []round
	for _, r := range all {
		if r.lateP99 <= lateLimit {
			used = append(used, r)
		}
	}
	valid := len(used) > 0
	if !valid {
		used = all
	}
	var lat []time.Duration
	var cpu time.Duration
	items := 0
	for _, r := range used {
		lat = append(lat, r.latency...)
		cpu += r.cpu
		items += r.items
	}
	sortDurations(lat)
	res.correct = res.failed == 0 && len(lat) > 0
	res.values["setup_s"] = median(setups)
	res.values["p50_ms"] = ms(percentile(lat, 0.50))
	res.values["p90_ms"] = ms(percentile(lat, 0.90))
	// CPU is summed over the rounds: one round holds too few clock ticks.
	res.values["cpu_us_per_req"] = float64(cpu) / 1e3 / float64(max(items, 1))
	res.values["rss_mb"] = rss
	res.values["ok_share"] = 1 - float64(res.failed)/float64(max(res.attempted, 1))

	failShare := float64(res.failed) / float64(max(res.attempted, 1))
	res.note("workload %s seed %d: %d items attempted, %d failed (fail_share %.6f)",
		w.name, cfg.seed, res.attempted, res.failed, failShare)
	res.note("fixed rate %.0f sends/s, %d rounds of %v; valid rounds pooled: p99 %.3f ms (%d samples)",
		w.rate, rounds, roundDur, ms(percentile(lat, 0.99)), len(lat))
	for i, r := range all {
		res.note("round %d: p50 %.4f ms, p90 %.4f ms, cpu %.1f us/item; generator late p99 %.3f ms, valid %v",
			i, ms(percentile(r.latency, 0.5)), ms(percentile(r.latency, 0.9)), float64(r.cpu)/1e3/float64(max(r.items, 1)),
			ms(r.lateP99), r.lateP99 <= lateLimit)
	}
	if valid {
		res.note("%d of %d rounds valid", len(used), rounds)
	} else {
		res.note("no round valid: the generator fell behind throughout, so this run is invalid")
	}
	res.note("set-up: %.4g s", setups)
	res.note("replay: %d responses checked, %d replayed on the tree engine, %d bad %v %v",
		chk.checked, chk.replayed, chk.bad, chk.errs, t.failErrs)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runTraced measures the in-process stack plain and traced, then probes
// the layers.
func runTraced(cfg config) (*result, error) {
	w := cfg.w
	o := &oracle{w: w, p: cfg.p, seed: cfg.seed}
	ctx := context.Background()
	res := &result{values: map[string]float64{}}
	half := time.Duration(cfg.seconds) * time.Second / 2

	// phase serves the seeded stream from item 0 on a fresh stack: a
	// warm-up, then the fixed-rate phase, with client spans recorded in
	// that phase when tracing.
	phase := func(engine string, tr *tracer) (*target, phaseStats, int, *stack, error) {
		var wrap func(next http.Handler) http.Handler
		if tr != nil {
			wrap = tr.wrap
		}
		s, err := startStack(cfg.p, w, engine, wrap)
		if err != nil {
			return nil, phaseStats{}, 0, nil, err
		}
		t := newTarget(w, cfg.seed, "http://"+s.addr)
		nWarm := sends(w, warmup)
		t.openLoop(ctx, 0, nWarm)
		base := nWarm * w.batch
		t.tracing = tr != nil
		st := t.openLoop(ctx, base, sends(w, half))
		t.tracing = false
		if err := s.stop(); err != nil {
			return nil, phaseStats{}, 0, nil, err
		}
		return t, st, base, s, nil
	}

	plainT, plain, _, _, err := phase("vm", nil)
	if err != nil {
		return nil, err
	}
	tr, err := newTracer()
	if err != nil {
		return nil, err
	}
	tracedT, traced, base, st, err := phase(tr.engine, tr)
	if err != nil {
		return nil, err
	}

	chkPlain, chkTraced := o.check(plainT.recs), o.check(tracedT.recs)
	res.attempted = plainT.attempts + tracedT.attempts
	res.failed = plainT.fails + tracedT.fails + chkPlain.bad + chkTraced.bad

	reqs, resps, err := wireMessages(w, cfg.seed, tracedT.recs, 2000)
	if err != nil {
		return nil, err
	}
	ws, err := probeWire(w, reqs, resps, max(1, 20000/(len(reqs)*w.batch)))
	if err != nil {
		return nil, err
	}
	ss, err := probeSessions(w, cfg.p, cfg.seed, 20000, 5)
	if err != nil {
		return nil, err
	}
	es, err := probeExec(w, cfg.p, cfg.seed, w.probeItems)
	if err != nil {
		return nil, err
	}
	admitNs := 0.0
	if w.sessionMax > 0 {
		admitNs = ss.admitNs
	}
	b := tr.analyse(w, tracedT.spans, tracedT.recs, base, ws.decodeNs, admitNs)
	res.correct = res.failed == 0 && b.unlinked == 0 && b.unnested == 0

	snap := st.met.Snapshot()
	items := float64(max(len(tracedT.recs), 1))
	sortDurations(plain.latency)
	sortDurations(plain.late)
	sortDurations(traced.latency)
	v := res.values
	v["client.span_us"] = b.clientUs
	v["client.self_us"] = b.clientSelf
	v["transport.self_us"] = b.transportSelf
	v["transport.bytes_in_per_req"] = float64(snap.BytesIn) / items
	v["transport.bytes_out_per_req"] = float64(snap.BytesOut) / items
	v["wire.decode_ns"] = ws.decodeNs
	v["wire.encode_ns"] = ws.encodeNs
	v["wire.allocs_per_msg"] = ws.allocsPerMsg
	v["session.admit_ns"] = ss.admitNs
	v["session.hit_ratio"] = ss.hitRatio
	v["session.evicted_lru_per_kreq"] = ss.evictedPerK
	v["server.wait_us"] = b.waitUs
	v["exec.self_us"] = b.execSelf
	v["exec.run_us"] = b.execRunUs
	v["exec.probe_run_us"] = es.runUs
	v["exec.ns_per_step"] = b.nsPerStep
	v["exec.steps_per_req"] = es.stepsPerReq
	v["mitigation.mispredictions_per_kreq"] = es.mispredPerK
	v["mitigation.padding_share"] = es.paddingShare
	v["hw.l1d_hit_rate"] = es.l1dHitRate
	v["hw.bp_hit_rate"] = es.bpHitRate
	v["loadgen.late_p99_ms"] = ms(percentile(plain.late, 0.99))
	v["loadgen.p99_ms"] = ms(percentile(plain.latency, 0.99))
	v["tracing.overhead_p50_ms"] = ms(percentile(traced.latency, 0.5)) - ms(percentile(plain.latency, 0.5))

	res.note("workload %s seed %d (traced, in-process): %d items attempted, %d failed", w.name, cfg.seed, res.attempted, res.failed)
	res.note("plain p50 %.3f ms, traced p50 %.3f ms over %d and %d sends",
		ms(percentile(plain.latency, 0.5)), ms(percentile(traced.latency, 0.5)), len(plain.latency), len(traced.latency))
	res.note("spans: %d sends, %d unlinked, %d not nested; client %.2f + transport %.2f + wait %.2f + exec %.2f = client span %.2f us",
		b.sends, b.unlinked, b.unnested, b.clientSelf, b.transportSelf, b.waitUs, b.execSelf, b.clientUs)
	res.note("server counters: %d sessions created, %d LRU evictions over %d items; session probe hit ratio %.4f",
		snap.SessionsCreated, snap.SessionsEvictedLRU, len(tracedT.recs), ss.hitRatio)
	res.note("replay: %d+%d responses checked, %d+%d replayed, %d+%d bad %v %v",
		chkPlain.checked, chkTraced.checked, chkPlain.replayed, chkTraced.replayed, chkPlain.bad, chkTraced.bad,
		chkPlain.errs, chkTraced.errs)
	return res, nil
}
