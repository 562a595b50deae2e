package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport/wire"
	"repro/internal/types"
)

// echoSrc is the canonical secret-dependent workload: a mitigated
// sleep on the secret, then a public reply.
const echoSrc = `
var h : H;
var reply : L;
mitigate (1, H) [L,L] {
    sleep(h % 64) [H,H];
}
reply := 1;
`

func buildProg(t testing.TB, src string) (*ast.Program, *types.Result) {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := types.Check(p, lattice.TwoPoint())
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

// newService builds a pool + handler + httptest server over echoSrc.
func newService(t testing.TB, popts server.PoolOptions, hopts Options) (*Handler, *httptest.Server) {
	t.Helper()
	return newServiceFor(t, echoSrc, popts, hopts)
}

// newServiceFor is newService over the program src.
func newServiceFor(t testing.TB, src string, popts server.PoolOptions, hopts Options) (*Handler, *httptest.Server) {
	t.Helper()
	p, r := buildProg(t, src)
	if popts.Env == nil {
		popts.Env = hw.NewPartitioned(r.Lat, hw.Table1Config())
	}
	if popts.Workers == 0 {
		popts.Workers = 2
	}
	pool, err := server.NewPool(p, r, popts)
	if err != nil {
		t.Fatal(err)
	}
	hopts.Pool = pool
	hopts.Prog = p
	h, err := New(hopts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return h, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestRunRoundTrip(t *testing.T) {
	_, ts := newService(t, server.PoolOptions{Workers: 1}, Options{})

	// Serial in-process reference with an identical environment.
	p, r := buildProg(t, echoSrc)
	ref, err := server.New(p, r, server.Options{Env: hw.NewPartitioned(r.Lat, hw.Table1Config())})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Handle(context.Background(), func(m *mem.Memory) { m.Set("h", 5) })
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{
		Inputs: map[string]int64{"h": 5},
		Trace:  true, Mitigations: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got wire.RunResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != wire.SchemaVersion {
		t.Errorf("schema version %d, want %d", got.SchemaVersion, wire.SchemaVersion)
	}
	if got.Time != want.Time {
		t.Errorf("Time over HTTP = %d, in-process = %d", got.Time, want.Time)
	}
	if got.Mispredictions != want.Mispredictions {
		t.Errorf("Mispredictions over HTTP = %d, in-process = %d", got.Mispredictions, want.Mispredictions)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("trace length %d, want %d", len(got.Trace), len(want.Trace))
	}
	for i, e := range want.Trace {
		if got.Trace[i] != (wire.Event{Var: e.Var, Value: e.Value, Time: e.Time}) {
			t.Errorf("trace[%d] = %+v, want %+v", i, got.Trace[i], e)
		}
	}
	if len(got.Mitigations) != len(want.Mitigations) {
		t.Fatalf("mitigations length %d, want %d", len(got.Mitigations), len(want.Mitigations))
	}
}

// TestBatchMatchesInProcess is the acceptance check: a 100-request
// batch over HTTP must be byte-identical, item for item, to the same
// burst through Pool.HandleAll in process.
func TestBatchMatchesInProcess(t *testing.T) {
	const n = 100
	const workers = 4
	_, ts := newService(t, server.PoolOptions{Workers: workers}, Options{})

	// In-process reference: an identically configured pool.
	p, r := buildProg(t, echoSrc)
	refPool, err := server.NewPool(p, r, server.PoolOptions{
		Workers: workers,
		Options: server.Options{Env: hw.NewPartitioned(r.Lat, hw.Table1Config())},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer refPool.Close()

	wireReqs := make([]wire.RunRequest, n)
	refReqs := make([]server.Request, n)
	for i := 0; i < n; i++ {
		h := int64(i % 17)
		wireReqs[i] = wire.RunRequest{Inputs: map[string]int64{"h": h}, Trace: true, Mitigations: true}
		refReqs[i] = func(m *mem.Memory) { m.Set("h", h) }
	}
	refResps, err := refPool.HandleAll(context.Background(), refReqs)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/batch", wire.BatchRequest{Requests: wireReqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got wire.BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != n {
		t.Fatalf("%d results, want %d", len(got.Results), n)
	}
	for i, res := range got.Results {
		if res.Error != nil {
			t.Fatalf("result %d failed: %v", i, res.Error)
		}
		want := toRunResponse(refResps[i], wireReqs[i])
		gotJSON, _ := json.Marshal(res.Response)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("result %d over HTTP differs from in-process HandleAll:\n got  %s\n want %s",
				i, gotJSON, wantJSON)
		}
	}
}

func TestUnknownInputRejected(t *testing.T) {
	_, ts := newService(t, server.PoolOptions{}, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"nope": 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var envelope struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("bad error envelope: %s", body)
	}
	if envelope.Error.Code != wire.CodeUnknownInput {
		t.Errorf("code %q, want %q", envelope.Error.Code, wire.CodeUnknownInput)
	}
}

func TestMalformedAndVersionedRequestsRejected(t *testing.T) {
	_, ts := newService(t, server.PoolOptions{}, Options{})

	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	resp2, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{SchemaVersion: 99})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("future schema version: status %d, want 400: %s", resp2.StatusCode, body)
	}
}

// heldPool is the one-worker, depth-one pool the overload tests hold:
// the pool sheds once its worker is busy and its queue entry taken.
func heldPool() server.PoolOptions {
	return server.PoolOptions{Workers: 1, QueueDepth: 1, ShedOnSaturation: true}
}

// holdWorker occupies pool's only worker with a request whose setup
// blocks until the returned release is called (at the latest by the
// test's cleanup, which runs before newService's pool.Close). With
// fill, a second request takes the queue entry too, so the next
// submission sheds.
func holdWorker(t *testing.T, pool *server.Pool, fill bool) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	f, err := pool.Submit(context.Background(), func(*mem.Memory) {
		close(entered)
		<-gate
	})
	if err != nil {
		t.Fatal(err)
	}
	held := []server.Future{f}
	<-entered
	if fill {
		f, err := pool.Submit(context.Background(), func(*mem.Memory) {})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, f)
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			for _, f := range held {
				f.Wait(context.Background())
			}
		})
	}
	t.Cleanup(release)
	return release
}

// TestSaturationMapsTo503 is the overload acceptance check: a
// saturated shard queue must surface as 503 with a Retry-After header
// and the stable overloaded code.
func TestSaturationMapsTo503(t *testing.T) {
	h, ts := newService(t, heldPool(), Options{})
	holdWorker(t, h.opts.Pool, true)

	resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"h": 1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\" (RetryAfter)", ra)
	}
	var envelope struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("bad error envelope: %s", body)
	}
	if envelope.Error.Code != wire.CodeOverloaded {
		t.Errorf("code %q, want %q", envelope.Error.Code, wire.CodeOverloaded)
	}
	if envelope.Error.RetryAfterMS != RetryAfter.Milliseconds() {
		t.Errorf("retry_after_ms = %d, want %d", envelope.Error.RetryAfterMS, RetryAfter.Milliseconds())
	}
}

func TestMaxInFlightSheds(t *testing.T) {
	h, ts := newService(t, server.PoolOptions{}, Options{MaxInFlight: 1})
	// Occupy the only admission slot directly (white-box), then a real
	// request must shed at the transport before touching the pool.
	if werr := h.begin(); werr != nil {
		t.Fatalf("first admission refused: %v", werr)
	}
	defer h.end()
	resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"h": 1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestGracefulShutdownDrains exercises the drain protocol
// deterministically: with one admission in flight, Shutdown must
// block, new work must be refused with shutting_down, and the last
// request out must release the shutdown, which then closes the pool.
func TestGracefulShutdownDrains(t *testing.T) {
	h, ts := newService(t, server.PoolOptions{}, Options{})

	if werr := h.begin(); werr != nil {
		t.Fatalf("admission refused: %v", werr)
	}
	done := make(chan error, 1)
	go func() { done <- h.Shutdown(context.Background()) }()

	// Shutdown must be parked on the in-flight request.
	for !h.Draining() {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a request still in flight", err)
	case <-time.After(10 * time.Millisecond):
	}

	// New work is refused while draining.
	resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"h": 1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status while draining = %d, want 503: %s", resp.StatusCode, body)
	}
	var envelope struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("bad error envelope: %s", body)
	}
	if envelope.Error.Code != wire.CodeShuttingDown {
		t.Errorf("code %q, want %q", envelope.Error.Code, wire.CodeShuttingDown)
	}

	// The last in-flight request leaving completes the drain.
	h.end()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	// The pool is closed: in-process submission fails accordingly.
	if _, err := h.opts.Pool.Handle(context.Background(), func(*mem.Memory) {}); err == nil {
		t.Error("pool still accepting work after Shutdown")
	}
}

// TestGracefulShutdownUnderLoad drives a real in-flight HTTP request
// (queued behind a held worker) through a full drain.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	h, ts := newService(t, heldPool(), Options{})
	release := holdWorker(t, h.opts.Pool, false)

	type outcome struct {
		status int
		body   []byte
	}
	got := make(chan outcome, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"h": 3}})
		got <- outcome{resp.StatusCode, body}
	}()

	// Wait until the request is admitted, then drain.
	for {
		h.mu.Lock()
		n := h.inFlight
		h.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- h.Shutdown(context.Background()) }()
	for !h.Draining() {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a request still queued", err)
	case <-time.After(10 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	o := <-got
	if o.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", o.status, o.body)
	}
}

func TestHealthz(t *testing.T) {
	h, ts := newService(t, server.PoolOptions{Workers: 3}, Options{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health wire.Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != wire.StatusOK || health.Workers != 3 || health.Engine != "tree" {
		t.Errorf("health = %+v", health)
	}
	_ = h
}

// TestMetricsPromMatchesExport is the exposition acceptance check:
// every obs.Counts field, walked by its JSON key, and the derived
// useful_cycles and both gauges scraped from /v1/metrics must equal the
// JSON form of the same endpoint. Anonymous and tenanted runs, a budget
// denial and a stream item come first, so the session, wire and stream
// series are non-zero.
func TestMetricsPromMatchesExport(t *testing.T) {
	met := obs.NewMetrics()
	mgr := newSessions(t, session.Options{BudgetBits: 10, TTL: time.Minute, Metrics: met})
	popts := server0()
	popts.Metrics = met
	_, ts := newService(t, popts, Options{Sessions: mgr})
	for i := 0; i < 8; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"h": int64(i)}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup run %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	served := uint64(8)
	for denied := false; !denied; served++ {
		if served > 60 {
			t.Fatal("a 10-bit budget must eventually deny")
		}
		_, _, werr := runTenant(t, ts.URL, "bob", 63)
		denied = werr != nil
	}
	served-- // the denied request was not served
	if res := postStream(t, ts.URL, []wire.RunRequest{{Inputs: map[string]int64{"h": 1}}}); len(res) != 1 || res[0].Error != nil {
		t.Fatalf("stream item: %+v", res)
	}
	served++

	jr, err := http.Get(ts.URL + "/v1/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var export obs.Export
	if err := json.NewDecoder(jr.Body).Decode(&export); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()

	pr, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := pr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus Content-Type = %q", ct)
	}
	promText, err := io.ReadAll(pr.Body)
	pr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	scraped := parseProm(t, string(promText))
	want := map[string]uint64{
		"timingc_useful_cycles_total":                    export.UsefulCycles,
		"timingc_sessions_active":                        uint64(export.SessionsActive),
		"timingc_streams_active":                         uint64(export.StreamsActive),
		"timingc_latency_cycles_count":                   export.Latency.Count,
		"timingc_latency_cycles_sum":                     export.Latency.Sum,
		`timingc_hw_events_total{unit="l1d",kind="hit"}`: export.HW.L1DHits,
		`timingc_hw_events_total{unit="bp",kind="miss"}`: export.HW.BPMisses,
	}
	ct, cv := reflect.TypeOf(export.Counts), reflect.ValueOf(export.Counts)
	for i := 0; i < ct.NumField(); i++ {
		want["timingc_"+ct.Field(i).Tag.Get("json")+"_total"] = cv.Field(i).Uint()
	}
	for name, w := range want {
		got, ok := scraped[name]
		if !ok {
			t.Errorf("metric %s missing from exposition", name)
			continue
		}
		if got != w {
			t.Errorf("%s = %d, exposition disagrees with export %d", name, got, w)
		}
	}
	if export.Requests != served {
		t.Errorf("export.Requests = %d, want %d", export.Requests, served)
	}
	if export.SessionsActive != 1 || export.StreamsActive != 0 {
		t.Errorf("gauges: %d sessions, %d streams, want 1 and 0", export.SessionsActive, export.StreamsActive)
	}
	for key, v := range map[string]uint64{
		"steps": export.Steps, "padding_cycles": export.PaddingCycles,
		"mispredictions": export.Mispredictions, "schedule_bumps": export.ScheduleBumps,
		"sessions_created": export.SessionsCreated, "budget_denials": export.BudgetDenials,
		"bytes_in": export.BytesIn, "bytes_out": export.BytesOut, "stream_items": export.StreamItems,
	} {
		if v == 0 {
			t.Errorf("%s = 0; the traffic above must move it", key)
		}
	}
	// Export schema v4 dropped the fault-injection, retry and breaker
	// counters from both views.
	if export.SchemaVersion != 4 || scraped["timingc_export_schema_version"] != 4 {
		t.Errorf("schema version: json %d, prometheus %d, want 4",
			export.SchemaVersion, scraped["timingc_export_schema_version"])
	}
	for _, gone := range []string{"faults", "retries", "breaker_opens", "breaker_closes"} {
		if strings.Contains(string(promText), "timingc_"+gone+"_total") {
			t.Errorf("exposition still carries timingc_%s_total", gone)
		}
	}
}

// TestMetricsScrapeUnderLoad: /v1/metrics may be scraped while the
// shards serve. The hardware counters it reports are the ones each
// worker published after its last finished job, never the environment
// the worker is writing, so under -race the scrapes below race nothing;
// and since a worker publishes before it delivers, a scrape after the
// load matches the exact counters after Close.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	h, ts := newService(t, server.PoolOptions{Workers: 2}, Options{})
	var stop atomic.Bool
	var served atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				body := fmt.Sprintf(`{"inputs":{"h":%d}}`, (g*31+i)%64)
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("run: status %d, read error %v", resp.StatusCode, err)
					return
				}
				served.Add(1)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		url := ts.URL + "/v1/metrics"
		if i%2 == 1 {
			url += "?format=json"
		}
		if resp, body := get(t, url); resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	stop.Store(true)
	wg.Wait()

	resp, body := get(t, ts.URL+"/v1/metrics?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final scrape: status %d", resp.StatusCode)
	}
	var e obs.Export
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Requests != served.Load() || e.Requests == 0 {
		t.Errorf("requests = %d, want the %d served", e.Requests, served.Load())
	}
	pool := h.opts.Pool
	pool.Close()
	var envs hw.Stats
	for i := 0; i < pool.Workers(); i++ {
		envs = envs.Add(pool.Shard(i).Env().Stats())
	}
	if closed := pool.Snapshot().HW; closed != envs {
		t.Errorf("after Close the pool reports %+v, its environments hold %+v", closed, envs)
	}
	if want := (obs.Snapshot{HW: envs}).Export().HW; e.HW != want || want.L1DHits == 0 {
		t.Errorf("scrape after the load reports %+v, want the exact %+v", e.HW, want)
	}
}

// parseProm reads "name value" and "name{labels} value" sample lines.
func parseProm(t *testing.T, text string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			// Gauges may be floats; only integer samples participate in
			// the comparison.
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

func TestHandlerRequiresPoolAndProg(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	pool, err := server.NewPool(p, r, server.PoolOptions{
		Workers: 1,
		Options: server.Options{Env: hw.NewFlat(r.Lat, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := New(Options{Prog: p}); err == nil {
		t.Error("New without Pool must fail")
	}
	if _, err := New(Options{Pool: pool}); err == nil {
		t.Error("New without Prog must fail")
	}
	if _, err := New(Options{Pool: pool, Prog: p}); err != nil {
		t.Errorf("New with both = %v", err)
	}
}

// toRunResponse converts a pool response into the wire response the
// handler sends for req.
func toRunResponse(resp *server.Response, req wire.RunRequest) wire.RunResponse {
	var out wire.RunResponse
	fillRunResponse(&out, resp, req.Trace, req.Mitigations)
	return out
}
