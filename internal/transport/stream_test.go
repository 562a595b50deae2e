package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport/wire"
)

// postStream ships a fixed NDJSON body to /v1/stream and decodes every
// result line.
func postStream(t *testing.T, url string, reqs []wire.RunRequest) []wire.BatchResult {
	t.Helper()
	var body bytes.Buffer
	for _, r := range reqs {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		body.Write(raw)
		body.WriteByte('\n')
	}
	resp, err := http.Post(url+"/v1/stream", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var out []wire.BatchResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var res wire.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad result line %q: %v", sc.Bytes(), err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamMatchesBatch is the protocol acceptance check: the same
// item sequence through /v1/run (one sequential call per item),
// /v1/batch and /v1/stream must produce the same per-item result in the
// same order — equal time, mispredictions, tenant, epoch and leakage
// account, or the same error code. Each endpoint gets a fresh service
// with the same config, because mitigation schedules adapt per shard
// and leakage accounts per tenant — the comparison needs identical
// starting state, not a shared warm pool.
func TestStreamMatchesBatch(t *testing.T) {
	anonymous := make([]wire.RunRequest, 40)
	for i := range anonymous {
		anonymous[i] = wire.RunRequest{Inputs: map[string]int64{"h": int64(i % 16)}}
	}
	tenants := []string{"bob", "alice", ""}
	mixed := make([]wire.RunRequest, 30)
	for i := range mixed {
		mixed[i] = wire.RunRequest{Tenant: tenants[i%len(tenants)], Inputs: map[string]int64{"h": int64(i * 13 % 64)}}
	}

	cases := []struct {
		name   string
		reqs   []wire.RunRequest
		budget float64 // per-tenant leakage budget in bits; 0 runs without sessions
	}{
		{"anonymous", anonymous, 0},
		{"tenants over a 12-bit budget", mixed, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := func() string {
				var opts Options
				if tc.budget > 0 {
					opts.Sessions = newSessions(t, session.Options{BudgetBits: tc.budget})
				}
				_, ts := newService(t, server.PoolOptions{Workers: 2}, opts)
				return ts.URL
			}
			runURL := fresh()
			runs := make([]itemOutcome, len(tc.reqs))
			for i, req := range tc.reqs {
				_, resp, werr := runTenant(t, runURL, req.Tenant, req.Inputs["h"])
				runs[i] = outcomeOf(wire.BatchResult{Response: &resp, Error: werr})
			}

			resp, body := postJSON(t, fresh()+"/v1/batch", wire.BatchRequest{Requests: tc.reqs})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch status %d: %s", resp.StatusCode, body)
			}
			var batch wire.BatchResponse
			if err := json.Unmarshal(body, &batch); err != nil {
				t.Fatal(err)
			}
			streamed := postStream(t, fresh(), tc.reqs)
			if len(batch.Results) != len(tc.reqs) || len(streamed) != len(tc.reqs) {
				t.Fatalf("%d requests: batch returned %d results, stream %d",
					len(tc.reqs), len(batch.Results), len(streamed))
			}

			denied := 0
			for i := range tc.reqs {
				want := runs[i]
				if got := outcomeOf(batch.Results[i]); got != want {
					t.Errorf("item %d: batch %+v != run %+v", i, got, want)
				}
				if got := outcomeOf(streamed[i]); got != want {
					t.Errorf("item %d: stream %+v != run %+v", i, got, want)
				}
				if want.code == wire.CodeLeakageBudget {
					denied++
				}
			}
			if tc.budget > 0 && denied == 0 {
				t.Errorf("a %.0f-bit budget must deny some tenanted items", tc.budget)
			}
		})
	}
}

// itemOutcome is the part of one item's result that must not depend on
// the endpoint that served it.
type itemOutcome struct {
	time           uint64
	mispredictions int
	tenant         string
	epoch          int
	leakageBits    float64
	code           string
}

func outcomeOf(res wire.BatchResult) itemOutcome {
	if res.Error != nil {
		return itemOutcome{code: res.Error.Code}
	}
	r := res.Response
	return itemOutcome{
		time: r.Time, mispredictions: r.Mispredictions,
		tenant: r.Tenant, epoch: r.Epoch, leakageBits: r.LeakageBits,
	}
}

// TestStreamTenantSemantics: tenanted stream items advance the session
// in submission order exactly like batch items, interleaved with
// anonymous pipelined items.
func TestStreamTenantSemantics(t *testing.T) {
	mgr := newSessions(t, session.Options{})
	_, ts := newService(t, server0(), Options{Sessions: mgr})

	results := postStream(t, ts.URL, []wire.RunRequest{
		{Tenant: "alice", Inputs: map[string]int64{"h": 1}},
		{Inputs: map[string]int64{"h": 2}}, // anonymous rides along
		{Tenant: "alice", Inputs: map[string]int64{"h": 3}},
		{Tenant: "bob", Inputs: map[string]int64{"h": 4}},
	})
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	r0, r2, r3 := results[0].Response, results[2].Response, results[3].Response
	if r0 == nil || r2 == nil || r3 == nil {
		t.Fatalf("session items must succeed: %+v", results)
	}
	if r0.Epoch != 1 || r2.Epoch != 2 {
		t.Errorf("alice's epochs must advance in stream order: %d then %d", r0.Epoch, r2.Epoch)
	}
	if r3.Tenant != "bob" || r3.Epoch != 1 {
		t.Errorf("bob must get his own session: %+v", r3)
	}
	if anon := results[1].Response; anon == nil || anon.Tenant != "" {
		t.Errorf("anonymous item must stay anonymous: %+v", anon)
	}
}

// TestStreamBudgetDenialMidStream: a tenant exhausting its leakage
// budget mid-stream gets per-item leakage_budget_exceeded error lines
// (the 429 analogue) while the stream keeps serving other items.
func TestStreamBudgetDenialMidStream(t *testing.T) {
	met := obs.NewMetrics()
	mgr := newSessions(t, session.Options{BudgetBits: 10, TTL: time.Minute, Metrics: met})
	popts := server0()
	popts.Metrics = met
	_, ts := newService(t, popts, Options{Sessions: mgr})

	var reqs []wire.RunRequest
	for i := 0; i < 50; i++ {
		reqs = append(reqs, wire.RunRequest{Tenant: "bob", Inputs: map[string]int64{"h": 63}})
	}
	// A final uncapped item must still run after bob's denials.
	reqs = append(reqs, wire.RunRequest{Tenant: "alice", Inputs: map[string]int64{"h": 63}})

	results := postStream(t, ts.URL, reqs)
	if len(results) != len(reqs) {
		t.Fatalf("stream must answer every line: got %d of %d", len(results), len(reqs))
	}
	denials := 0
	for _, res := range results[:50] {
		if res.Error != nil {
			if res.Error.Code != wire.CodeLeakageBudget {
				t.Fatalf("error code %q, want %q", res.Error.Code, wire.CodeLeakageBudget)
			}
			if res.Error.RetryAfterMS != time.Minute.Milliseconds() {
				t.Errorf("retry_after_ms = %d, want %d", res.Error.RetryAfterMS, time.Minute.Milliseconds())
			}
			denials++
		}
	}
	if denials == 0 {
		t.Fatal("a 10-bit budget must eventually deny mid-stream")
	}
	if last := results[50]; last.Response == nil || last.Response.Tenant != "alice" {
		t.Errorf("alice must be served after bob's denials: %+v", last)
	}
}

// TestStreamMalformedLineTerminates: a line the codec rejects produces
// one final error result and ends the stream; earlier results are
// still delivered.
func TestStreamMalformedLineTerminates(t *testing.T) {
	_, ts := newService(t, server0(), Options{})

	body := strings.NewReader(
		`{"inputs":{"h":1}}` + "\n" +
			`{"inputs":{"h":2},` + "\n" + // malformed
			`{"inputs":{"h":3}}` + "\n") // must never run
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := nonEmptyLines(raw)
	if len(lines) != 2 {
		t.Fatalf("want 1 result + 1 terminal error, got %d lines: %s", len(lines), raw)
	}
	var first, second wire.BatchResult
	if err := json.Unmarshal(lines[0], &first); err != nil || first.Response == nil {
		t.Fatalf("first line must be a response: %s (%v)", lines[0], err)
	}
	if err := json.Unmarshal(lines[1], &second); err != nil || second.Error == nil {
		t.Fatalf("second line must be an error: %s (%v)", lines[1], err)
	}
	if second.Error.Code != wire.CodeInvalidRequest {
		t.Errorf("terminal code = %q, want %q", second.Error.Code, wire.CodeInvalidRequest)
	}
}

// TestStreamStrictUnknownField: stream lines get the same strict
// decoding as the unary endpoints — an unknown field is an
// exfiltration vector, not a typo to ignore.
func TestStreamStrictUnknownField(t *testing.T) {
	_, ts := newService(t, server0(), Options{})

	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson",
		strings.NewReader(`{"inputs":{"h":1},"covert":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	lines := nonEmptyLines(raw)
	if len(lines) != 1 {
		t.Fatalf("want a single terminal error line, got %s", raw)
	}
	var res wire.BatchResult
	if err := json.Unmarshal(lines[0], &res); err != nil || res.Error == nil {
		t.Fatalf("terminal line must be an error: %s", raw)
	}
	if res.Error.Code != wire.CodeInvalidRequest || !strings.Contains(res.Error.Message, "covert") {
		t.Errorf("unknown field must be rejected by name: %+v", res.Error)
	}
}

func nonEmptyLines(raw []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(l)) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// TestStreamDrainMidStream: Shutdown while a stream is open lets the
// stream finish in-flight work, answer with a shutting_down error
// line, and close — the streaming analogue of the two-phase drain.
func TestStreamDrainMidStream(t *testing.T) {
	h, ts := newService(t, server0(), Options{RetryAfter: 2 * time.Second})

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	// One request-response exchange while healthy.
	if _, err := io.WriteString(pw, `{"inputs":{"h":5}}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("no first result: %v", sc.Err())
	}
	var first wire.BatchResult
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Response == nil {
		t.Fatalf("first result must succeed: %s", sc.Bytes())
	}

	// Begin draining; the open stream must be told off on its next line.
	done := make(chan error, 1)
	go func() { done <- h.Shutdown(context.Background()) }()
	for !h.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := io.WriteString(pw, `{"inputs":{"h":6}}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("no drain result: %v", sc.Err())
	}
	var second wire.BatchResult
	if err := json.Unmarshal(sc.Bytes(), &second); err != nil || second.Error == nil {
		t.Fatalf("drain must answer with an error line: %s", sc.Bytes())
	}
	if second.Error.Code != wire.CodeShuttingDown {
		t.Errorf("drain code = %q, want %q", second.Error.Code, wire.CodeShuttingDown)
	}
	if second.Error.RetryAfterMS != (2 * time.Second).Milliseconds() {
		t.Errorf("drain retry_after_ms = %d, want %d", second.Error.RetryAfterMS, (2 * time.Second).Milliseconds())
	}
	if sc.Scan() {
		t.Errorf("stream must end after the drain line, got %s", sc.Bytes())
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestStreamMetrics: the wire counters account for stream traffic and
// the gauge returns to zero after the stream closes.
func TestStreamMetrics(t *testing.T) {
	met := obs.NewMetrics()
	popts := server0()
	popts.Metrics = met
	_, ts := newService(t, popts, Options{})

	const n = 8
	var reqs []wire.RunRequest
	for i := 0; i < n; i++ {
		reqs = append(reqs, wire.RunRequest{Inputs: map[string]int64{"h": int64(i)}})
	}
	if got := len(postStream(t, ts.URL, reqs)); got != n {
		t.Fatalf("results = %d", got)
	}

	s := met.Snapshot()
	if s.StreamItems != n {
		t.Errorf("StreamItems = %d, want %d", s.StreamItems, n)
	}
	if s.BytesIn == 0 || s.BytesOut == 0 {
		t.Errorf("byte counters must move: in=%d out=%d", s.BytesIn, s.BytesOut)
	}
	if s.StreamsActive != 0 {
		t.Errorf("StreamsActive = %d after close, want 0", s.StreamsActive)
	}

	// The counters surface through the export and the Prometheus view.
	resp, body := get(t, ts.URL+"/v1/metrics?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var e obs.Export
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.SchemaVersion != obs.ExportSchemaVersion {
		t.Errorf("export schema = %d, want %d", e.SchemaVersion, obs.ExportSchemaVersion)
	}
	if e.StreamItems != n {
		t.Errorf("export StreamItems = %d, want %d", e.StreamItems, n)
	}
	resp, body = get(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom status %d", resp.StatusCode)
	}
	for _, want := range []string{
		fmt.Sprintf("timingc_stream_items_total %d", n),
		"timingc_streams_active 0",
		"timingc_bytes_in_total ",
		"timingc_bytes_out_total ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestStreamRejectedAfterShutdown: a new stream against a draining
// handler is refused outright with 503.
func TestStreamRejectedAfterShutdown(t *testing.T) {
	h, ts := newService(t, server0(), Options{})
	if err := h.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("stream after shutdown: status %d, want 503", resp.StatusCode)
	}
}
