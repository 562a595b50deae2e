package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport/wire"
)

// overloadSrc is echoSrc with a public loop after the mitigated block:
// the input n sets how long a request holds the worker.
const overloadSrc = `
var h : H;
var n : L;
var i : L;
var reply : L;
mitigate (1, H) [L,L] {
    sleep(h % 64) [H,H];
}
i := 0;
while (i < n) {
    i := i + 1;
}
reply := 1;
`

// overloadOp is one scheduled HTTP call: kind 0 is /v1/run, 1 an
// anonymous /v1/batch, 2 a tenanted /v1/batch, 3 a /v1/stream.
type overloadOp struct {
	kind  int
	items []wire.RunRequest
}

// TestOverloadOutcomes is the HTTP overload contract. An open-loop
// sender drives a one-worker, depth-one, shedding pool behind a small
// MaxInFlight well past its capacity, with a tenant that overruns its
// leakage budget, and Shutdown begins partway through. Every run and
// batch item must end in exactly one of a result, 503 overloaded, 429
// leakage_budget_exceeded or 503 shutting_down; a stream must answer
// each accepted item in order and may end with one shutting_down line;
// no response index may repeat; and nothing may be outstanding at the
// watchdog.
func TestOverloadOutcomes(t *testing.T) {
	mgr, err := session.NewManager(session.Options{Lat: lattice.TwoPoint(), BudgetBits: 8, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	h, ts := newServiceFor(t, overloadSrc, server.PoolOptions{
		Workers: 1, QueueDepth: 1, ShedOnSaturation: true,
		Options: server.Options{Engine: "vm"},
	}, Options{MaxInFlight: 4, Sessions: mgr})
	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer hc.CloseIdleConnections()

	// The schedule is drawn up front, so the sender's goroutines share
	// no generator.
	rng := rand.New(rand.NewSource(1))
	item := func(tenant string) wire.RunRequest {
		n := int64(10)
		if rng.Intn(2) == 0 {
			n = 2000
		}
		return wire.RunRequest{Tenant: tenant, Inputs: map[string]int64{"h": int64(rng.Intn(64)), "n": n}}
	}
	tenant := func() string {
		if rng.Intn(2) == 0 {
			return "greedy"
		}
		return ""
	}
	ops := make([]overloadOp, 100)
	for k := range ops {
		op := &ops[k]
		op.kind = rng.Intn(4)
		switch op.kind {
		case 0:
			op.items = []wire.RunRequest{item(tenant())}
		case 1:
			op.items = []wire.RunRequest{item(""), item(""), item("")}
		case 2:
			op.items = []wire.RunRequest{item("greedy"), item("greedy"), item("greedy")}
		case 3:
			for j := 0; j < 4; j++ {
				op.items = append(op.items, item(tenant()))
			}
		}
	}

	var (
		mu      sync.Mutex
		tally   = map[string]int{}
		indices = map[int]bool{}
	)
	// record checks and counts one item's outcome.
	record := func(what string, res wire.BatchResult) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case res.Response != nil && res.Error == nil:
			if indices[res.Response.Index] {
				t.Errorf("%s: response index %d repeats", what, res.Response.Index)
			}
			indices[res.Response.Index] = true
			tally["ok"]++
		case res.Response == nil && res.Error != nil &&
			(res.Error.Code == wire.CodeOverloaded || res.Error.Code == wire.CodeLeakageBudget ||
				res.Error.Code == wire.CodeShuttingDown):
			tally[res.Error.Code]++
		default:
			t.Errorf("%s: outcome outside the contract: %+v", what, res)
		}
	}
	// post sends one body and returns the status and the whole reply.
	post := func(path string, body []byte) (int, []byte, error) {
		resp, err := hc.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	// refusal decodes a whole-request error and checks its status.
	refusal := func(what string, status int, body []byte) (wire.BatchResult, bool) {
		var env struct {
			Error *wire.Error `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || statusFor(env.Error.Code) != status {
			t.Errorf("%s: status %d with body %s", what, status, body)
			return wire.BatchResult{}, false
		}
		return wire.BatchResult{Error: env.Error}, true
	}

	run := func(k int, op overloadOp) error {
		what := fmt.Sprintf("op %d (kind %d)", k, op.kind)
		switch op.kind {
		case 0:
			body, _ := json.Marshal(op.items[0])
			status, out, err := post("/v1/run", body)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				if res, ok := refusal(what, status, out); ok {
					record(what, res)
				}
				return nil
			}
			var rr wire.RunResponse
			if err := json.Unmarshal(out, &rr); err != nil {
				return fmt.Errorf("%s: %v: %s", what, err, out)
			}
			record(what, wire.BatchResult{Response: &rr})
		case 1, 2:
			body, _ := json.Marshal(wire.BatchRequest{Requests: op.items})
			status, out, err := post("/v1/batch", body)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				if res, ok := refusal(what, status, out); ok {
					for range op.items {
						record(what, res)
					}
				}
				return nil
			}
			var br wire.BatchResponse
			if err := json.Unmarshal(out, &br); err != nil {
				return fmt.Errorf("%s: %v: %s", what, err, out)
			}
			if len(br.Results) != len(op.items) {
				return fmt.Errorf("%s: %d results for %d items", what, len(br.Results), len(op.items))
			}
			for _, res := range br.Results {
				record(what, res)
			}
		case 3:
			var body bytes.Buffer
			for _, it := range op.items {
				raw, _ := json.Marshal(it)
				body.Write(raw)
				body.WriteByte('\n')
			}
			status, out, err := post("/v1/stream", body.Bytes())
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				if res, ok := refusal(what, status, out); ok {
					record(what, res)
				}
				return nil
			}
			lines := nonEmptyLines(out)
			answered, last := 0, -1
			for j, line := range lines {
				var res wire.BatchResult
				if err := json.Unmarshal(line, &res); err != nil {
					return fmt.Errorf("%s: line %d: %v: %s", what, j, err, line)
				}
				if res.Error != nil && res.Error.Code == wire.CodeShuttingDown {
					// Terminal: the stream accepted no item after it.
					if j != len(lines)-1 {
						t.Errorf("%s: shutting_down line %d of %d is not the last", what, j, len(lines))
					}
					record(what, res)
					break
				}
				if res.Response != nil {
					// Items are submitted in line order, so their pool
					// indices rise with it.
					if res.Response.Index <= last {
						t.Errorf("%s: line %d index %d after %d: out of order", what, j, res.Response.Index, last)
					}
					last = res.Response.Index
				}
				record(what, res)
				answered++
			}
			terminated := len(lines) > answered
			if answered > len(op.items) || (!terminated && answered != len(op.items)) {
				t.Errorf("%s: %d item lines for %d items (terminated %v)", what, answered, len(op.items), terminated)
			}
		}
		return nil
	}

	// Open loop: operation k starts at k·interval whether or not the
	// earlier ones have finished.
	const interval = time.Millisecond
	var wg sync.WaitGroup
	shutdown := make(chan error, 1)
	start := time.Now()
	for k, op := range ops {
		time.Sleep(time.Until(start.Add(time.Duration(k) * interval)))
		if k == len(ops)*7/10 {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				shutdown <- h.Shutdown(ctx)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(k, op); err != nil {
				t.Error(err)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		if err := <-shutdown; err != nil {
			t.Errorf("Shutdown = %v", err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("requests still outstanding 30s after the last send")
	}
	t.Logf("outcomes: %v", tally)
}

// TestShedPerItem pins the shedding rule: under ShedOnSaturation an
// anonymous item that finds its shard queue full gets overloaded in its
// own slot, and the rest of the request still runs. A batch is shed
// item by item exactly as a stream is. The one worker is held and its
// one queue entry is free, so the first of four items is queued and
// the other three are shed; the worker is released once they have
// been.
func TestShedPerItem(t *testing.T) {
	items := make([]wire.RunRequest, 4)
	for i := range items {
		items[i] = wire.RunRequest{Inputs: map[string]int64{"h": int64(i)}}
	}
	want := []string{"ok", wire.CodeOverloaded, wire.CodeOverloaded, wire.CodeOverloaded}
	outcomes := func(results []wire.BatchResult) []string {
		out := make([]string, len(results))
		for i, res := range results {
			out[i] = "ok"
			if res.Error != nil {
				out[i] = res.Error.Code
			}
		}
		return out
	}
	for _, endpoint := range []string{"batch", "stream"} {
		t.Run(endpoint, func(t *testing.T) {
			h, ts := newService(t, heldPool(), Options{})
			release := holdWorker(t, h.opts.Pool, false)
			go func() {
				// Give up after a while, so that a batch queued whole
				// fails this test instead of hanging it.
				for end := time.Now().Add(2 * time.Second); h.opts.Pool.Snapshot().Sheds < 3 && time.Now().Before(end); {
					time.Sleep(100 * time.Microsecond)
				}
				release()
			}()
			var results []wire.BatchResult
			if endpoint == "batch" {
				resp, body := postJSON(t, ts.URL+"/v1/batch", wire.BatchRequest{Requests: items})
				var br wire.BatchResponse
				if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &br) != nil {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				results = br.Results
			} else {
				var body bytes.Buffer
				for _, it := range items {
					raw, _ := json.Marshal(it)
					body.Write(raw)
					body.WriteByte('\n')
				}
				resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", &body)
				if err != nil {
					t.Fatal(err)
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				for _, line := range nonEmptyLines(out) {
					var res wire.BatchResult
					if err := json.Unmarshal(line, &res); err != nil {
						t.Fatalf("%v: %s", err, line)
					}
					results = append(results, res)
				}
			}
			if got := outcomes(results); !reflect.DeepEqual(got, want) {
				t.Errorf("outcomes %v, want %v", got, want)
			}
		})
	}
}
