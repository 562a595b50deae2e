package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine/hw"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport/wire"
)

// TestTenantOrdersNoDeadlock drives tenanted traffic that would
// deadlock a handler that waits for a busy session while it holds
// tickets of its own. Six clients send 100 operations each under one
// 10 s deadline: batches naming the tenants a, b, c, d in that order
// and in the opposite order, the same two mixes as /v1/stream lines,
// and batches that repeat one tenant in adjacent items and in items far
// apart. Every item must be served, and each tenant's epochs must be
// 1..N with no gap or repeat: its items ran one at a time.
func TestTenantOrdersNoDeadlock(t *testing.T) {
	const clients, ops = 6, 100
	p, r := buildProg(t, echoSrc)
	pool, err := server.NewPool(p, r, server.PoolOptions{
		Workers: 2,
		Options: server.Options{Env: hw.NewPartitioned(r.Lat, hw.Table1Config())},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Options{Pool: pool, Prog: p, Sessions: newSessions(t, session.Options{Lat: r.Lat})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	// A deadlocked handler never returns, and closing the server would
	// wait for it forever; leave the server to the process instead.
	deadlocked := false
	t.Cleanup(func() {
		if !deadlocked {
			ts.Close()
			pool.Close()
		}
	})

	repeat := func(n int, names ...string) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, names...)
		}
		return out
	}
	shapes := []struct {
		stream  bool
		tenants []string
	}{
		{false, repeat(4, "a", "b", "c", "d")},
		{false, repeat(4, "d", "c", "b", "a")},
		{true, repeat(4, "a", "b", "c", "d")},
		{true, repeat(4, "d", "c", "b", "a")},
		{false, []string{"b", "b", "b", "a", "a", "c", "c", "d", "d", "d"}},
		{false, []string{"c", "a", "b", "d", "a", "b", "d", "a", "b", "d", "c"}},
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var (
		mu     sync.Mutex
		epochs = map[string][]int{}
		wg     sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		shape := shapes[c%len(shapes)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
			defer hc.CloseIdleConnections()
			var body bytes.Buffer
			var path string
			if shape.stream {
				path = "/v1/stream"
				for i, tenant := range shape.tenants {
					raw, _ := json.Marshal(wire.RunRequest{Tenant: tenant, Inputs: map[string]int64{"h": int64(i)}})
					body.Write(raw)
					body.WriteByte('\n')
				}
			} else {
				path = "/v1/batch"
				batch := wire.BatchRequest{}
				for i, tenant := range shape.tenants {
					batch.Requests = append(batch.Requests, wire.RunRequest{Tenant: tenant, Inputs: map[string]int64{"h": int64(i)}})
				}
				raw, _ := json.Marshal(batch)
				body.Write(raw)
			}
			for k := 0; k < ops; k++ {
				results, err := pipelinePost(ctx, hc, ts.URL+path, body.Bytes(), shape.stream)
				if err != nil {
					if ctx.Err() != nil {
						mu.Lock()
						deadlocked = true
						mu.Unlock()
					}
					t.Errorf("client %d operation %d: %v", c, k, err)
					return
				}
				if len(results) != len(shape.tenants) {
					t.Errorf("client %d operation %d: %d results for %d items", c, k, len(results), len(shape.tenants))
					return
				}
				mu.Lock()
				for i, res := range results {
					if res.Response == nil || res.Response.Tenant != shape.tenants[i] {
						t.Errorf("client %d operation %d item %d (tenant %s): %+v", c, k, i, shape.tenants[i], res)
						continue
					}
					epochs[res.Response.Tenant] = append(epochs[res.Response.Tenant], res.Response.Epoch)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if deadlocked {
		t.Fatal("tenanted traffic deadlocked: operations still pending at the 10 s deadline")
	}
	total := 0
	for tenant, got := range epochs {
		seen := make([]bool, len(got)+1)
		for _, e := range got {
			if e < 1 || e > len(got) || seen[e] {
				t.Fatalf("tenant %s: epoch %d out of 1..%d or repeated", tenant, e, len(got))
			}
			seen[e] = true
		}
		total += len(got)
	}
	t.Logf("%d tenanted items over %d tenants", total, len(epochs))
}

// pipelinePost sends one batch or stream body and returns its results.
func pipelinePost(ctx context.Context, hc *http.Client, url string, body []byte, stream bool) ([]wire.BatchResult, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	if !stream {
		var br wire.BatchResponse
		err := json.Unmarshal(out, &br)
		return br.Results, err
	}
	var results []wire.BatchResult
	for _, line := range nonEmptyLines(out) {
		var res wire.BatchResult
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// TestStalledStreamHoldsNoSession: a stream whose client stops reading
// its results holds none of its tenants' sessions, so a request for one
// of those tenants elsewhere is served within its own deadline. The
// stream's writer blocks in its first write to the client; its decode
// loop then fills the in-flight window with items of 600 tenants and
// blocks, and a /v1/run for the tenant of one of the last items it
// started must still return 200 within 2 s.
func TestStalledStreamHoldsNoSession(t *testing.T) {
	h, _ := newService(t, server.PoolOptions{}, Options{Sessions: newSessions(t, session.Options{})})
	const lines = 600
	pr, pw := io.Pipe()
	go func() {
		for i := 0; i < lines; i++ {
			if _, err := fmt.Fprintf(pw, `{"tenant":"s%d","inputs":{"h":%d}}`+"\n", i, i%64); err != nil {
				return
			}
		}
	}()
	stalled := &stalledWriter{header: http.Header{}, release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(stalled, httptest.NewRequest("POST", "/v1/stream", pr))
	}()
	defer func() {
		close(stalled.release)
		pw.Close()
		<-served
	}()

	// Wait until the decode loop has stopped on a full window: it has
	// started at least a window of items and starts no more.
	started, last, deadline := uint64(0), time.Now(), time.Now().Add(10*time.Second)
	for started < DefaultStreamWindow || time.Since(last) < 100*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("the stalled stream started %d items in 10 s; want a full window of %d", started, DefaultStreamWindow)
		}
		if n := h.opts.Pool.Snapshot().StreamItems; n != started {
			started, last = n, time.Now()
		}
		time.Sleep(5 * time.Millisecond)
	}
	if started >= lines {
		t.Fatalf("the stream started all %d items: its writes did not stall", started)
	}

	tenant := fmt.Sprintf("s%d", started-2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	body := fmt.Sprintf(`{"tenant":%q,"inputs":{"h":1}}`, tenant)
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		h.ServeHTTP(rec, req)
	}()
	select {
	case <-ran:
	case <-time.After(3 * time.Second):
		t.Fatalf("/v1/run for %s is still waiting for the session the stalled stream holds", tenant)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/run for %s = %d: %s", tenant, rec.Code, rec.Body.Bytes())
	}
}

// stalledWriter is an http.ResponseWriter whose client has stopped
// reading: Write blocks until release is closed.
type stalledWriter struct {
	header  http.Header
	release chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(b []byte) (int, error) {
	<-w.release
	return len(b), nil
}
