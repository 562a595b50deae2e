package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/transport/wire"
)

// TestPutResultsClearsReferences: a recycled batch-result slice must
// neither pin the previous batch's responses in memory nor leak a
// stale result into a future response that under-fills the slice.
func TestPutResultsClearsReferences(t *testing.T) {
	sp := getResults(3)
	s := *sp
	for i := range s {
		s[i] = wire.BatchResult{
			Response: &wire.RunResponse{Time: uint64(i + 1)},
			Error:    &wire.Error{Code: wire.CodeInternal},
		}
	}
	putResults(sp)
	// The pooled backing array must hold no references now.
	full := s[:cap(s)]
	for i := range full {
		if full[i].Response != nil || full[i].Error != nil {
			t.Fatalf("putResults left element %d referenced: %+v", i, full[i])
		}
	}
	// And a fresh get of any size must come back zeroed.
	sp2 := getResults(2)
	for i, r := range *sp2 {
		if r.Response != nil || r.Error != nil {
			t.Fatalf("getResults returned stale element %d: %+v", i, r)
		}
	}
	putResults(sp2)
}

// TestPutBufDropsOversized: pathological bodies must not pin megabytes
// in the pool.
func TestPutBufDropsOversized(t *testing.T) {
	big := make([]byte, 0, wire.MaxPooledBuf+1)
	wire.PutBuf(&big) // must be dropped, not pooled
	huge := make([]wire.BatchResult, 0, maxPooledResults+1)
	putResults(&huge)
	// No direct observation of the pool internals; the property under
	// test is just that neither call panics or retains — exercised for
	// the race detector and as documentation of the cap contract.
}

// TestPooledBuffersNotAliasedUnderLoad is the leak-safety acceptance
// test: with many concurrent requests churning the buffer pool, every
// response must still decode cleanly and answer its own request — a
// buffer returned to the pool while the ResponseWriter still
// referenced it would corrupt interleaved responses.
func TestPooledBuffersNotAliasedUnderLoad(t *testing.T) {
	_, ts := newService(t, server.PoolOptions{Workers: 4, QueueDepth: 8}, Options{})

	const (
		goroutines = 8
		perG       = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h := int64((g*perG + i) % 64)
				raw, err := json.Marshal(wire.RunRequest{
					Inputs: map[string]int64{"h": h},
					Trace:  true,
				})
				if err != nil {
					errs <- err
					continue
				}
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					continue
				}
				var out wire.RunResponse
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- fmt.Errorf("corrupt response %q: %w", body, err)
					continue
				}
				// The traced reply pins the response to this request.
				if len(out.Trace) != 1 || out.Trace[0].Var != "reply" {
					errs <- fmt.Errorf("h=%d: wrong trace %+v", h, out.Trace)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
