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
	"repro/internal/transport/wire/fastjson"
)

// TestPutResultsClearsReferences: a recycled batch must neither pin the
// previous batch's results nor leak a stale request or result into a
// future batch that under-fills it.
func TestPutResultsClearsReferences(t *testing.T) {
	b := getBatch()
	for i := 0; i < 3; i++ {
		req := b.elem(i)
		req.Tenant = "stale"
		req.Slots = append(req.Slots, fastjson.SlotInput{Slot: 0, Value: 1})
		it := b.items[i]
		it.resp.Time = uint64(i + 1)
		it.res = wire.BatchResult{Response: &it.resp, Error: &wire.Error{Code: wire.CodeInternal}}
		b.results = append(b.results, it.res)
	}
	items, results := b.items[:3], b.results
	putBatch(b)
	// The pooled results must hold no references now.
	full := results[:cap(results)]
	for i := range full {
		if full[i].Response != nil || full[i].Error != nil {
			t.Fatalf("putBatch left result %d referenced: %+v", i, full[i])
		}
	}
	// And its items must come back empty.
	for i, it := range items {
		if it.req.Tenant != "" || len(it.req.Slots) != 0 || it.res.Response != nil || it.res.Error != nil || it.resp.Time != 0 {
			t.Fatalf("putBatch left item %d stale: %+v", i, it)
		}
	}
	b2 := getBatch()
	if len(b2.results) != 0 || b2.used != 0 {
		t.Fatalf("getBatch returned a used batch: %d results, %d items", len(b2.results), b2.used)
	}
	putBatch(b2)
}

// TestPutBufDropsOversized: pathological bodies must not pin megabytes
// in the pools.
func TestPutBufDropsOversized(t *testing.T) {
	big := make([]byte, 0, wire.MaxPooledBuf+1)
	wire.PutBuf(&big) // must be dropped, not pooled
	// Requests past DefaultMaxBatch decode into one scratch destination,
	// so a pooled batch never holds more than DefaultMaxBatch items.
	b := getBatch()
	for i := 0; i < DefaultMaxBatch+100; i++ {
		b.elem(i).Slots = append(b.elem(i).Slots, fastjson.SlotInput{Slot: 0, Value: int64(i)})
	}
	if len(b.items) > DefaultMaxBatch {
		t.Errorf("an oversized batch holds %d items, want at most %d", len(b.items), DefaultMaxBatch)
	}
	putBatch(b)
	if len(b.overflow.Slots) != 0 || cap(b.overflow.Slots) != 0 {
		t.Errorf("putBatch kept the oversized batch's scratch inputs (cap %d)", cap(b.overflow.Slots))
	}
	// An item drops record storage past maxItemRecords and keeps its
	// setup function.
	it := getItem()
	it.resp.Trace = make([]wire.Event, 0, maxItemRecords+1)
	it.reset()
	if cap(it.resp.Trace) != 0 || it.setup == nil {
		t.Errorf("reset kept a trace of capacity %d (setup bound: %v)", cap(it.resp.Trace), it.setup != nil)
	}
	putItem(it)
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
