package transport

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/server"
	"repro/internal/transport/wire"
)

// batchAllocBudget is the allocation budget per item of an anonymous
// batch, from the request body to the encoded results, with building
// the request and its recorder left out. The measured steady state is
// 4.30 on the vm engine: per item, the decoded inputs map (two), the
// request closure and the converted result, plus the batch's own
// buffers spread over its items.
const batchAllocBudget = 4.4

// TestBatchAllocBudget pins the allocations of a 64-item anonymous
// batch served through Handler.ServeHTTP on the vm engine. Under the
// race detector, whose sync.Pool drops a quarter of Puts on purpose,
// it is skipped (make allocs runs it without).
func TestBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run without the race detector")
	}
	const n = 64
	h, _ := newService(t, server.PoolOptions{Options: server.Options{Engine: "vm"}}, Options{})
	batch := wire.BatchRequest{Requests: make([]wire.RunRequest, n)}
	for i := range batch.Requests {
		batch.Requests[i] = wire.RunRequest{Inputs: map[string]int64{"h": int64(i)}}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	newReq := func() (*http.Request, *httptest.ResponseRecorder) {
		return httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)), httptest.NewRecorder()
	}
	serve := func() {
		r, w := newReq()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
	}
	for i := 0; i < 8; i++ {
		serve() // warm the buffer, response and result-channel pools
	}
	setup := testing.AllocsPerRun(100, func() { newReq() })
	avg := (testing.AllocsPerRun(100, serve) - setup) / n
	t.Logf("anonymous batch: %.2f allocs/item (budget %.2f; request and recorder %.0f)", avg, batchAllocBudget, setup)
	if avg > batchAllocBudget {
		t.Errorf("an anonymous batch allocates %.2f per item, budget %.2f", avg, batchAllocBudget)
	}
}
