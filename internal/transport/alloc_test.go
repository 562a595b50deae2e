package transport

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport/wire"
)

// batchAllocBudget is the allocation budget per item of a 64-item
// batch, anonymous or tenanted, from the request body to the encoded
// results, with building the request and recording the response left
// out. Items
// are pooled, decoded with their inputs resolved to slots, and run with
// a setup function bound once, so an anonymous item measures about
// 0.05 on the vm engine (the response headers spread over the batch's
// items) and a tenanted one about 0.9: the tenant names that miss the
// decoder's bounded intern table.
const batchAllocBudget = 1.0

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
	avg := batchAllocs(t, h, [][]byte{body}, n)
	t.Logf("anonymous batch: %.2f allocs/item (budget %.2f)", avg, batchAllocBudget)
	if avg > batchAllocBudget {
		t.Errorf("an anonymous batch allocates %.2f per item, budget %.2f", avg, batchAllocBudget)
	}
}

// TestTenantBatchAllocBudget pins the allocations of 64-item tenanted
// batches whose tenants are drawn from 4,096, four times the session
// cap of 1,024, so admissions evict and recycle sessions, on the vm
// engine.
func TestTenantBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run without the race detector")
	}
	const n, tenants, sessions = 64, 4096, 1024
	mgr := newSessions(t, session.Options{MaxSessions: sessions})
	h, _ := newService(t, server.PoolOptions{Options: server.Options{Engine: "vm"}}, Options{Sessions: mgr})
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 64)
	for k := range bodies {
		batch := wire.BatchRequest{Requests: make([]wire.RunRequest, n)}
		for i := range batch.Requests {
			batch.Requests[i] = wire.RunRequest{
				Tenant: "t" + strconv.Itoa(rng.Intn(tenants)),
				Inputs: map[string]int64{"h": int64(rng.Intn(64))},
			}
		}
		var err error
		if bodies[k], err = json.Marshal(batch); err != nil {
			t.Fatal(err)
		}
	}
	avg := batchAllocs(t, h, bodies, n)
	t.Logf("tenanted batch: %.2f allocs/item (budget %.2f; %d live sessions)", avg, batchAllocBudget, mgr.Len())
	if avg > batchAllocBudget {
		t.Errorf("a tenanted batch allocates %.2f per item, budget %.2f", avg, batchAllocBudget)
	}
}

// batchAllocs serves the batch bodies round-robin through
// h.ServeHTTP and returns the allocations per item, less those of
// building each request. The response goes to a reused writer that
// keeps only its status, so recording the body allocates nothing.
func batchAllocs(t *testing.T, h *Handler, bodies [][]byte, items int) float64 {
	t.Helper()
	next := 0
	newReq := func() *http.Request {
		body := bodies[next%len(bodies)]
		next++
		return httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
	}
	w := &statusWriter{header: http.Header{}}
	serve := func() {
		clear(w.header)
		w.code = 0
		h.ServeHTTP(w, newReq())
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	for i := 0; i < 4*len(bodies)+8; i++ {
		serve() // warm the pools and fill the session table
	}
	setup := testing.AllocsPerRun(100, func() { newReq() })
	return (testing.AllocsPerRun(200, serve) - setup) / float64(items)
}

// statusWriter is a reusable http.ResponseWriter that keeps only the
// status code.
type statusWriter struct {
	header http.Header
	code   int
}

func (w *statusWriter) Header() http.Header         { return w.header }
func (w *statusWriter) WriteHeader(code int)        { w.code = code }
func (w *statusWriter) Write(b []byte) (int, error) { return len(b), nil }
