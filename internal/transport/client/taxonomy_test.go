package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/types"
)

// taxonomySrc is the same secret-dependent workload the transport
// tests serve: a mitigated sleep on the secret, then a public reply.
const taxonomySrc = `
var h : H;
var reply : L;
mitigate (1, H) [L,L] {
    sleep(h % 64) [H,H];
}
reply := 1;
`

// liveService stands up a real pool + transport handler + HTTP server
// (no stubs — every status code below is produced by the actual
// service path) and counts requests so tests can assert retry counts.
func liveService(t *testing.T, popts server.PoolOptions, hopts transport.Options) (*transport.Handler, string, *atomic.Int64, *server.Pool) {
	t.Helper()
	p, err := parser.Parse(taxonomySrc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := types.Check(p, lattice.TwoPoint())
	if err != nil {
		t.Fatal(err)
	}
	if popts.Env == nil {
		popts.Env = hw.NewPartitioned(r.Lat, hw.Table1Config())
	}
	if popts.Workers == 0 {
		popts.Workers = 1
	}
	pool, err := server.NewPool(p, r, popts)
	if err != nil {
		t.Fatal(err)
	}
	hopts.Pool = pool
	hopts.Prog = p
	h, err := transport.New(hopts)
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return h, ts.URL, &hits, pool
}

// TestTaxonomyAgainstLiveService walks the full error taxonomy against
// a real service — each arm provokes the genuine server-side failure
// and asserts the sentinel, the HTTP status, and the wire code all
// line up. This is the end-to-end contract the fakeService unit tests
// above cannot give.
func TestTaxonomyAgainstLiveService(t *testing.T) {
	ctx := context.Background()

	t.Run("400 unknown_input", func(t *testing.T) {
		_, url, _, _ := liveService(t, server.PoolOptions{}, transport.Options{})
		c := New(url, Options{})
		_, err := c.Run(ctx, wire.RunRequest{Inputs: map[string]int64{"nope": 1}})
		assertTaxonomy(t, err, ErrInvalidRequest, http.StatusBadRequest, wire.CodeUnknownInput)
	})

	t.Run("422 budget_exceeded", func(t *testing.T) {
		_, url, _, _ := liveService(t, server.PoolOptions{
			Options: server.Options{Limits: exec.Limits{MaxSteps: 2}},
		}, transport.Options{})
		c := New(url, Options{})
		_, err := c.Run(ctx, wire.RunRequest{Inputs: map[string]int64{"h": 63}})
		assertTaxonomy(t, err, ErrBudgetExceeded, http.StatusUnprocessableEntity, wire.CodeBudgetExceeded)
	})

	t.Run("429 leakage_budget_exceeded", func(t *testing.T) {
		mgr, err := session.NewManager(session.Options{
			Lat:        lattice.TwoPoint(),
			BudgetBits: 10,
			TTL:        time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, url, hits, _ := liveService(t, server.PoolOptions{}, transport.Options{Sessions: mgr})
		// MaxRetries set high on purpose: a 429 must NOT be retried —
		// the tenant's account only resets when the session expires.
		c := New(url, Options{Tenant: "bob", MaxRetries: 5})
		c.sleep = func(context.Context, time.Duration) bool { return true }

		var denied error
		for i := 0; i < 50 && denied == nil; i++ {
			resp, err := c.Run(ctx, wire.RunRequest{Inputs: map[string]int64{"h": 63}})
			if err != nil {
				denied = err
				break
			}
			// Options.Tenant must ride on every request.
			if resp.Tenant != "bob" || resp.Epoch != i+1 {
				t.Fatalf("run %d: session fields = %q/%d", i+1, resp.Tenant, resp.Epoch)
			}
		}
		if denied == nil {
			t.Fatal("a 10-bit budget must eventually deny")
		}
		assertTaxonomy(t, denied, ErrLeakageBudget, http.StatusTooManyRequests, wire.CodeLeakageBudget)
		var cerr *Error
		errors.As(denied, &cerr)
		if cerr.RetryAfter != time.Minute {
			t.Errorf("RetryAfter = %v, want the session TTL (1m)", cerr.RetryAfter)
		}

		// Exactly one HTTP request per Run call: the denial was not
		// silently retried despite MaxRetries.
		before := hits.Load()
		if _, err := c.Run(ctx, wire.RunRequest{Inputs: map[string]int64{"h": 1}}); !errors.Is(err, ErrLeakageBudget) {
			t.Fatalf("still-denied tenant: err = %v", err)
		}
		if got := hits.Load() - before; got != 1 {
			t.Errorf("429 was retried: %d requests for one call", got)
		}

		// A per-request tenant overrides the client default and is
		// admitted on its own fresh account.
		resp, err := c.Run(ctx, wire.RunRequest{Tenant: "alice", Inputs: map[string]int64{"h": 1}})
		if err != nil {
			t.Fatalf("override tenant: %v", err)
		}
		if resp.Tenant != "alice" || resp.Epoch != 1 {
			t.Errorf("override tenant session = %q/%d", resp.Tenant, resp.Epoch)
		}
	})

	t.Run("503 overloaded", func(t *testing.T) {
		_, url, hits, pool := liveService(t, server.PoolOptions{
			Workers: 1, QueueDepth: 1, ShedOnSaturation: true,
		}, transport.Options{})
		// Hold the only worker on a gated request and take the queue
		// entry, so every submission sheds until the gate opens.
		entered, gate := make(chan struct{}), make(chan struct{})
		running, err := pool.Submit(ctx, func(*mem.Memory) { close(entered); <-gate })
		if err != nil {
			t.Fatal(err)
		}
		<-entered
		queued, err := pool.Submit(ctx, func(*mem.Memory) {})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { // before liveService's pool.Close
			close(gate)
			running.Wait(ctx)
			queued.Wait(ctx)
		})
		c := New(url, Options{MaxRetries: 2, RetrySeed: 7})
		c.sleep = func(context.Context, time.Duration) bool { return true }
		_, err = c.Run(ctx, wire.RunRequest{Inputs: map[string]int64{"h": 1}})
		assertTaxonomy(t, err, ErrOverloaded, http.StatusServiceUnavailable, wire.CodeOverloaded)
		var cerr *Error
		if errors.As(err, &cerr) && cerr.RetryAfter != transport.RetryAfter {
			t.Errorf("RetryAfter = %v, want the transport's %v", cerr.RetryAfter, transport.RetryAfter)
		}
		// Overload IS retried: 1 initial + 2 retries.
		if got := hits.Load(); got != 3 {
			t.Errorf("attempts = %d, want 3", got)
		}
	})

	t.Run("503 shutting_down", func(t *testing.T) {
		h, url, _, _ := liveService(t, server.PoolOptions{}, transport.Options{})
		if err := h.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		c := New(url, Options{MaxRetries: 3, RetrySeed: 7})
		c.sleep = func(context.Context, time.Duration) bool { return true }
		_, err := c.Run(ctx, wire.RunRequest{Inputs: map[string]int64{"h": 1}})
		assertTaxonomy(t, err, ErrShuttingDown, http.StatusServiceUnavailable, wire.CodeShuttingDown)
	})
}

// assertTaxonomy checks the three faces of one failure: the errors.Is
// sentinel, the HTTP status, and the stable wire code.
func assertTaxonomy(t *testing.T, err, sentinel error, status int, code string) {
	t.Helper()
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want errors.Is(%v)", err, sentinel)
	}
	var cerr *Error
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *client.Error", err)
	}
	if cerr.Status != status {
		t.Errorf("status = %d, want %d", cerr.Status, status)
	}
	if cerr.Code != code {
		t.Errorf("code = %q, want %q", cerr.Code, code)
	}
}
