package session_test

// This file lives in the external test package so it can drive the
// REAL serving stack — a server.Pool spliced with per-tenant
// mitigation state — against the session manager, exactly the way the
// transport layer does. The internal tests in session_test.go cover
// the manager's own locking; this one covers the interleaving the
// paper's accounting cannot afford to get wrong: many concurrent
// requests on ONE tenant racing TTL eviction, where a lost or
// double-counted epoch would silently corrupt the §7 leakage account.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/leakage"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/types"
)

// commit is one raw epoch-log record: what the caller handed Commit,
// and the Info the manager returned for it.
type commit struct {
	elapsed uint64
	mits    int
	info    session.Info
}

// TestSessionRaceEvictionAccounting hammers a single tenant from many
// goroutines — each doing the full Begin → pool.HandleWith → Commit
// cycle — while the injected clock jumps past the TTL mid-stream so
// generations of the session are evicted and recreated under load.
// A session expires only while no request holds it, so every fifth
// iteration the goroutines meet at a barrier once all have checked
// in; the clock jumps once there, and they are released together to
// race Begin on the expired session. Run with -race; the assertions
// reconstruct the account from the raw commit log and fail if any
// epoch was lost, double-counted, or mis-billed.
func TestSessionRaceEvictionAccounting(t *testing.T) {
	prog, err := parser.Parse(`
var h : H;
var reply : L;
mitigate (1, H) [L,L] {
    sleep(h % 64) [H,H];
}
reply := 1;
`)
	if err != nil {
		t.Fatal(err)
	}
	lat := lattice.TwoPoint()
	res, err := types.Check(prog, lat)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := server.NewPool(prog, res, server.PoolOptions{
		Options: server.Options{Env: hw.NewPartitioned(lat, hw.Table1Config())},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const ttl = time.Minute
	var clock atomic.Int64 // nanoseconds since epoch 0
	met := obs.NewMetrics()
	mgr, err := session.NewManager(session.Options{
		Lat:     lat,
		TTL:     ttl,
		Metrics: met,
		Now:     func() time.Time { return time.Unix(0, clock.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		iters      = 25
		jumps      = iters / 5
	)
	// Barrier round r: every goroutine calls arrived[r].Done at the
	// start of iteration 5r+4, once its earlier tickets are committed,
	// then waits for release[r], which closes after the one clock jump.
	var arrived [jumps]sync.WaitGroup
	var release [jumps]chan struct{}
	for r := range release {
		arrived[r].Add(goroutines)
		release[r] = make(chan struct{})
	}
	ctx := context.Background()
	log := make([][]commit, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Errors continue rather than return, so no goroutine
				// leaves the others waiting at a barrier.
				if i%5 == 4 {
					arrived[i/5].Done()
					<-release[i/5]
				}
				tk, err := mgr.Begin("alice")
				if err != nil {
					t.Errorf("goroutine %d: Begin: %v", g, err)
					continue
				}
				h := int64(g*iters + i)
				resp, err := pool.HandleWith(ctx, func(m *mem.Memory) {
					m.Set("h", h)
				}, tk.Mit())
				if err != nil {
					tk.Abort()
					t.Errorf("goroutine %d: HandleWith: %v", g, err)
					continue
				}
				info := tk.Commit(resp.Time, len(resp.Mitigations))
				log[g] = append(log[g], commit{resp.Time, len(resp.Mitigations), info})
			}
		}(g)
	}
	for r := range release {
		arrived[r].Wait()
		clock.Add(int64(ttl) + 1)
		close(release[r])
	}
	wg.Wait()

	var all []commit
	for _, l := range log {
		all = append(all, l...)
	}
	if len(all) != goroutines*iters {
		t.Fatalf("commit log has %d records, want %d", len(all), goroutines*iters)
	}

	closure := lat.Size() - 1
	epochs := map[int]int{} // epoch number -> occurrences across generations
	// Post-states (CumTime, CumMitigations) and the pre-states each
	// commit claims to have advanced from.
	type state struct {
		t uint64
		k int
	}
	post := map[state]int{}
	pre := map[state]int{}
	for _, c := range all {
		// (a) The billed bits are exactly the §7 bound, recomputed
		// independently from the cumulative counters.
		if want := leakage.Bound(closure, c.info.CumMitigations, c.info.CumTime); c.info.SpentBits != want {
			t.Fatalf("SpentBits = %v, want Bound(%d, %d, %d) = %v",
				c.info.SpentBits, closure, c.info.CumMitigations, c.info.CumTime, want)
		}
		// (b) The program runs exactly one mitigation per request, so
		// the cumulative count must equal the epoch counter — any
		// drift means a commit was applied twice or dropped.
		if c.mits != 1 {
			t.Fatalf("each run must record exactly 1 mitigation, got %d", c.mits)
		}
		if c.info.CumMitigations != c.info.Epoch {
			t.Fatalf("CumMitigations = %d but Epoch = %d: epochs and mitigations disagree",
				c.info.CumMitigations, c.info.Epoch)
		}
		epochs[c.info.Epoch]++
		post[state{c.info.CumTime, c.info.CumMitigations}]++
		pre[state{c.info.CumTime - c.elapsed, c.info.CumMitigations - c.mits}]++
	}

	// (c) Epoch numbers across all generations must form prefixes of
	// 1..n: epoch k+1 can only exist in a generation that also
	// committed epoch k, so occurrence counts are non-increasing in k.
	for k := 1; epochs[k+1] > 0 || epochs[k] > 0; k++ {
		if epochs[k+1] > epochs[k] {
			t.Fatalf("epoch %d committed %d times but epoch %d only %d: a generation lost an epoch",
				k+1, epochs[k+1], k, epochs[k])
		}
	}

	// (d) Chain check from the raw log: every commit's pre-state is
	// either a fresh account (0,0) — the start of a generation — or
	// the post-state of exactly one other commit. A double-counted
	// elapsed or a lost update breaks the matching.
	generations := 0
	for s, n := range pre {
		if s == (state{0, 0}) {
			generations = n
			continue
		}
		if post[s] < n {
			t.Fatalf("%d commits advanced from state (T=%d, K=%d) but only %d commits produced it",
				n, s.t, s.k, post[s])
		}
	}
	if generations != epochs[1] {
		t.Fatalf("%d generation starts but %d first epochs", generations, epochs[1])
	}

	// Each clock jump finds the session idle and expired, so exactly
	// one racing Begin starts a new generation.
	if generations != 1+jumps {
		t.Fatalf("want %d session generations, one per clock jump plus the first, got %d", 1+jumps, generations)
	}
	if s := met.Snapshot(); s.SessionsEvictedTTL != uint64(generations-1) {
		t.Errorf("SessionsEvictedTTL = %d, want %d (one per non-initial generation)",
			s.SessionsEvictedTTL, generations-1)
	}

	// Final visible account must be the last link of the longest chain.
	final, ok := mgr.Peek("alice")
	if !ok {
		t.Fatal("tenant session vanished")
	}
	if want := leakage.Bound(closure, final.CumMitigations, final.CumTime); final.SpentBits != want {
		t.Errorf("final SpentBits = %v, want %v", final.SpentBits, want)
	}
	if post[state{final.CumTime, final.CumMitigations}] == 0 {
		t.Errorf("final account (T=%d, K=%d) was never produced by any commit", final.CumTime, final.CumMitigations)
	}
}
