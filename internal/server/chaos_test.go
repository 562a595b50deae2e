package server

// Chaos tests: drive the pool through randomized overload, budget,
// deadline, cancellation and shutdown schedules and assert the service
// invariants whatever the schedule — no deadlock (every schedule drains
// within its watchdog), no lost or duplicated response, and every
// failure one of the typed outcomes of the overload contract. The
// requests themselves supply the slowness and the failures: a setup
// closure can sleep or block before it sets its inputs, and the input n
// sets how long the program loops. Each schedule's requests are a
// function of its seed, so a failing seed replays the same workload.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
)

// loopSrc loops n times: a small n finishes at once, n = 50,000
// exhausts chaosMaxSteps, and n = 10^7 outlives any deadline.
const loopSrc = `
var n : L;
var i : L;
i := 0;
while (i < n) {
    i := i + 1;
}
`

const chaosMaxSteps = 20_000

// setN is a request whose setup sleeps for d, then sets n.
func setN(n int64, d time.Duration) Request {
	return func(m *mem.Memory) {
		time.Sleep(d)
		m.Set("n", n)
	}
}

// chaosOutcome names the contract outcome a failure belongs to; ok is
// false for a failure outside the contract.
func chaosOutcome(err error) (kind string, ok bool) {
	var re *RequestError
	typed := errors.As(err, &re)
	switch {
	case errors.Is(err, context.Canceled):
		return "canceled", true
	case errors.Is(err, ErrPoolClosed):
		return "closed", true
	case typed && errors.Is(err, ErrOverloaded):
		return "overloaded", true
	case typed && errors.Is(err, ErrBudgetExceeded):
		return "budget", true
	case typed && errors.Is(err, context.DeadlineExceeded):
		return "deadline", true
	}
	return "", false
}

// chaosReq is one scheduled request: its work, and when its caller
// cancels it (0 never, 1 before Submit, 2 between Submit and Wait).
type chaosReq struct {
	req    Request
	cancel int
}

// chaosResult is the outcome one caller saw.
type chaosResult struct {
	resp *Response
	err  error
	n    int // outcomes recorded for this request; must end at 1
}

func TestChaosSchedules(t *testing.T) {
	p, r := buildProg(t, loopSrc)
	engines := []string{"tree", "vm"}
	var (
		tallyMu sync.Mutex
		tally   = map[string]int{}
	)
	// Subtests are parallel, so the tally is complete only once they
	// have all finished, which is when the parent's cleanups run.
	t.Cleanup(func() { t.Logf("outcomes over 100 schedules: %v", tally) })
	for seed := int64(0); seed < 100; seed++ {
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			var timeout time.Duration
			if rng.Intn(2) == 0 {
				timeout = time.Duration(20+rng.Intn(30)) * time.Millisecond
			}
			pool, err := NewPool(p, r, PoolOptions{
				Options: Options{
					Env:    hw.NewFlat(r.Lat, 2),
					Engine: engines[rng.Intn(len(engines))],
					Limits: exec.Limits{MaxSteps: chaosMaxSteps, Timeout: timeout},
				},
				Workers:          1 + rng.Intn(3),
				QueueDepth:       1 + rng.Intn(2),
				ShedOnSaturation: rng.Intn(2) == 0,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Draw the whole schedule up front: rng is not safe for the
			// drivers' goroutines, and the draw must not depend on them.
			drivers := make([][]chaosReq, 2+rng.Intn(3))
			for g := range drivers {
				drivers[g] = make([]chaosReq, 4+rng.Intn(5))
				for i := range drivers[g] {
					var stall time.Duration
					if rng.Intn(4) == 0 {
						stall = time.Duration(rng.Intn(500)) * time.Microsecond
					}
					cr := &drivers[g][i]
					switch k := rng.Intn(10); {
					case k == 0:
						cr.req = setN(50_000, stall)
					case k == 1 && timeout > 0:
						// The setup outlives the deadline, so the run fails
						// at its first context poll, long before its step
						// budget.
						cr.req = setN(10_000_000, timeout+time.Millisecond)
					default:
						cr.req = setN(int64(rng.Intn(20)), stall)
					}
					// Driver 0 never cancels its requests.
					if g > 0 && rng.Intn(5) == 0 {
						cr.cancel = 1 + rng.Intn(2)
					}
				}
			}
			var closeAfter time.Duration = -1
			if rng.Intn(3) == 0 {
				closeAfter = time.Duration(rng.Intn(3000)) * time.Microsecond
			}

			results := make([][]chaosResult, len(drivers))
			for g := range drivers {
				results[g] = make([]chaosResult, len(drivers[g]))
			}
			var mu sync.Mutex
			record := func(g, i int, resp *Response, err error) {
				mu.Lock()
				res := &results[g][i]
				res.resp, res.err = resp, err
				res.n++
				mu.Unlock()
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				var wg sync.WaitGroup
				if closeAfter >= 0 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						time.Sleep(closeAfter)
						pool.Close()
					}()
				}
				for g, sched := range drivers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						// Pipelined: submit everything, then wait, so
						// shard queues fill and the shed path runs.
						type pending struct {
							ctx    context.Context
							cancel context.CancelFunc
							f      Future
							queued bool
						}
						ps := make([]pending, len(sched))
						for i, cr := range sched {
							ctx, cancel := context.WithCancel(ctxb())
							ps[i] = pending{ctx: ctx, cancel: cancel}
							if cr.cancel == 1 {
								cancel()
							}
							f, err := pool.Submit(ctx, cr.req)
							if err != nil {
								record(g, i, nil, err)
								continue
							}
							ps[i].f, ps[i].queued = f, true
							if cr.cancel == 2 {
								cancel()
							}
						}
						for i, pd := range ps {
							if pd.queued {
								resp, err := pd.f.Wait(pd.ctx)
								record(g, i, resp, err)
							}
							pd.cancel()
						}
					}()
				}
				wg.Wait()
				pool.Close()
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("chaos schedule deadlocked: pool did not drain within 30s")
			}

			successes, cancelled := 0, 0
			seen := map[int]bool{}
			kinds := map[string]int{}
			for g := range results {
				for i, res := range results[g] {
					switch {
					case res.n != 1:
						t.Fatalf("driver %d request %d: %d outcomes, want exactly 1", g, i, res.n)
					case res.resp != nil && res.err != nil:
						t.Fatalf("driver %d request %d: both response and error %v", g, i, res.err)
					case res.resp == nil && res.err == nil:
						t.Fatalf("driver %d request %d: neither response nor error", g, i)
					case res.resp != nil:
						if seen[res.resp.Index] {
							t.Fatalf("duplicated response for submission index %d", res.resp.Index)
						}
						seen[res.resp.Index] = true
						successes++
						kinds["ok"]++
					default:
						kind, ok := chaosOutcome(res.err)
						if !ok {
							t.Fatalf("driver %d request %d: failure outside the contract: %v", g, i, res.err)
						}
						if kind == "canceled" {
							cancelled++
						}
						kinds[kind]++
					}
				}
			}
			// A cancelled caller may abandon a request the worker still
			// serves, so Served can exceed the successes by at most the
			// cancellations; any other gap is a lost or phantom response.
			if served := pool.Served(); served < successes || served > successes+cancelled {
				t.Fatalf("lost or phantom responses: workers served %d, callers received %d (%d cancelled)",
					served, successes, cancelled)
			}
			tallyMu.Lock()
			for k, v := range kinds {
				tally[k] += v
			}
			tallyMu.Unlock()
		})
	}
}

// TestChaosOffPathDeterminism pins that slowness outside the machine —
// setup closures that stall before they set their inputs — leaves
// every response bit-identical to an undisturbed pool's.
func TestChaosOffPathDeterminism(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	run := func(stall time.Duration) []*Response {
		pool, err := NewPool(p, r, PoolOptions{
			Options: Options{Env: hw.NewFlat(r.Lat, 2), Engine: "vm"},
			Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		reqs := make([]Request, 12)
		for i := range reqs {
			h := int64(i * 7 % 64)
			reqs[i] = func(m *mem.Memory) {
				if i%3 != 0 {
					time.Sleep(stall)
				}
				m.Set("h", h)
			}
		}
		resps, err := pool.HandleAll(ctxb(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		return resps
	}
	stalled := run(300 * time.Microsecond)
	clean := run(0)
	for i := range clean {
		if !reflect.DeepEqual(*stalled[i], *clean[i]) {
			t.Fatalf("request %d: stalled response %+v differs from clean %+v", i, *stalled[i], *clean[i])
		}
	}
}

// TestDeadlineStorm floods a pool whose every request times out and
// checks the pool stays live: all failures are typed deadline errors
// and shutdown drains cleanly.
func TestDeadlineStorm(t *testing.T) {
	// A spin loop long enough that every request is still running at its
	// deadline (engines poll the context every ~1k instructions).
	p, r := buildProg(t, `
var i : L;
i := 0;
while (i < 10000000) {
    i := i + 1;
}
`)
	pool, err := NewPool(p, r, PoolOptions{
		Options: Options{
			Env:    hw.NewFlat(r.Lat, 2),
			Engine: "vm",
			Limits: exec.Limits{Timeout: 200 * time.Microsecond},
		},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := pool.Handle(ctxb(), nil); !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("got %v, want context.DeadlineExceeded", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	pool.Close()
	if served := pool.Served(); served != 0 {
		t.Errorf("served %d requests despite universal deadline expiry", served)
	}
}

// TestCancelledWaitNoCrosstalk is the regression test for the response
// channel lifecycle: a Wait abandoned by context cancellation must not
// recycle its channel while the worker's late send is still in flight,
// or a later request would receive the dead request's response.
func TestCancelledWaitNoCrosstalk(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	pool, err := NewPool(p, r, PoolOptions{
		Options: Options{Env: hw.NewFlat(r.Lat, 2), Engine: "vm"},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Each round's first request blocks its setup on a gate, so the
	// worker is still busy when the caller cancels and abandons the
	// Wait. Several rounds, because the race detector makes sync.Pool
	// drop a random share of recycled channels.
	next := 0
	for round := 0; round < 5; round++ {
		entered, gate := make(chan struct{}), make(chan struct{})
		ctx, cancel := context.WithCancel(context.Background())
		f, err := pool.Submit(ctx, func(m *mem.Memory) {
			close(entered)
			<-gate
			m.Set("h", 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		next++
		<-entered
		cancel()
		if _, err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned Wait = %v, want context.Canceled", err)
		}
		close(gate)

		// If the abandoned channel had been recycled, a later request
		// would receive the dead request's late result and report the
		// wrong submission index.
		for i := 0; i < 40; i++ {
			resp, err := pool.Handle(ctxb(), setH(int64(i%64)))
			if err != nil {
				t.Fatalf("request %d failed: %v", next, err)
			}
			if resp.Index != next {
				t.Fatalf("response crosstalk: got index %d, want %d", resp.Index, next)
			}
			next++
		}
	}
}
