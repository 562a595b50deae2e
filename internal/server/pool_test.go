package server

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/login"
	"repro/internal/apps/rsa"
	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
)

// poolWorkload is a program plus a deterministic request sequence.
type poolWorkload struct {
	name   string
	pool   func(t *testing.T, workers int) *Pool
	serial func(t *testing.T) *Server
	reqs   []Request
}

// mixedWorkloads builds the acceptance workload: 64 requests total,
// half against the login service and half against RSA decryption, each
// program served by its own pool (a pool serves one program).
func mixedWorkloads(t *testing.T) []poolWorkload {
	t.Helper()
	lat := lattice.TwoPoint()

	lapp, err := login.Build(login.Config{TableSize: 16, WorkFactor: 48, WorkTableSize: 256}, lat)
	if err != nil {
		t.Fatal(err)
	}
	creds := login.MakeCredentials(8)
	var loginReqs []Request
	for i := 0; i < 32; i++ {
		att := login.Attempt{User: creds[i%8].User, Pass: creds[i%8].Pass}
		if i%3 == 0 {
			att.Pass = "wrong"
		}
		loginReqs = append(loginReqs, func(m *mem.Memory) {
			lapp.Setup(m, creds, att, 1, 1)
		})
	}

	rapp, err := rsa.Build(rsa.Config{MaxBlocks: 2, Modulus: 1000003}, rsa.LanguageLevel, lat)
	if err != nil {
		t.Fatal(err)
	}
	var rsaReqs []Request
	for i := 0; i < 32; i++ {
		key := int64(0x5F00FF) + int64(i%5)
		msg := rsa.Message(2, int64(i))
		rsaReqs = append(rsaReqs, func(m *mem.Memory) {
			rapp.Setup(m, key, msg, 64)
		})
	}

	return []poolWorkload{
		{
			name: "login",
			pool: func(t *testing.T, workers int) *Pool {
				p, err := NewPool(lapp.Prog, lapp.Res, PoolOptions{
					Workers: workers,
					Options: Options{Env: hw.MustEnv("partitioned", lat, hw.Table1Config())},
				})
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			serial: func(t *testing.T) *Server {
				s, err := New(lapp.Prog, lapp.Res, Options{
					Env: hw.MustEnv("partitioned", lat, hw.Table1Config()),
				})
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			reqs: loginReqs,
		},
		{
			name: "rsa",
			pool: func(t *testing.T, workers int) *Pool {
				p, err := NewPool(rapp.Prog, rapp.Res, PoolOptions{
					Workers: workers,
					Options: Options{Env: hw.MustEnv("partitioned", lat, hw.Table1Config())},
				})
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			serial: func(t *testing.T) *Server {
				s, err := New(rapp.Prog, rapp.Res, Options{
					Env: hw.MustEnv("partitioned", lat, hw.Table1Config()),
				})
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			reqs: rsaReqs,
		},
	}
}

// TestPoolDeterministicSharding is the acceptance check: a 4-worker
// pool over a 64-request mixed login/RSA workload produces, shard by
// shard, exactly the responses a serial Server produces over that
// shard's subsequence on an equal environment — trace for trace.
func TestPoolDeterministicSharding(t *testing.T) {
	const workers = 4
	ctx := context.Background()
	for _, wl := range mixedWorkloads(t) {
		t.Run(wl.name, func(t *testing.T) {
			pool := wl.pool(t, workers)
			resps, err := pool.HandleAll(ctx, wl.reqs)
			if err != nil {
				t.Fatal(err)
			}
			pool.Close()

			// Group pooled responses by shard, in shard order.
			byShard := make([][]*Response, workers)
			for _, r := range resps {
				if r == nil {
					t.Fatal("nil response without error")
				}
				byShard[r.Shard] = append(byShard[r.Shard], r)
			}

			for shard := 0; shard < workers; shard++ {
				// The default shard function is round-robin, so shard
				// i's subsequence is reqs[i], reqs[i+workers], ...
				ref := wl.serial(t)
				var want []*Response
				for i := shard; i < len(wl.reqs); i += workers {
					resp, err := ref.Handle(ctx, wl.reqs[i])
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, resp)
				}
				got := byShard[shard]
				if len(got) != len(want) {
					t.Fatalf("shard %d served %d requests, want %d", shard, len(got), len(want))
				}
				for k := range got {
					g, w := got[k], want[k]
					if g.ShardIndex != w.Index {
						t.Errorf("shard %d req %d: shard-local index %d, want %d",
							shard, k, g.ShardIndex, w.Index)
					}
					if g.Time != w.Time {
						t.Errorf("shard %d req %d: time %d, serial reference %d",
							shard, k, g.Time, w.Time)
					}
					if g.Mispredictions != w.Mispredictions {
						t.Errorf("shard %d req %d: %d mispredictions, serial reference %d",
							shard, k, g.Mispredictions, w.Mispredictions)
					}
					if !reflect.DeepEqual(g.Trace, w.Trace) {
						t.Errorf("shard %d req %d: event trace diverges from serial reference",
							shard, k)
					}
					if !reflect.DeepEqual(g.Mitigations, w.Mitigations) {
						t.Errorf("shard %d req %d: mitigation trace diverges from serial reference",
							shard, k)
					}
				}
				// The shard's persistent mitigation state must match the
				// serial reference's too.
				if !pool.Shard(shard).MitigationState().Equal(ref.MitigationState()) {
					t.Errorf("shard %d: persistent mitigation state diverges from serial reference", shard)
				}
			}
		})
	}
}

// TestPoolDeterminismAcrossRuns: two identical pool runs produce
// identical response sequences.
func TestPoolDeterminismAcrossRuns(t *testing.T) {
	ctx := context.Background()
	wl := mixedWorkloads(t)[0]
	run := func() []uint64 {
		pool := wl.pool(t, 4)
		defer pool.Close()
		resps, err := pool.HandleAll(ctx, wl.reqs)
		if err != nil {
			t.Fatal(err)
		}
		times := make([]uint64, len(resps))
		for i, r := range resps {
			times[i] = r.Time
		}
		return times
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical pool runs produced different response times")
	}
}

func poolProg(t *testing.T) *Pool {
	t.Helper()
	p, r := buildProg(t, echoSrc)
	lat := r.Lat
	pool, err := NewPool(p, r, PoolOptions{
		Workers: 3,
		Options: Options{Env: hw.MustEnv("partitioned", lat, hw.Table1Config())},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestPoolSubmitAfterClose(t *testing.T) {
	pool := poolProg(t)
	if _, err := pool.Handle(ctxb(), setH(1)); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // idempotent
	if _, err := pool.Submit(ctxb(), setH(2)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	if _, err := pool.Handle(ctxb(), setH(2)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Handle after Close = %v, want ErrPoolClosed", err)
	}
	if pool.Served() != 1 {
		t.Errorf("Served = %d, want 1", pool.Served())
	}
}

func TestPoolBackpressure(t *testing.T) {
	// With QueueDepth 1, submissions beyond capacity block; a canceled
	// context unblocks them with a typed error.
	p, r := buildProg(t, `
var i : L;
i := 0;
while (i < 200000) {
    i := i + 1;
}
`)
	lat := r.Lat
	pool, err := NewPool(p, r, PoolOptions{
		Workers:    1,
		QueueDepth: 1,
		Options:    Options{Env: hw.MustEnv("flat", lat, hw.Config{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Fill the worker: one in flight, one queued.
	var futures []Future
	for i := 0; i < 2; i++ {
		f, err := pool.Submit(ctxb(), nil)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	// The next submission must hit backpressure until ctx expires.
	// start is read first, so the time between it and Submit's return
	// covers the whole deadline however the goroutine is scheduled.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = pool.Submit(ctx, nil)
	if err == nil {
		// The queue may have drained before the deadline on a fast
		// machine; that is fine — just verify nothing deadlocked.
		t.Log("queue drained before deadline")
	} else {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("backpressured Submit = %v, want context.DeadlineExceeded", err)
		}
		var re *RequestError
		if !errors.As(err, &re) {
			t.Fatalf("error %T is not a *RequestError", err)
		}
		if time.Since(start) < 5*time.Millisecond {
			t.Error("Submit returned before the deadline without queueing")
		}
	}
	for _, f := range futures {
		if _, err := f.Wait(ctxb()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolClosePromptWhileBackpressured is the regression test for the
// old submit path, which held a pool-wide RLock across a blocking queue
// send: Close had to wait for backpressure to clear before it could
// even stop accepting work. Now a submitter parked on a full shard
// queue must be aborted by Close with ErrPoolClosed, and Close must
// complete as soon as accepted work drains — never waiting on the
// parked submitter's queue space.
func TestPoolClosePromptWhileBackpressured(t *testing.T) {
	// A program slow enough (~hundreds of µs) that the queue stays full
	// while we close.
	p, r := buildProg(t, `
var i : L;
i := 0;
while (i < 50000) {
    i := i + 1;
}
`)
	lat := r.Lat
	pool, err := NewPool(p, r, PoolOptions{
		Workers:    1,
		QueueDepth: 1,
		Options:    Options{Env: hw.MustEnv("flat", lat, hw.Config{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the shard: one in flight, one queued.
	var futures []Future
	for i := 0; i < 2; i++ {
		f, err := pool.Submit(ctxb(), nil)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	// Park a submitter on backpressure.
	type res struct {
		f   Future
		err error
	}
	parked := make(chan res, 1)
	go func() {
		f, err := pool.Submit(ctxb(), nil)
		parked <- res{f, err}
	}()
	// Give the submitter a moment to reach the blocking send, then
	// close; Close must return even though the submitter may still be
	// parked when it starts.
	time.Sleep(5 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		pool.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not complete while a submitter was backpressured")
	}
	// The parked submitter was either accepted before Close (its queue
	// slot opened first) or aborted with ErrPoolClosed — never left
	// hanging.
	select {
	case pr := <-parked:
		if pr.err != nil {
			if !errors.Is(pr.err, ErrPoolClosed) {
				t.Errorf("parked Submit = %v, want ErrPoolClosed", pr.err)
			}
			var re *RequestError
			if !errors.As(pr.err, &re) {
				t.Errorf("parked Submit error %T is not a *RequestError", pr.err)
			}
		} else if _, err := pr.f.Wait(ctxb()); err != nil {
			t.Errorf("accepted parked submission failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("backpressured submitter still parked after Close")
	}
	// Accepted work drained before Close returned.
	for _, f := range futures {
		if _, err := f.Wait(ctxb()); err != nil {
			t.Fatal(err)
		}
	}
	if got := pool.Served(); got < 2 {
		t.Errorf("Served = %d, want at least the 2 accepted requests", got)
	}
}

// TestPoolCloseConcurrentWithHandleAll closes the pool while bursts are
// in flight: every request either completes or fails with a typed
// error, and Close returns.
func TestPoolCloseConcurrentWithHandleAll(t *testing.T) {
	pool := poolProg(t)
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = setH(int64(i % 64))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				resps, err := pool.HandleAll(ctxb(), reqs)
				if err != nil && !errors.Is(err, ErrPoolClosed) {
					t.Errorf("HandleAll = %v", err)
					return
				}
				for _, r := range resps {
					if r == nil && err == nil {
						t.Error("nil response without error")
					}
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	pool.Close()
	wg.Wait()
	pool.Close() // idempotent, and waits for the same shutdown
}

func TestPoolConcurrentSubmitters(t *testing.T) {
	// Many goroutines hammering Submit while another closes the pool
	// must not race (run under -race) or lose accepted work.
	pool := poolProg(t)
	var wg sync.WaitGroup
	accepted := make(chan Future, 256)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				f, err := pool.Submit(ctxb(), setH(int64(g*16+i)%64))
				if err != nil {
					if !errors.Is(err, ErrPoolClosed) {
						t.Errorf("Submit = %v", err)
					}
					return
				}
				accepted <- f
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range accepted {
			if _, err := f.Wait(ctxb()); err != nil {
				t.Errorf("Wait = %v", err)
			}
		}
	}()
	wg.Wait()
	close(accepted)
	<-done
	pool.Close()
	if pool.Served() == 0 {
		t.Error("no requests served")
	}
}

func TestPoolValidation(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	if _, err := NewPool(p, r, PoolOptions{}); !errors.Is(err, ErrNoEnv) {
		t.Errorf("NewPool without env = %v, want ErrNoEnv", err)
	}
	lat := r.Lat
	opts := Options{Env: hw.MustEnv("flat", lat, hw.Config{})}
	if _, err := NewPool(p, r, PoolOptions{Options: opts, Workers: -1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("NewPool with negative workers = %v, want ErrBadOptions", err)
	}
	if _, err := NewPool(p, r, PoolOptions{Options: opts, QueueDepth: -1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("NewPool with negative queue = %v, want ErrBadOptions", err)
	}
}

func TestPoolSnapshot(t *testing.T) {
	pool := poolProg(t)
	reqs := make([]Request, 12)
	for i := range reqs {
		reqs[i] = setH(int64(i * 5 % 64))
	}
	if _, err := pool.HandleAll(ctxb(), reqs); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	snap := pool.Snapshot()
	if snap.Requests != 12 {
		t.Errorf("snapshot requests = %d, want 12", snap.Requests)
	}
	if snap.Mitigations != 12 {
		t.Errorf("snapshot mitigations = %d, want 12", snap.Mitigations)
	}
	if snap.Cycles == 0 || snap.Steps == 0 {
		t.Error("expected cycles and steps recorded")
	}
	if snap.HW.L1DHits+snap.HW.L1DMisses == 0 {
		t.Error("expected summed hardware counters across shards")
	}
	if snap.Latency.Count != 12 {
		t.Errorf("latency count = %d, want 12", snap.Latency.Count)
	}
	if pool.Metrics() == nil {
		t.Error("Metrics accessor returned nil")
	}
}

func TestPoolBudgetErrorCarriesShard(t *testing.T) {
	p, r := buildProg(t, `
var i : L;
i := 0;
while (i < 100000) {
    i := i + 1;
}
`)
	lat := r.Lat
	pool, err := NewPool(p, r, PoolOptions{
		Workers: 2,
		Options: Options{Env: hw.MustEnv("flat", lat, hw.Config{}), Limits: exec.Limits{MaxSteps: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	_, err = pool.Handle(ctxb(), nil)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Handle = %v, want ErrBudgetExceeded", err)
	}
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not a *RequestError", err)
	}
	if re.Index != 0 {
		t.Errorf("RequestError.Index = %d, want submission index 0", re.Index)
	}
}
