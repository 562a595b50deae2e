package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/transport/client"
	"repro/internal/transport/wire"
)

// The generator waits for a due time in three steps. Runtime timers
// (time.Sleep) wake up to about a millisecond late, which at thousands
// of sends per second would add the generator's own delay to every
// latency; a raw nanosleep wakes up 40–80 µs late; spinning is exact
// but burns a CPU. So it sleeps on a timer while more than timerSlack
// remains, nanosleeps while more than spinWindow remains, and spins only
// for the rest. The spin yields to Go's scheduler and to the kernel's:
// in the end-to-end run the generator's threads share one CPU (see
// splitCPUs), and a thread that spins without
// yielding keeps a woken one (the other sender, or the one reading a
// response) off that CPU for the kernel's whole time slice.
const (
	timerSlack = 2 * time.Millisecond
	spinWindow = 100 * time.Microsecond
)

// sleepUntil returns at the due time.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > timerSlack:
			time.Sleep(d - timerSlack)
		case d > spinWindow:
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just loops
		default:
			runtime.Gosched()
			_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
	}
}

// dueAt is the scheduled time of send k on a fixed-rate timeline.
func dueAt(t0 time.Time, k int, interval time.Duration) time.Time {
	return t0.Add(time.Duration(k) * interval)
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// phaseStats is the outcome of one load phase.
type phaseStats struct {
	sends   int             // sends attempted
	items   int             // items completed successfully
	latency []time.Duration // per completed send, from its due time
	late    []time.Duration // per send, actual send time minus due time
}

// clientSpan is the client-side interval of one send, for the traced
// run: from the SDK call until its results are decoded.
type clientSpan struct {
	start, end time.Time
	first      int // first item of the send
	n          int // items in the send
}

// target drives one service endpoint through the client SDK and keeps
// every response for the correctness check.
type target struct {
	w    *workload
	seed uint64
	c    *client.Client

	mu       sync.Mutex
	recs     []record
	attempts int
	fails    int
	failErrs []string
	spans    []clientSpan // recorded when tracing
	tracing  bool
}

func newTarget(w *workload, seed uint64, base string) *target {
	return &target{
		w:    w,
		seed: seed,
		c:    client.New(base, client.Options{Concurrency: w.conns}),
	}
}

// result stores one item outcome.
func (t *target) result(i int, req wire.RunRequest, resp *wire.RunResponse, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempts++
	if err == nil && resp == nil {
		err = errors.New("empty result")
	}
	if err == nil && resp.Tenant != req.Tenant {
		err = fmt.Errorf("tenant %q answered as %q", req.Tenant, resp.Tenant)
	}
	if err != nil {
		t.fails++
		if len(t.failErrs) < 5 {
			t.failErrs = append(t.failErrs, fmt.Sprintf("item %d: %v", i, err))
		}
		return false
	}
	tenant := int32(noTenant)
	if req.Tenant != "" {
		tenant = tenantIDs[req.Tenant]
	}
	t.recs = append(t.recs, record{
		item: int32(i), tenant: tenant, index: int32(resp.Index), shard: int16(resp.Shard),
		shardIndex: int32(resp.ShardIndex), time: resp.Time, mispred: int16(resp.Mispredictions),
		epoch: int32(resp.Epoch), leak: resp.LeakageBits,
	})
	return true
}

// send issues one batch send of the items first..first+batch-1 and
// returns the number that succeeded.
func (t *target) send(ctx context.Context, first int) int {
	start := time.Now()
	ok := 0
	reqs := make([]wire.RunRequest, t.w.batch)
	for k := range reqs {
		reqs[k] = t.w.request(t.seed, first+k)
	}
	out, err := t.c.RunBatch(ctx, reqs)
	if err == nil && len(out.Results) != len(reqs) {
		err = fmt.Errorf("batch of %d answered with %d results", len(reqs), len(out.Results))
	}
	for k, req := range reqs {
		var resp *wire.RunResponse
		ierr := err
		if ierr == nil {
			resp, ierr = out.Results[k].Response, client.Err(out.Results[k])
		}
		if t.result(first+k, req, resp, ierr) {
			ok++
		}
	}
	if t.tracing {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, clientSpan{start: start, end: end, first: first, n: t.w.batch})
		t.mu.Unlock()
	}
	return ok
}

// openLoop offers n sends at the workload's fixed rate, starting with
// item base. Each send is due at a fixed point of the timeline and goes
// out on whichever connection is free; its latency is timed from the
// due time, so a stall that delays later sends is charged to them
// (no coordinated omission).
func (t *target) openLoop(ctx context.Context, base, n int) phaseStats {
	if t.w.mode == modeStream {
		return t.streamOpenLoop(ctx, base, n)
	}
	interval := time.Duration(float64(time.Second) / t.w.rate)
	st := phaseStats{sends: n, latency: make([]time.Duration, n), late: make([]time.Duration, n)}
	completed := make([]bool, n)
	var next atomic.Int64
	var items atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now().Add(time.Millisecond)
	for c := 0; c < t.w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := dueAt(t0, k, interval)
				sleepUntil(due)
				st.late[k] = time.Since(due)
				ok := t.send(ctx, base+k*t.w.batch)
				st.latency[k] = time.Since(due)
				items.Add(int64(ok))
				completed[k] = ok == t.w.batch
			}
		}()
	}
	wg.Wait()
	st.items = int(items.Load())
	st.latency = keep(st.latency, completed)
	return st
}

// keep returns the values whose flag is set.
func keep(v []time.Duration, flags []bool) []time.Duration {
	out := v[:0]
	for i, f := range flags {
		if f {
			out = append(out, v[i])
		}
	}
	return out
}

// streamOpenLoop is openLoop over one pipelined stream: a sender puts
// item k on the wire at its due time while a receiver reads results in
// order and times each from its item's due time.
func (t *target) streamOpenLoop(ctx context.Context, base, n int) phaseStats {
	interval := time.Duration(float64(time.Second) / t.w.rate)
	st := phaseStats{sends: n, late: make([]time.Duration, n)}
	lat := make([]time.Duration, n)
	completed := make([]bool, n)
	t0 := time.Now().Add(time.Millisecond)
	t.streamWith(ctx, base, n, func(k int) bool {
		if k >= n {
			return false
		}
		due := dueAt(t0, k, interval)
		sleepUntil(due)
		st.late[k] = time.Since(due)
		return true
	}, func(k int, at time.Time, ok bool) {
		lat[k] = at.Sub(dueAt(t0, k, interval))
		completed[k] = ok
	})
	st.latency = keep(lat, completed)
	st.items = len(st.latency)
	return st
}

// streamWith opens a stream and sends items base, base+1, ... while
// before(k) allows, reading every result back in order; after(k, at,
// ok) sees each result's arrival time and outcome. At most inflight
// items are sent and not yet answered. streamWith returns once every
// sent item is accounted for.
func (t *target) streamWith(ctx context.Context, base, inflight int, before func(k int) bool, after func(k int, at time.Time, ok bool)) {
	s, err := t.c.Stream(ctx)
	if err != nil {
		t.result(base, wire.RunRequest{}, nil, fmt.Errorf("open stream: %w", err))
		return
	}
	defer s.Close()
	type sent struct {
		req   wire.RunRequest
		start time.Time
	}
	queue := make(chan sent, inflight) // sized to the sends in flight
	go func() {
		defer close(queue)
		for k := 0; before(k); k++ {
			req := t.w.request(t.seed, base+k)
			start := time.Now()
			if err := s.Send(req); err != nil {
				return
			}
			queue <- sent{req: req, start: start}
		}
		_ = s.CloseSend()
	}()
	k := 0
	var recvErr error
	for q := range queue {
		var resp *wire.RunResponse
		err := recvErr
		if err == nil {
			var res *wire.BatchResult
			res, err = s.Recv()
			if err == nil {
				resp, err = res.Response, client.Err(*res)
			} else {
				recvErr = fmt.Errorf("stream ended: %w", err)
				// Unblock a sender waiting in Send on a dead stream.
				s.Close()
			}
		}
		at := time.Now()
		ok := t.result(base+k, q.req, resp, err)
		if t.tracing {
			t.mu.Lock()
			t.spans = append(t.spans, clientSpan{start: q.start, end: at, first: base + k, n: 1})
			t.mu.Unlock()
		}
		after(k, at, ok)
		k++
	}
}
