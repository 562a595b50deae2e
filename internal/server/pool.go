package server

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/lang/ast"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/types"
)

// PoolOptions configure a Pool. The embedded Options configure every
// worker; Options.Env is a prototype that is cloned once per worker,
// so each shard owns its own partitioned hardware state and the
// prototype itself is never mutated. Submission i runs on worker
// i % Workers, so Workers alone fixes which requests each shard serves.
type PoolOptions struct {
	Options
	// Workers is the number of shards; default GOMAXPROCS.
	Workers int
	// QueueDepth is the per-worker bounded submission queue; Submit
	// blocks (backpressure) once a shard has QueueDepth pending
	// requests. Default 2.
	QueueDepth int

	// ShedOnSaturation turns backpressure into load shedding: a
	// submission that finds its shard queue full fails immediately with
	// ErrOverloaded instead of blocking until space frees up. Bounded
	// latency for the caller, bounded queues for the pool.
	ShedOnSaturation bool
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 2
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewMetrics()
	}
	return o
}

func (o PoolOptions) validate() error {
	if err := o.Options.validate(); err != nil {
		return err
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: Workers must be ≥ 0", ErrBadOptions)
	}
	if o.QueueDepth < 0 {
		return fmt.Errorf("%w: QueueDepth must be ≥ 0", ErrBadOptions)
	}
	return nil
}

// job is one queue entry: a request, its global submission index and
// the channel its result is sent on.
type job struct {
	ctx   context.Context
	req   Request
	index int
	out   chan result
	// mit, when non-nil, overrides the shard's persistent mitigation
	// state for this request (per-tenant session state; see
	// Server.HandleWith). The submitter owns mit and must serialize
	// access to it across its own requests.
	mit *mitigation.State
}

type result struct {
	resp *Response
	err  error
}

// worker owns one shard: a serial Server over a private clone of the
// machine environment and private persistent mitigation state.
type worker struct {
	shard int
	srv   *Server
	jobs  chan job
	// mu guards hw, the shard environment's counters as of the
	// worker's last finished job. Only the worker touches the
	// environment itself, so Pool.Snapshot reads this copy instead.
	mu sync.Mutex
	hw hw.Stats
}

// publish copies the shard environment's counters for Pool.Snapshot.
// Only the worker's own goroutine (or NewPool, before it starts) calls
// it.
func (w *worker) publish() {
	s := w.srv.Env().Stats()
	w.mu.Lock()
	w.hw = s
	w.mu.Unlock()
}

// poolClosed is the lifecycle bit of Pool.state; the low bits count
// in-flight submitters.
const poolClosed = int64(1) << 62

// Pool shards requests across workers round-robin: submission i runs
// on shard i % Workers. Each worker owns its own machine environment
// and persistent mitigation state, so the per-shard leakage bound is
// exactly the serial Server's bound — the per-domain state
// partitioning that makes concurrent sharing safe — and the pool is
// deterministic: shard i's responses are identical, trace for trace,
// to a serial Server over shard i's subsequence on a clone of the same
// environment. Submission is bounded (backpressure via QueueDepth) and
// shutdown is graceful: Close drains accepted work before returning.
//
// Submit/Handle/HandleAll are safe for concurrent use. The submit path
// is lock-free: the global submission index is an atomic counter and
// the open/closed lifecycle is a refcounted atomic word, so concurrent
// submitters never serialize on a mutex and never hold a lock across a
// blocking queue send.
type Pool struct {
	opts    PoolOptions
	workers []*worker
	wg      sync.WaitGroup

	// n is the next global submission index.
	n atomic.Int64
	// state is the lifecycle word: poolClosed bit | in-flight submitter
	// count. acquire/release maintain the count; Close sets the bit.
	state atomic.Int64
	// stopc is closed by Close to abort submitters parked on a full
	// shard queue, so Close never waits for backpressure to clear.
	stopc chan struct{}
	// drained is closed by the final in-flight submitter to leave after
	// Close set the closed bit.
	drained chan struct{}
	// donec is closed when shutdown (drain + worker exit) completes;
	// concurrent Close calls wait on it.
	donec     chan struct{}
	closeOnce sync.Once
}

// NewPool constructs a pool over a type-checked program. Errors are
// sentinel-typed like New's. Worker i's instrumentation is stripe i of
// the shared metrics accumulator, so per-request counter updates from
// different shards land on different cache lines.
func NewPool(prog *ast.Program, res *types.Result, opts PoolOptions) (*Pool, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	p := &Pool{
		opts:    opts,
		stopc:   make(chan struct{}),
		drained: make(chan struct{}),
		donec:   make(chan struct{}),
	}
	for i := 0; i < opts.Workers; i++ {
		wopts := opts.Options
		wopts.Env = opts.Env.Clone()
		wopts.Metrics = opts.Metrics.Stripe(i)
		wopts.shard = i
		srv, err := New(prog, res, wopts)
		if err != nil {
			return nil, err
		}
		w := &worker{shard: i, srv: srv, jobs: make(chan job, opts.QueueDepth)}
		w.publish()
		p.workers = append(p.workers, w)
		p.wg.Add(1)
		go p.run(w)
	}
	return p, nil
}

// acquire registers an in-flight submitter, failing once the pool is
// closed.
func (p *Pool) acquire() bool {
	for {
		s := p.state.Load()
		if s&poolClosed != 0 {
			return false
		}
		if p.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// release drops an in-flight submitter registration. The submitter
// whose release leaves a closed pool with no others signals Close.
func (p *Pool) release() {
	if p.state.Add(-1) == poolClosed {
		close(p.drained)
	}
}

// run is one worker's loop: drain the shard queue in order, preserving
// the serial per-shard semantics.
func (p *Pool) run(w *worker) {
	defer p.wg.Done()
	for j := range w.jobs {
		resp, err := w.srv.HandleWith(j.ctx, j.req, j.mit)
		// Rewrite the shard-local index and shard to the pool-global view.
		if resp != nil {
			resp.ShardIndex = resp.Index
			resp.Index = j.index
			resp.Shard = w.shard
		}
		if re, ok := err.(*RequestError); ok {
			re.Index = j.index
			re.Shard = w.shard
		}
		w.publish()
		j.out <- result{resp, err}
	}
}

// resultChans recycles the one-shot response channels: every request
// allocates one, and on the service hot path that was the single
// largest allocation source. A channel is recycled only after its
// result has been received (it is then provably empty); a Wait aborted
// by context cancellation leaves the channel to the garbage collector,
// since the worker's send may still be in flight.
var resultChans = sync.Pool{
	New: func() any { return make(chan result, 1) },
}

// Future is a pending response. Submit returns it by value; call Wait
// on one copy only, because Wait recycles the response channel.
type Future struct {
	out  chan result
	done result
	got  bool
	// owned marks a request that runs against the caller's mitigation
	// state (HandleWith): the worker reads and writes that state until
	// it sends the result.
	owned bool
}

// Wait blocks until the response is ready or the context is done.
//
// A request run with a mitigation state (HandleWith) is the exception:
// its Wait ignores ctx and returns only once the worker is done with the
// state, because the caller may hand the state to another request as
// soon as Wait returns (a tenant session evicted after an Abort is
// recycled, state and all, for another tenant). The context given to
// HandleWith bounds the wait instead: once it is done the worker skips
// the request when it reaches it, or stops a started run within 1,024
// steps.
func (f *Future) Wait(ctx context.Context) (*Response, error) {
	if f.got {
		return f.done.resp, f.done.err
	}
	if f.owned {
		return f.take(<-f.out)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Fast path: the result is usually already buffered by the time the
	// submitter waits (HandleAll submits ahead of waiting), and a plain
	// receive is much cheaper than a select.
	select {
	case r := <-f.out:
		return f.take(r)
	default:
	}
	select {
	case r := <-f.out:
		return f.take(r)
	case <-ctx.Done():
		// Final non-blocking drain: the worker may have delivered in the
		// race window between ctx firing and this select choosing. Taking
		// that result both returns the real response and proves the
		// channel empty (safe to recycle). Otherwise the channel is left
		// to the GC — a late send may still be in flight, and recycling a
		// channel that can still receive a send would cross responses
		// between unrelated requests.
		select {
		case r := <-f.out:
			return f.take(r)
		default:
		}
		return nil, ctx.Err()
	}
}

// take records the received result and recycles the channel, which
// the receive proved empty.
func (f *Future) take(r result) (*Response, error) {
	f.done, f.got = r, true
	resultChans.Put(f.out)
	f.out = nil
	return r.resp, r.err
}

// Submit enqueues a request on its shard's bounded queue, blocking for
// backpressure when the shard is saturated (or until ctx is done, or
// the pool is closed), and failing at once with ErrOverloaded instead
// under ShedOnSaturation. The request's context is ctx as well: it
// bounds both queue wait and execution. The pending response is
// returned by value, so holding it allocates nothing.
func (p *Pool) Submit(ctx context.Context, req Request) (Future, error) {
	return p.submit(ctx, req, nil)
}

// submit enqueues one request, with the caller's mitigation state when
// mit is non-nil (see HandleWith).
func (p *Pool) submit(ctx context.Context, req Request, mit *mitigation.State) (Future, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !p.acquire() {
		return Future{}, ErrPoolClosed
	}
	defer p.release()
	index := int(p.n.Add(1) - 1)
	w := p.workers[index%len(p.workers)]
	j := job{ctx: ctx, req: req, index: index, out: resultChans.Get().(chan result), mit: mit}
	f := Future{out: j.out, owned: mit != nil}
	// Fast path: queue has room, skip the select.
	select {
	case w.jobs <- j:
		return f, nil
	default:
	}
	if p.opts.ShedOnSaturation {
		// Bounded-latency mode: a saturated shard sheds instead of
		// blocking the submitter.
		p.opts.Metrics.Add(obs.Sheds, 1)
		resultChans.Put(j.out)
		return Future{}, &RequestError{Index: index, Shard: w.shard, Err: ErrOverloaded}
	}
	select {
	case w.jobs <- j:
		return f, nil
	case <-ctx.Done():
		// The job never reached a worker, so its channel is still empty
		// and safe to recycle.
		resultChans.Put(j.out)
		return Future{}, &RequestError{Index: index, Shard: w.shard, Err: ctx.Err()}
	case <-p.stopc:
		// Close aborts backpressured submitters instead of waiting for
		// their queue space; the request was never accepted.
		resultChans.Put(j.out)
		return Future{}, &RequestError{Index: index, Shard: w.shard, Err: ErrPoolClosed}
	}
}

// Handle submits a request and waits for its response.
func (p *Pool) Handle(ctx context.Context, req Request) (*Response, error) {
	return p.HandleWith(ctx, req, nil)
}

// HandleWith is Handle with an explicit mitigation state: when mit is
// non-nil the served request uses it in place of the shard's
// persistent state (per-tenant session state; see Server.HandleWith).
// The caller owns mit and must not submit two requests sharing one mit
// concurrently — a session lock upstream provides that serialization.
// When mit is non-nil HandleWith returns only once the worker is done
// with mit: a done ctx makes the worker skip or stop the request, and
// HandleWith then returns its outcome — an error, or a response if the
// run had already finished.
func (p *Pool) HandleWith(ctx context.Context, req Request, mit *mitigation.State) (*Response, error) {
	f, err := p.submit(ctx, req, mit)
	if err != nil {
		return nil, err
	}
	return f.Wait(ctx)
}

// HandleAll submits a request sequence and waits for every response,
// returned in submission order. The first error (by submission order)
// is returned; entries whose requests failed are nil. Unlike the
// serial Server, later requests still run — both across shards and
// within one — exactly as independent Submit calls, which is what they
// are: every request is submitted before the first is waited for.
func (p *Pool) HandleAll(ctx context.Context, reqs []Request) ([]*Response, error) {
	out := make([]*Response, len(reqs))
	futs := make([]Future, len(reqs))
	for i, req := range reqs {
		f, err := p.submit(ctx, req, nil)
		if err != nil {
			// A request that was never queued resolves to its error.
			f = Future{done: result{err: err}, got: true}
		}
		futs[i] = f
	}
	var first error
	for i := range futs {
		resp, err := futs[i].Wait(ctx)
		out[i] = resp
		if err != nil && first == nil {
			first = err
		}
	}
	return out, first
}

// Workers returns the number of shards.
func (p *Pool) Workers() int { return len(p.workers) }

// Served returns the number of requests completed across all shards.
func (p *Pool) Served() int {
	total := 0
	for _, w := range p.workers {
		total += w.srv.Served()
	}
	return total
}

// Shard exposes one shard's serial server (for inspection — e.g.
// comparing per-shard mitigation state against a serial reference).
func (p *Pool) Shard(i int) *Server { return p.workers[i].srv }

// Metrics returns the shared instrumentation accumulator.
func (p *Pool) Metrics() *obs.Metrics { return p.opts.Metrics }

// Snapshot returns the pooled instrumentation, with hardware counters
// summed across every shard. It is safe to call while the pool serves:
// each shard's counters are those its worker published after its last
// finished job, so a snapshot leaves out only the requests still in
// flight, and after Close it is exact.
func (p *Pool) Snapshot() obs.Snapshot {
	snap := p.opts.Metrics.Snapshot()
	for _, w := range p.workers {
		w.mu.Lock()
		snap.HW = snap.HW.Add(w.hw)
		w.mu.Unlock()
	}
	return snap
}

// Close gracefully shuts the pool down: it stops accepting new
// requests, aborts submitters parked on backpressure (they get
// ErrPoolClosed; their requests were never accepted), drains every
// shard's queue, and waits for accepted in-flight requests to finish.
// Close is idempotent, and concurrent Close calls all wait for the
// shutdown to complete.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		var inFlight int64
		for {
			s := p.state.Load()
			if p.state.CompareAndSwap(s, s|poolClosed) {
				inFlight = s
				break
			}
		}
		// Wake backpressured submitters, then wait for every in-flight
		// submitter to finish or abort — after that no goroutine can be
		// sending on a shard queue, so closing the queues is safe.
		close(p.stopc)
		if inFlight != 0 {
			<-p.drained
		}
		for _, w := range p.workers {
			close(w.jobs)
		}
		p.wg.Wait()
		close(p.donec)
	})
	<-p.donec
}
