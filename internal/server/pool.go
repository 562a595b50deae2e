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
// prototype itself is never mutated.
type PoolOptions struct {
	Options
	// Workers is the number of shards; default GOMAXPROCS.
	Workers int
	// QueueDepth is the per-worker bounded submission queue; Submit
	// blocks (backpressure) once a shard has QueueDepth pending
	// requests. Default 2.
	QueueDepth int
	// Shard maps a submission index to a worker. The default is
	// round-robin (index % Workers). The result is reduced modulo
	// Workers, so any total function is safe. For a FIXED shard
	// function the pool is deterministic: shard i's responses are
	// identical, trace for trace, to a serial Server over shard i's
	// subsequence on a clone of the same environment.
	Shard func(index int) int

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
	if o.Shard == nil {
		workers := o.Workers
		o.Shard = func(index int) int { return index % workers }
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

// job is one queue entry: either a single request or a batch of
// same-shard requests (when batch is non-nil, the other fields are
// unused).
type job struct {
	ctx   context.Context
	req   Request
	index int
	out   chan result
	batch *batch
	// mit, when non-nil, overrides the shard's persistent mitigation
	// state for this request (per-tenant session state; see
	// Server.HandleWith). The submitter owns mit and must serialize
	// access to it across its own requests.
	mit *mitigation.State
}

// batch is a run of same-shard requests processed as one queue entry.
// HandleAll groups a burst by shard so queue sends, channel receives,
// and atomic operations amortize over the run instead of costing one
// round-trip per request; within a shard the requests still run
// serially in submission order, so per-shard determinism is untouched.
// Batches are recycled through batchPool; the done channel (buffered 1,
// provably empty after the receive in HandleAll) is reused with them.
type batch struct {
	ctx   context.Context
	reqs  []Request
	idxs  []int       // global submission indices, parallel to reqs
	resps []*Response // filled by the worker, parallel to reqs
	errs  []error     // parallel to reqs
	done  chan *batch // buffered (1); self-sent when the run finishes
}

// reset prepares a recycled batch for n requests, clearing any stale
// pointers from its previous burst.
func (b *batch) reset(ctx context.Context, n int) {
	b.ctx = ctx
	b.reqs = b.reqs[:0]
	b.idxs = b.idxs[:0]
	if cap(b.resps) < n {
		b.resps = make([]*Response, n)
		b.errs = make([]error, n)
	} else {
		b.resps = b.resps[:n]
		b.errs = b.errs[:n]
		clear(b.resps)
		clear(b.errs)
	}
}

var batchPool = sync.Pool{
	New: func() any { return &batch{done: make(chan *batch, 1)} },
}

// releaseBatch returns a drained batch to the pool, dropping references
// so recycled batches never pin request closures or responses.
func releaseBatch(b *batch) {
	b.ctx = nil
	clear(b.reqs)
	b.reqs = b.reqs[:0]
	b.idxs = b.idxs[:0]
	clear(b.resps)
	b.resps = b.resps[:0]
	clear(b.errs)
	b.errs = b.errs[:0]
	batchPool.Put(b)
}

// burstScratch holds HandleAll's per-call bookkeeping slices so a
// steady stream of bursts allocates nothing but the returned responses.
type burstScratch struct {
	batches []*batch
	shards  []int
	counts  []int
	errs    []error
}

var burstPool = sync.Pool{New: func() any { return new(burstScratch) }}

// grow resizes the scratch for a burst of n requests over w workers.
func (s *burstScratch) grow(n, w int) {
	if cap(s.batches) < w {
		s.batches = make([]*batch, w)
		s.counts = make([]int, w)
	} else {
		s.batches = s.batches[:w]
		s.counts = s.counts[:w]
		clear(s.batches)
		clear(s.counts)
	}
	if cap(s.shards) < n {
		s.shards = make([]int, n)
		s.errs = make([]error, n)
	} else {
		s.shards = s.shards[:n]
		s.errs = s.errs[:n]
		clear(s.errs)
	}
}

func releaseScratch(s *burstScratch) {
	clear(s.batches)
	clear(s.errs)
	burstPool.Put(s)
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

// Pool shards requests across workers. Each worker owns its own
// machine environment and persistent mitigation state, so the
// per-shard leakage bound is exactly the serial Server's bound — the
// per-domain state partitioning that makes concurrent sharing safe.
// Submission is bounded (backpressure via QueueDepth) and shutdown is
// graceful: Close drains accepted work before returning.
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
		if b := j.batch; b != nil {
			// A failed request does not stop the rest of the batch:
			// same behavior as independent single-request jobs.
			for i, req := range b.reqs {
				b.resps[i], b.errs[i] = p.serve(w, b.ctx, req, b.idxs[i], nil)
			}
			w.publish()
			b.done <- b
			continue
		}
		resp, err := p.serve(w, j.ctx, j.req, j.index, j.mit)
		w.publish()
		j.out <- result{resp, err}
	}
}

// serve runs one request on a worker's shard server and rewrites the
// shard-local index/shard fields to the pool-global view.
func (p *Pool) serve(w *worker, ctx context.Context, req Request, index int, mit *mitigation.State) (*Response, error) {
	resp, err := w.srv.HandleWith(ctx, req, mit)
	if resp != nil {
		resp.ShardIndex = resp.Index
		resp.Index = index
		resp.Shard = w.shard
	}
	if re, ok := err.(*RequestError); ok {
		re.Index = index
		re.Shard = w.shard
	}
	return resp, err
}

// pickShard maps a submission index to a worker index.
func (p *Pool) pickShard(index int) int {
	return mod(p.opts.Shard(index), len(p.workers))
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

// Future is a pending response.
type Future struct {
	out  chan result
	done result
	got  bool
}

// Wait blocks until the response is ready or the context is done.
func (f *Future) Wait(ctx context.Context) (*Response, error) {
	if f.got {
		return f.done.resp, f.done.err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Fast path: the result is usually already buffered by the time the
	// submitter waits (HandleAll submits ahead of waiting), and a plain
	// receive is much cheaper than a select.
	select {
	case r := <-f.out:
		f.done, f.got = r, true
		resultChans.Put(f.out)
		f.out = nil
		return r.resp, r.err
	default:
	}
	select {
	case r := <-f.out:
		f.done, f.got = r, true
		resultChans.Put(f.out)
		f.out = nil
		return r.resp, r.err
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
			f.done, f.got = r, true
			resultChans.Put(f.out)
			f.out = nil
			return r.resp, r.err
		default:
		}
		return nil, ctx.Err()
	}
}

// Submit enqueues a request on its shard's bounded queue, blocking for
// backpressure when the shard is saturated (or until ctx is done, or
// the pool is closed). The request's context is ctx as well: it bounds
// both queue wait and execution.
func (p *Pool) Submit(ctx context.Context, req Request) (*Future, error) {
	return p.SubmitWith(ctx, req, nil)
}

// SubmitWith is Submit with an explicit mitigation state: when mit is
// non-nil the served request uses it in place of the shard's
// persistent state (per-tenant session state; see Server.HandleWith).
// The caller owns mit and must not submit two requests sharing one mit
// concurrently — a session lock upstream provides that serialization.
func (p *Pool) SubmitWith(ctx context.Context, req Request, mit *mitigation.State) (*Future, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !p.acquire() {
		return nil, ErrPoolClosed
	}
	defer p.release()
	index := int(p.n.Add(1) - 1)
	w := p.workers[p.pickShard(index)]
	j := job{ctx: ctx, req: req, index: index, out: resultChans.Get().(chan result), mit: mit}
	// Fast path: queue has room, skip the select.
	select {
	case w.jobs <- j:
		return &Future{out: j.out}, nil
	default:
	}
	if p.opts.ShedOnSaturation {
		// Bounded-latency mode: a saturated shard sheds instead of
		// blocking the submitter.
		p.opts.Metrics.Add(obs.Sheds, 1)
		resultChans.Put(j.out)
		return nil, &RequestError{Index: index, Shard: w.shard, Err: ErrOverloaded}
	}
	select {
	case w.jobs <- j:
		return &Future{out: j.out}, nil
	case <-ctx.Done():
		// The job never reached a worker, so its channel is still empty
		// and safe to recycle.
		resultChans.Put(j.out)
		return nil, &RequestError{Index: index, Shard: w.shard, Err: ctx.Err()}
	case <-p.stopc:
		// Close aborts backpressured submitters instead of waiting for
		// their queue space; the request was never accepted.
		resultChans.Put(j.out)
		return nil, &RequestError{Index: index, Shard: w.shard, Err: ErrPoolClosed}
	}
}

// Handle submits a request and waits for its response.
func (p *Pool) Handle(ctx context.Context, req Request) (*Response, error) {
	return p.HandleWith(ctx, req, nil)
}

// HandleWith is Handle with an explicit mitigation state (see
// SubmitWith).
func (p *Pool) HandleWith(ctx context.Context, req Request, mit *mitigation.State) (*Response, error) {
	f, err := p.SubmitWith(ctx, req, mit)
	if err != nil {
		return nil, err
	}
	return f.Wait(ctx)
}

// HandleAll submits a request sequence and waits for every response,
// returned in submission order. The first error (by submission order)
// is returned; entries whose requests failed are nil. Unlike the
// serial Server, later requests still run — both across shards and
// within one, mirroring independent Submit calls.
//
// The burst is grouped into one batch per shard (each a single queue
// entry), so the per-request queue/channel round-trip of Submit+Wait
// amortizes over the burst. Request execution order within each shard
// is still submission order, so responses are identical to the
// Submit-per-request path.
func (p *Pool) HandleAll(ctx context.Context, reqs []Request) ([]*Response, error) {
	return p.handleAll(ctx, reqs, nil)
}

// HandleAllErrs is HandleAll with per-request error reporting: errs[i]
// is the outcome of reqs[i] (nil on success), so callers that must
// account for every item — the batch endpoint of internal/transport —
// see exactly which requests failed and why, not just the first
// failure.
func (p *Pool) HandleAllErrs(ctx context.Context, reqs []Request) ([]*Response, []error) {
	errs := make([]error, len(reqs))
	out, _ := p.handleAll(ctx, reqs, errs)
	return out, errs
}

// handleAll is the shared burst path; when errsOut is non-nil it is
// filled with per-request outcomes (it must have len(reqs) entries).
func (p *Pool) handleAll(ctx context.Context, reqs []Request, errsOut []error) ([]*Response, error) {
	out := make([]*Response, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if !p.acquire() {
		for i := range errsOut {
			errsOut[i] = ErrPoolClosed
		}
		return out, ErrPoolClosed
	}
	// Reserve a contiguous index block for the burst.
	base := int(p.n.Add(int64(len(reqs)))) - len(reqs)
	// Group into per-shard batches, preserving submission order. Two
	// passes: shard sizes first, so every batch slice is sized exactly
	// once at its final length.
	sc := burstPool.Get().(*burstScratch)
	sc.grow(len(reqs), len(p.workers))
	batches, shards, counts, errs := sc.batches, sc.shards, sc.counts, sc.errs
	for i := range reqs {
		shard := p.pickShard(base + i)
		shards[i] = shard
		counts[shard]++
	}
	for shard, n := range counts {
		if n > 0 {
			b := batchPool.Get().(*batch)
			b.reset(ctx, n)
			batches[shard] = b
		}
	}
	for i, r := range reqs {
		b := batches[shards[i]]
		b.reqs = append(b.reqs, r)
		b.idxs = append(b.idxs, base+i)
	}
	for shard, b := range batches {
		if b == nil {
			continue
		}
		w := p.workers[shard]
		if p.opts.ShedOnSaturation {
			select {
			case w.jobs <- job{batch: b}:
			default:
				for _, index := range b.idxs {
					errs[index-base] = &RequestError{Index: index, Shard: shard, Err: ErrOverloaded}
					p.opts.Metrics.Add(obs.Sheds, 1)
				}
				releaseBatch(b)
				batches[shard] = nil
			}
			continue
		}
		select {
		case w.jobs <- job{batch: b}:
		case <-ctx.Done():
			// This shard's run never reached its worker.
			for _, index := range b.idxs {
				errs[index-base] = &RequestError{Index: index, Shard: shard, Err: ctx.Err()}
			}
			releaseBatch(b)
			batches[shard] = nil
		case <-p.stopc:
			for _, index := range b.idxs {
				errs[index-base] = &RequestError{Index: index, Shard: shard, Err: ErrPoolClosed}
			}
			releaseBatch(b)
			batches[shard] = nil
		}
	}
	// Accepted batches are queued; drop the in-flight registration so a
	// concurrent Close can proceed to drain them.
	p.release()
	for shard, b := range batches {
		if b == nil {
			continue
		}
		<-b.done
		for i, index := range b.idxs {
			out[index-base] = b.resps[i]
			errs[index-base] = b.errs[i]
		}
		releaseBatch(b)
		batches[shard] = nil
	}
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	copy(errsOut, errs)
	releaseScratch(sc)
	return out, firstErr
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

// mod reduces i into [0, n), tolerating negative shard results.
func mod(i, n int) int {
	m := i % n
	if m < 0 {
		m += n
	}
	return m
}
