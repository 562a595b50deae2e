// Package server simulates a long-running service built on the
// timing-channel language: one program handles a sequence of requests
// on shared, persistent hardware state (caches stay warm) and — unlike
// the per-request machines used in one-shot experiments — persistent
// predictive-mitigation state, so miss counters carry over between
// requests exactly as in the epoch-based mitigation of the paper's
// predecessors [5, 38]. This exposes the realistic dynamics: early
// requests may mispredict and inflate the schedule; the system then
// settles, and total leakage across a whole request sequence stays
// within the log-bound.
//
// Two service surfaces share one request API:
//
//   - Server processes requests strictly sequentially — the reference
//     semantics, and the per-shard engine.
//   - Pool shards requests across workers, each owning its own
//     partitioned machine environment and persistent mitigation state,
//     so per-shard leakage bounds still hold and a fixed shard
//     assignment reproduces the serial per-request traces shard by
//     shard (see pool.go).
//
// Both take a context.Context: cancellation and deadlines abort the
// in-flight request cleanly with a *RequestError wrapping ctx.Err(),
// and per-request step/cycle budgets abort with ErrBudgetExceeded.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/exec/budget"
	"repro/internal/lang/ast"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/sem/events"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// Sentinel errors returned by the service layer. Test with errors.Is.
var (
	// ErrNoEnv is returned by New/NewPool when Options.Env is missing.
	ErrNoEnv = errors.New("server: machine environment required")
	// ErrBadOptions is returned by New/NewPool on invalid options.
	ErrBadOptions = errors.New("server: invalid options")
	// ErrBudgetExceeded is returned (wrapped in a *RequestError) when a
	// request exhausts its step or cycle budget.
	ErrBudgetExceeded = errors.New("server: request budget exceeded")
	// ErrPoolClosed is returned when submitting to a closed pool.
	ErrPoolClosed = errors.New("server: pool closed")
	// ErrOverloaded is returned (wrapped in a *RequestError) when a
	// submission is load-shed because its shard queue is saturated,
	// instead of blocking unboundedly. Shedding happens only when
	// PoolOptions.ShedOnSaturation is set.
	ErrOverloaded = errors.New("server: overloaded")
)

// RequestError identifies which request failed and why. Unwrap exposes
// the cause, so errors.Is(err, ErrBudgetExceeded) and errors.Is(err,
// context.DeadlineExceeded) work as expected.
type RequestError struct {
	// Index is the request's position in the sequence (the submission
	// index under a Pool).
	Index int
	// Shard is the worker that processed the request (0 for a serial
	// Server).
	Shard int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("server: request %d (shard %d): %v", e.Index, e.Shard, e.Err)
}

// Unwrap exposes the cause.
func (e *RequestError) Unwrap() error { return e.Err }

// Request sets the per-request public inputs (and, for simulation
// purposes, the secrets) in the program memory before a run.
type Request func(*mem.Memory)

// responsePool recycles Response structs on the service hot path.
// Handle allocates from it; callers that are done with a response may
// hand it back with ReleaseResponse to shed per-request GC pressure.
var responsePool = sync.Pool{New: func() any { return new(Response) }}

// ReleaseResponse returns a response to the internal pool for reuse by
// a later request, and its Trace and Mitigations to the run-buffer
// recycler (events.Recycle), from which the vm engine takes the next
// runs' trace storage. It is optional — responses are ordinary
// garbage-collected values — but high-throughput callers (the HTTP
// transport, benchmarks, load generators) that release responses keep the
// hot path allocation-free. The response and everything it references
// (Trace, Mitigations) must not be used after release: a later run
// writes its trace into the same storage. ReleaseResponse is safe for
// concurrent use; a nil response is a no-op.
func ReleaseResponse(resp *Response) {
	if resp == nil {
		return
	}
	events.Recycle(resp.Trace, resp.Mitigations)
	*resp = Response{}
	responsePool.Put(resp)
}

// Response summarizes one processed request.
type Response struct {
	// Index is the request's position in the submission sequence.
	Index int
	// Shard is the worker that served the request (always 0 for a
	// serial Server); ShardIndex is its position within that shard's
	// sequence. For a serial server ShardIndex == Index.
	Shard      int
	ShardIndex int
	// Time is the request's total processing time in cycles.
	Time uint64
	// Trace holds the request's observable events (times are
	// request-relative: the clock starts at 0 for each request, as a
	// client measures round-trip latency).
	Trace events.Trace
	// Mitigations holds the request's mitigation records.
	Mitigations events.MitTrace
	// Mispredictions counts mitigation misses during this request.
	Mispredictions int
}

// Options configure a Server (and, via PoolOptions, each pool worker).
// Construction is validated: New returns ErrNoEnv / ErrBadOptions
// rather than accepting a half-configured service.
type Options struct {
	// Env is the machine environment; required. A Server uses it in
	// place (caches stay warm across requests); a Pool clones it once
	// per worker so every shard owns partitioned hardware state.
	Env hw.Env
	// Engine selects the execution engine by registered name: "tree"
	// (the default) interprets the AST per request; "vm" compiles the
	// program to bytecode once (shared across shards via the program
	// cache) and reuses the machine — the fast path. Both produce
	// identical traces. Unknown names fail New with ErrBadOptions.
	Engine string
	// Scheme and Policy configure the persistent mitigation state.
	Scheme mitigation.Scheme
	Policy mitigation.Policy
	// DisableMitigation runs the program unmitigated.
	DisableMitigation bool
	// Limits bounds each request: engine steps (MaxSteps, default
	// 10_000_000), simulated cycles (MaxCycles), and wall-clock time
	// (Timeout). Exceeding a step or cycle bound fails the request
	// with ErrBudgetExceeded; exceeding the timeout fails it with
	// context.DeadlineExceeded. The same struct configures the
	// execution engines (exec.Options), so the knobs are no longer
	// duplicated across the two layers.
	exec.Limits
	// Metrics receives instrumentation. Leave nil to have the server
	// allocate its own; a Pool installs one shared accumulator across
	// its workers.
	Metrics *obs.Metrics
	// shard identifies the pool worker this Options copy configures;
	// NewPool sets it, and New passes it to the engine as
	// exec.Options.Shard. Serial servers leave it 0.
	shard int
}

// withDefaults fills zero fields; the embedded Limits is the single
// source of truth for every per-request bound.
func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 10_000_000
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewMetrics()
	}
	return o
}

// validate reports the first configuration error. Limit checking is
// delegated to the one exec.Limits.Validate.
func (o Options) validate() error {
	if o.Env == nil {
		return ErrNoEnv
	}
	if err := o.Limits.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	return nil
}

// Server processes requests against one program with persistent
// hardware and mitigation state, strictly sequentially. It is not safe
// for concurrent use; wrap it in a Pool for that.
type Server struct {
	prog   *ast.Program
	res    *types.Result
	opts   Options
	engine exec.Engine
	mit    *mitigation.State
	n      int
}

// New constructs a server. The program must be type-checked. Errors
// are sentinel-typed: errors.Is(err, ErrNoEnv) when the environment is
// missing, errors.Is(err, ErrBadOptions) for other bad configuration
// (including an unknown Options.Engine).
func New(prog *ast.Program, res *types.Result, opts Options) (*Server, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	engine, err := exec.NewEngine(opts.Engine, prog, res, opts.Env, exec.Options{
		Scheme:            opts.Scheme,
		Policy:            opts.Policy,
		DisableMitigation: opts.DisableMitigation,
		Limits:            opts.Limits,
		Metrics:           opts.Metrics,
		Shard:             opts.shard,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	return &Server{
		prog:   prog,
		res:    res,
		opts:   opts,
		engine: engine,
		mit:    mitigation.NewState(res.Lat, opts.Scheme, opts.Policy),
	}, nil
}

// Engine returns the server's execution engine name.
func (s *Server) Engine() string { return s.engine.Name() }

// MitigationState exposes the persistent miss counters.
func (s *Server) MitigationState() *mitigation.State { return s.mit }

// Served returns the number of requests processed.
func (s *Server) Served() int { return s.n }

// Env returns the server's machine environment.
func (s *Server) Env() hw.Env { return s.opts.Env }

// Metrics returns the server's instrumentation accumulator.
func (s *Server) Metrics() *obs.Metrics { return s.opts.Metrics }

// Snapshot returns the current instrumentation, including the machine
// environment's cache/TLB/branch-predictor counters.
func (s *Server) Snapshot() obs.Snapshot {
	snap := s.opts.Metrics.Snapshot()
	snap.HW = s.opts.Env.Stats()
	return snap
}

// Handle processes one request and returns its response. The context
// bounds the request: cancellation or a deadline aborts the in-flight
// machine cleanly (persistent mitigation state is NOT updated by an
// aborted request), returning a *RequestError wrapping ctx.Err().
// Exhausting the step or cycle budget returns a *RequestError wrapping
// ErrBudgetExceeded.
func (s *Server) Handle(ctx context.Context, req Request) (*Response, error) {
	return s.HandleWith(ctx, req, nil)
}

// HandleWith is Handle with an explicit mitigation state: when mit is
// non-nil it is used for this request in place of the server's own
// persistent state. This is how tenant sessions thread per-tenant
// epoch counters through a shared server or pool shard — the caller
// owns mit and must serialize access to it (a session lock); the
// server only splices it into the engine for the duration of the run.
// A nil mit selects the server's shard-global state, preserving the
// anonymous-request semantics.
func (s *Server) HandleWith(ctx context.Context, req Request, mit *mitigation.State) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, s.fail(err)
	}
	if mit == nil {
		mit = s.mit
	}
	// The request's wall-clock bound (Limits.Timeout) is applied by the
	// engine itself, which derives a deadline context per Run.
	// The engine splices the persistent mitigation state in before the
	// run and copies the (possibly inflated) counters back only on
	// success, so an aborted request never updates it.
	result, err := s.engine.Run(ctx, exec.Request{Setup: req, Mit: mit})
	if err != nil {
		if errors.Is(err, budget.ErrStepLimit) || errors.Is(err, budget.ErrCycleLimit) {
			err = fmt.Errorf("%w: %v", ErrBudgetExceeded, err)
		}
		return nil, s.fail(err)
	}

	resp := responsePool.Get().(*Response)
	*resp = Response{
		Index:       s.n,
		ShardIndex:  s.n,
		Time:        result.Clock,
		Trace:       result.Trace,
		Mitigations: result.Mitigations,
	}
	for _, r := range result.Mitigations {
		if r.Mispredicted {
			resp.Mispredictions++
		}
	}
	s.n++
	s.opts.Metrics.AddRequest(resp.Time)
	return resp, nil
}

// fail records a failure and wraps the cause with the request index.
func (s *Server) fail(err error) error {
	s.opts.Metrics.Add(obs.Failures, 1)
	return &RequestError{Index: s.n, Err: err}
}

// HandleAll processes a sequence of requests, stopping at the first
// failure (returning the responses completed so far alongside the
// error).
func (s *Server) HandleAll(ctx context.Context, reqs []Request) ([]*Response, error) {
	out := make([]*Response, 0, len(reqs))
	for _, r := range reqs {
		resp, err := s.Handle(ctx, r)
		if err != nil {
			return out, err
		}
		out = append(out, resp)
	}
	return out, nil
}

// Times extracts the per-request processing times from responses.
func Times(resps []*Response) []uint64 {
	out := make([]uint64, len(resps))
	for i, r := range resps {
		out[i] = r.Time
	}
	return out
}

// SettledAfter returns the index of the first request after which no
// request ever mispredicts again, or -1 if the tail keeps missing —
// the server's convergence point.
func SettledAfter(resps []*Response) int {
	last := -1
	for i, r := range resps {
		if r.Mispredictions > 0 {
			last = i
		}
	}
	if last == len(resps)-1 && len(resps) > 0 && resps[last].Mispredictions > 0 {
		return -1
	}
	return last + 1
}
