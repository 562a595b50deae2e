// Package transport is the HTTP/JSON front-end of the mitigation
// service: a versioned wire API (see internal/transport/wire) over a
// sharded server.Pool.
//
//	POST /v1/run      — one request: scalar inputs in, timing result out
//	POST /v1/batch    — a burst, served via the pool's batched path
//	POST /v1/stream   — NDJSON pipelining, one result line per request line
//	GET  /v1/metrics  — obs.Export as Prometheus text (or JSON)
//	GET  /v1/healthz  — liveness and drain state
//
// The three POST endpoints differ in framing and in how they submit to
// the pool, not in how they treat an item: each item is admitted by
// admit, an item run inline goes through runItem, and every pool
// outcome becomes a wire result in result.
//
// The transport owns admission control (queue saturation and drain map
// to 503 + Retry-After, reusing the pool's load-shedding sentinels) and
// graceful shutdown (Shutdown stops admitting, waits for in-flight
// requests, then drains the pool). It converts between wire DTOs and
// internal structs at the boundary; nothing internal leaks into the
// network contract.
package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/lang/ast"
	"repro/internal/obs"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport/wire"
	"repro/internal/transport/wire/fastjson"
)

// TenantHeader is the header fallback for naming a tenant when the
// client cannot set the body's tenant field (e.g. plain curl against
// /v1/run with a canned body). The body field wins when both are set.
const TenantHeader = "X-Timing-Tenant"

// statusClientClosedRequest is the de-facto status for "client went
// away" (nginx's 499): the run was canceled by the caller, not failed
// by the service.
const statusClientClosedRequest = 499

// DefaultMaxBatch is the batch-size bound when Options.MaxBatch is 0.
// A batch is held in memory whole (decoded, validated, results
// buffered), so an unbounded batch is an amplification lever: one
// request body that pins a worker pool for minutes.
const DefaultMaxBatch = 1024

// Options configure a Handler.
type Options struct {
	// Pool serves the requests; required. The handler takes ownership
	// at Shutdown (which closes it).
	Pool *server.Pool
	// Prog is the served program; required. Input names are validated
	// against its declarations before a request is admitted, because
	// memory writes trap on undeclared names.
	Prog *ast.Program
	// MaxInFlight bounds concurrently admitted HTTP requests; beyond it
	// the transport sheds with 503 before touching the pool. 0 means no
	// transport-level bound (the pool's queue backpressure still
	// applies).
	MaxInFlight int
	// RetryAfter is the delay advertised on 503 responses (Retry-After
	// header and retry_after_ms body field). Default 1s.
	RetryAfter time.Duration
	// MaxBatch bounds the number of requests in one /v1/batch body;
	// oversized batches are rejected whole with 400 invalid_request
	// before any item runs. 0 takes DefaultMaxBatch; negative disables
	// the bound.
	MaxBatch int
	// Sessions, when non-nil, enables per-tenant mitigation sessions:
	// requests naming a tenant (body field or X-Timing-Tenant header)
	// run against that tenant's persistent mitigation state and leakage
	// account, and are denied with 429 leakage_budget_exceeded once the
	// account reaches the manager's budget. Nil ignores tenant names —
	// every request is anonymous, the schema-v1 behavior.
	Sessions *session.Manager
	// StreamWindow bounds how many anonymous /v1/stream items may be in
	// flight in the pool per connection before the decode loop blocks on
	// the oldest result. 0 takes DefaultStreamWindow.
	StreamWindow int
}

// DefaultStreamWindow is the per-stream pipelining depth when
// Options.StreamWindow is 0 — deep enough to keep every shard busy,
// shallow enough that one stream cannot queue unbounded work.
const DefaultStreamWindow = 256

// Handler is the HTTP front-end. Create with New; it implements
// http.Handler and is safe for concurrent use.
type Handler struct {
	opts Options
	mux  *http.ServeMux
	// names is a template memory over the served program, used only for
	// declaration lookups (never written).
	names *mem.Memory
	// metrics is the pool's accumulator, for the transport-level byte
	// and stream counters.
	metrics *obs.Metrics

	mu       sync.Mutex
	inFlight int
	draining bool
	idle     chan struct{} // closed when draining and inFlight hits 0
}

// New builds the handler.
func New(opts Options) (*Handler, error) {
	if opts.Pool == nil {
		return nil, errors.New("transport: Options.Pool is required")
	}
	if opts.Prog == nil {
		return nil, errors.New("transport: Options.Prog is required")
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.StreamWindow <= 0 {
		opts.StreamWindow = DefaultStreamWindow
	}
	h := &Handler{
		opts:    opts,
		names:   mem.New(opts.Prog),
		metrics: opts.Pool.Metrics(),
	}
	h.mux = http.NewServeMux()
	h.mux.HandleFunc("POST /v1/run", h.handleRun)
	h.mux.HandleFunc("POST /v1/batch", h.handleBatch)
	h.mux.HandleFunc("POST /v1/stream", h.handleStream)
	h.mux.HandleFunc("GET /v1/metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /v1/healthz", h.handleHealthz)
	return h, nil
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// Mux exposes the underlying mux so callers can mount additional
// routes (the CLI mounts pprof) on the same listener.
func (h *Handler) Mux() *http.ServeMux { return h.mux }

// begin admits one request, or reports why not. The error, when
// non-nil, is already wire-shaped.
func (h *Handler) begin() *wire.Error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining {
		return &wire.Error{
			Code:         wire.CodeShuttingDown,
			Message:      "service is draining",
			RetryAfterMS: h.opts.RetryAfter.Milliseconds(),
		}
	}
	if h.opts.MaxInFlight > 0 && h.inFlight >= h.opts.MaxInFlight {
		return &wire.Error{
			Code:         wire.CodeOverloaded,
			Message:      "too many in-flight requests",
			RetryAfterMS: h.opts.RetryAfter.Milliseconds(),
		}
	}
	h.inFlight++
	return nil
}

// end releases an admission; the last in-flight request out signals a
// waiting Shutdown.
func (h *Handler) end() {
	h.mu.Lock()
	h.inFlight--
	if h.draining && h.inFlight == 0 && h.idle != nil {
		close(h.idle)
		h.idle = nil
	}
	h.mu.Unlock()
}

// Shutdown drains gracefully: new work is refused with 503
// shutting_down, in-flight requests run to completion, then the pool is
// closed. Returns ctx.Err() if the context expires first (the pool is
// then still closed, aborting whatever remained). Safe to call more
// than once.
func (h *Handler) Shutdown(ctx context.Context) error {
	h.mu.Lock()
	if !h.draining {
		h.draining = true
		if h.inFlight > 0 {
			h.idle = make(chan struct{})
		}
	}
	idle := h.idle
	h.mu.Unlock()

	var err error
	if idle != nil {
		select {
		case <-idle:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	h.opts.Pool.Close()
	return err
}

// Draining reports whether Shutdown has begun.
func (h *Handler) Draining() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.draining
}

// ---------------------------------------------------------------------------
// Endpoints

func (h *Handler) handleRun(w http.ResponseWriter, r *http.Request) {
	if werr := h.begin(); werr != nil {
		h.writeError(w, werr)
		return
	}
	defer h.end()

	body, werr := h.readBody(r)
	if werr != nil {
		h.writeError(w, werr)
		return
	}
	var req wire.RunRequest
	err := fastjson.DecodeRunRequest(*body, &req, true)
	putBuf(body)
	if err != nil {
		h.writeError(w, invalidRequest(err))
		return
	}
	sreq, tenant, werr := h.admit(req, r)
	if werr != nil {
		h.writeError(w, werr)
		return
	}
	res := h.runItem(r.Context(), req, sreq, tenant)
	if res.Error != nil {
		h.writeError(w, res.Error)
		return
	}
	h.writeRunResponse(w, res.Response)
}

// writeRunResponse encodes a run response into a pooled buffer and
// writes it with an exact Content-Length.
func (h *Handler) writeRunResponse(w http.ResponseWriter, out *wire.RunResponse) {
	bp := getBuf()
	b, err := fastjson.AppendRunResponse((*bp)[:0], out)
	*bp = b[:0]
	if err != nil {
		putBuf(bp)
		h.writeError(w, &wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		return
	}
	h.writeBody(w, http.StatusOK, b)
	putBuf(bp)
}

// writeBody writes one fully buffered JSON body: exact Content-Length
// (so keep-alive needs no chunking), bytes counted. The buffer is the
// caller's; it is not retained after Write returns.
func (h *Handler) writeBody(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	n, _ := w.Write(b)
	h.metrics.AddBytesOut(n)
}

// tenantOf resolves a request's tenant: the body field, then the
// header fallback. Naming DIFFERENT tenants in body and header is
// rejected — silently picking one would bill probes (and leakage
// budget) to a session the caller may not have meant. Sessions being
// disabled makes every request anonymous regardless.
func (h *Handler) tenantOf(req wire.RunRequest, r *http.Request) (string, *wire.Error) {
	if h.opts.Sessions == nil {
		return "", nil
	}
	hdr := r.Header.Get(TenantHeader)
	if req.Tenant != "" && hdr != "" && req.Tenant != hdr {
		return "", &wire.Error{
			Code: wire.CodeInvalidRequest,
			Message: fmt.Sprintf("tenant mismatch: body names %q but %s header names %q",
				req.Tenant, TenantHeader, hdr),
		}
	}
	if req.Tenant != "" {
		return req.Tenant, nil
	}
	return hdr, nil
}

// maxBatch resolves the configured batch bound (0 disabled).
func (h *Handler) maxBatch() int {
	switch {
	case h.opts.MaxBatch < 0:
		return 0
	case h.opts.MaxBatch == 0:
		return DefaultMaxBatch
	default:
		return h.opts.MaxBatch
	}
}

// admit validates one wire request for serving: its schema version,
// its input names against the served program, and the tenant it runs
// under. Every endpoint admits each item here, so a request is judged
// the same whether it arrives alone, inside a batch, or on a stream.
func (h *Handler) admit(req wire.RunRequest, r *http.Request) (server.Request, string, *wire.Error) {
	if werr := checkVersion(req.SchemaVersion); werr != nil {
		return nil, "", werr
	}
	sreq, werr := h.toRequest(req)
	if werr != nil {
		return nil, "", werr
	}
	tenant, werr := h.tenantOf(req, r)
	if werr != nil {
		return nil, "", werr
	}
	return sreq, tenant, nil
}

// runItem runs one admitted item and waits for its result. Anonymous
// items go through Pool.Handle and its retries. A tenanted item runs
// inside the tenant's session: admission against the leakage budget,
// the tenant's own mitigation state spliced through the pool, and the
// account advanced on success only.
func (h *Handler) runItem(ctx context.Context, req wire.RunRequest, sreq server.Request, tenant string) wire.BatchResult {
	if tenant == "" {
		resp, err := h.opts.Pool.Handle(ctx, sreq)
		return h.result(resp, err, req)
	}
	tk, err := h.opts.Sessions.Begin(tenant)
	if err != nil {
		return wire.BatchResult{Error: h.toWireError(err)}
	}
	resp, err := h.opts.Pool.HandleWith(ctx, sreq, tk.Mit())
	if err != nil {
		tk.Abort()
		return wire.BatchResult{Error: h.toWireError(err)}
	}
	info := tk.Commit(resp.Time, len(resp.Mitigations))
	res := h.result(resp, nil, req)
	res.Response.Tenant = info.Tenant
	res.Response.Epoch = info.Epoch
	res.Response.LeakageBits = info.SpentBits
	return res
}

// result converts one pool outcome into its wire form and releases the
// pooled response.
func (h *Handler) result(resp *server.Response, err error, req wire.RunRequest) wire.BatchResult {
	if err != nil {
		return wire.BatchResult{Error: h.toWireError(err)}
	}
	rr := toRunResponse(resp, req)
	server.ReleaseResponse(resp)
	return wire.BatchResult{Response: &rr}
}

func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	if werr := h.begin(); werr != nil {
		h.writeError(w, werr)
		return
	}
	defer h.end()

	body, werr := h.readBody(r)
	if werr != nil {
		h.writeError(w, werr)
		return
	}
	var req wire.BatchRequest
	err := fastjson.DecodeBatchRequest(*body, &req, true)
	putBuf(body)
	if err != nil {
		h.writeError(w, invalidRequest(err))
		return
	}
	if werr := checkVersion(req.SchemaVersion); werr != nil {
		h.writeError(w, werr)
		return
	}
	if max := h.maxBatch(); max > 0 && len(req.Requests) > max {
		h.writeError(w, &wire.Error{
			Code:    wire.CodeInvalidRequest,
			Message: fmt.Sprintf("batch has %d requests; this server accepts at most %d", len(req.Requests), max),
		})
		return
	}
	// Validate every item before submitting any: a batch with a typo'd
	// input name or a conflicting tenant fails fast as one invalid
	// request, not as a half-run burst.
	sreqs := make([]server.Request, len(req.Requests))
	tenants := make([]string, len(req.Requests))
	tenanted := false
	for i, item := range req.Requests {
		sreq, tenant, werr := h.admit(item, r)
		if werr != nil {
			werr.Message = fmt.Sprintf("request %d: %s", i, werr.Message)
			h.writeError(w, werr)
			return
		}
		sreqs[i], tenants[i] = sreq, tenant
		tenanted = tenanted || tenant != ""
	}
	resultsBuf := getResults(len(sreqs))
	defer putResults(resultsBuf)
	out := wire.BatchResponse{
		SchemaVersion: wire.SchemaVersion,
		Results:       *resultsBuf,
	}
	if tenanted {
		// Session batches run item by item in submission order: each
		// item's admission must see the account its predecessors left
		// (a budget can run out mid-batch), and a tenant's epochs must
		// advance in order. This trades the pool's batched fast path for
		// the session semantics; anonymous batches keep the fast path.
		for i := range sreqs {
			out.Results[i] = h.runItem(r.Context(), req.Requests[i], sreqs[i], tenants[i])
		}
	} else {
		resps, errs := h.opts.Pool.HandleAllErrs(r.Context(), sreqs)
		for i := range sreqs {
			out.Results[i] = h.result(resps[i], errs[i], req.Requests[i])
		}
	}
	h.writeBatchResponse(w, &out)
}

// writeBatchResponse encodes a batch response into a pooled buffer.
// The Results slice itself is pooled by the caller; it is released
// only after the encode has copied everything onto the wire.
func (h *Handler) writeBatchResponse(w http.ResponseWriter, out *wire.BatchResponse) {
	bp := getBuf()
	b, err := fastjson.AppendBatchResponse((*bp)[:0], out)
	*bp = b[:0]
	if err != nil {
		putBuf(bp)
		h.writeError(w, &wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		return
	}
	h.writeBody(w, http.StatusOK, b)
	putBuf(bp)
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	export := h.opts.Pool.Snapshot().Export()
	if r.URL.Query().Get("format") == "json" || r.Header.Get("Accept") == "application/json" {
		writeJSON(w, http.StatusOK, export)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	writeProm(w, export)
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := wire.StatusOK
	if h.Draining() {
		status = wire.StatusDraining
	}
	writeJSON(w, http.StatusOK, wire.Health{
		SchemaVersion: wire.SchemaVersion,
		Status:        status,
		Engine:        h.opts.Pool.Shard(0).Engine(),
		Workers:       h.opts.Pool.Workers(),
	})
}

// ---------------------------------------------------------------------------
// Conversions

// readBody slurps a request body into a pooled buffer and counts the
// bytes. The caller owns the returned buffer and must putBuf it after
// the decoded request no longer aliases it (wire decoders copy or
// intern everything they keep, so after decode is safe).
func (h *Handler) readBody(r *http.Request) (*[]byte, *wire.Error) {
	bp := getBuf()
	b := *bp
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = b[:0]
			putBuf(bp)
			return nil, &wire.Error{Code: wire.CodeInvalidRequest, Message: err.Error()}
		}
	}
	*bp = b
	h.metrics.AddBytesIn(len(b))
	return bp, nil
}

// invalidRequest wraps a decode failure in the stable error shape.
func invalidRequest(err error) *wire.Error {
	return &wire.Error{Code: wire.CodeInvalidRequest, Message: err.Error()}
}

// checkVersion accepts 0 (meaning "current") and every schema from
// MinSchemaVersion through the current one — v2 is additive over v1,
// so a v1 request is served with v1 semantics (no tenant, anonymous).
func checkVersion(v int) *wire.Error {
	if v != 0 && (v < wire.MinSchemaVersion || v > wire.SchemaVersion) {
		return &wire.Error{
			Code: wire.CodeInvalidRequest,
			Message: fmt.Sprintf("unsupported schema_version %d (this server speaks %d through %d)",
				v, wire.MinSchemaVersion, wire.SchemaVersion),
		}
	}
	return nil
}

// toRequest validates a wire request's input names against the served
// program and builds the memory-setup closure. Validation happens here,
// at admission, because mem.Set panics on undeclared names — a malformed
// request must be a 400, not a worker crash.
func (h *Handler) toRequest(req wire.RunRequest) (server.Request, *wire.Error) {
	for name := range req.Inputs {
		if !h.names.HasScalar(name) {
			return nil, &wire.Error{
				Code:    wire.CodeUnknownInput,
				Message: fmt.Sprintf("input %q is not a declared scalar of the served program", name),
			}
		}
	}
	inputs := req.Inputs
	return func(m *mem.Memory) {
		for name, v := range inputs {
			m.Set(name, v)
		}
	}, nil
}

// toRunResponse converts a pool response, including the trace and
// mitigation records only when the request opted in.
func toRunResponse(resp *server.Response, req wire.RunRequest) wire.RunResponse {
	out := wire.RunResponse{
		SchemaVersion:  wire.SchemaVersion,
		Index:          resp.Index,
		Shard:          resp.Shard,
		ShardIndex:     resp.ShardIndex,
		Time:           resp.Time,
		Mispredictions: resp.Mispredictions,
	}
	if req.Trace {
		out.Trace = make([]wire.Event, len(resp.Trace))
		for i, e := range resp.Trace {
			out.Trace[i] = wire.Event{Var: e.Var, Value: e.Value, Time: e.Time}
		}
	}
	if req.Mitigations {
		out.Mitigations = make([]wire.MitRecord, len(resp.Mitigations))
		for i, m := range resp.Mitigations {
			out.Mitigations[i] = wire.MitRecord{
				ID: m.ID, Duration: m.Duration, Elapsed: m.Elapsed,
				Start: m.Start, Mispredicted: m.Mispredicted,
			}
		}
	}
	return out
}

// toWireError maps a pool error onto the stable wire vocabulary. The
// sentinel checks mirror the service's own taxonomy: saturation and
// shutdown are retryable-with-delay, budget exhaustion is the caller's
// program being too big, deadline/cancel are timing outcomes.
func (h *Handler) toWireError(err error) *wire.Error {
	retryMS := h.opts.RetryAfter.Milliseconds()
	var be *session.BudgetError
	switch {
	case errors.As(err, &be):
		return &wire.Error{
			Code:         wire.CodeLeakageBudget,
			Message:      err.Error(),
			RetryAfterMS: be.RetryAfter.Milliseconds(),
		}
	case errors.Is(err, server.ErrOverloaded):
		return &wire.Error{Code: wire.CodeOverloaded, Message: err.Error(), RetryAfterMS: retryMS}
	case errors.Is(err, server.ErrPoolClosed):
		return &wire.Error{Code: wire.CodeShuttingDown, Message: err.Error(), RetryAfterMS: retryMS}
	case errors.Is(err, server.ErrBudgetExceeded):
		return &wire.Error{Code: wire.CodeBudgetExceeded, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return &wire.Error{Code: wire.CodeDeadlineExceeded, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return &wire.Error{Code: wire.CodeCanceled, Message: err.Error()}
	default:
		return &wire.Error{Code: wire.CodeInternal, Message: err.Error()}
	}
}

// statusFor maps a wire error code to its HTTP status.
func statusFor(code string) int {
	switch code {
	case wire.CodeInvalidRequest, wire.CodeUnknownInput:
		return http.StatusBadRequest
	case wire.CodeBudgetExceeded:
		return http.StatusUnprocessableEntity
	case wire.CodeLeakageBudget:
		return http.StatusTooManyRequests
	case wire.CodeOverloaded, wire.CodeShuttingDown:
		return http.StatusServiceUnavailable
	case wire.CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case wire.CodeCanceled:
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits a wire error with its HTTP status; 503s and 429s
// carry a Retry-After header so well-behaved clients back off (for a
// budget denial it is the session TTL — when the account resets).
func (h *Handler) writeError(w http.ResponseWriter, werr *wire.Error) {
	status := statusFor(werr.Code)
	if (status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests) && werr.RetryAfterMS > 0 {
		secs := (werr.RetryAfterMS + 999) / 1000 // Retry-After is whole seconds; round up
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	bp := getBuf()
	b, err := fastjson.AppendErrorEnvelope((*bp)[:0], werr)
	*bp = b[:0]
	if err != nil {
		putBuf(bp)
		writeJSON(w, status, struct {
			Error *wire.Error `json:"error"`
		}{werr})
		return
	}
	h.writeBody(w, status, b)
	putBuf(bp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
