// Package transport is the HTTP/JSON front-end of the mitigation
// service: a versioned wire API (see internal/transport/wire) over a
// sharded server.Pool.
//
//	POST /v1/run      — one request: scalar inputs in, timing result out
//	POST /v1/batch    — a finite stream: a request list, one result per item
//	POST /v1/stream   — NDJSON pipelining, one result line per request line
//	GET  /v1/metrics  — obs.Export as Prometheus text (or JSON)
//	GET  /v1/healthz  — liveness and drain state
//
// The three POST endpoints differ in framing only. Every item takes one
// path: it is decoded into a pooled item whose inputs are already
// (slot, value) pairs of the served program, admit validates it, start
// begins it (an anonymous item is submitted to the pool without
// waiting, a tenanted one runs inline in its session), and resolve
// fills the item's wire result, in submission order. A batch is a
// stream whose lines all arrived at once.
//
// A tenanted item's run is settled before the handler starts its next
// item, so no handler waits for a session while it holds one, and a
// stream whose client stops reading holds no session.
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

// DefaultMaxBatch bounds the number of requests in one /v1/batch body;
// a larger batch is rejected whole with 400 invalid_request before any
// item runs. A batch is held in memory whole (decoded, validated,
// results buffered), so an unbounded batch is an amplification lever:
// one request body that pins a worker pool for minutes.
const DefaultMaxBatch = 1024

// DefaultStreamWindow bounds how many items one /v1/stream connection
// may have started and not yet answered before its decode loop blocks
// on the oldest result — deep enough to keep every shard busy, shallow
// enough that one stream cannot queue unbounded work.
const DefaultStreamWindow = 256

// RetryAfter is the delay advertised on 503 responses: the Retry-After
// header and the retry_after_ms body field of overloaded and
// shutting_down errors. A budget denial (429) advertises its session's
// TTL instead.
const RetryAfter = time.Second

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
	// Sessions, when non-nil, enables per-tenant mitigation sessions:
	// requests naming a tenant (body field or X-Timing-Tenant header)
	// run against that tenant's persistent mitigation state and leakage
	// account, and are denied with 429 leakage_budget_exceeded once the
	// account reaches the manager's budget. Nil ignores tenant names —
	// every request is anonymous, the schema-v1 behavior.
	Sessions *session.Manager
}

// Handler is the HTTP front-end. Create with New; it implements
// http.Handler and is safe for concurrent use.
type Handler struct {
	opts Options
	mux  *http.ServeMux
	// slot resolves an input name to its scalar slot in the served
	// program, or -1, for the decoder.
	slot func(name []byte) int
	// metrics is the pool's accumulator, for the transport-level byte
	// and stream counters.
	metrics *obs.Metrics

	mu       sync.Mutex
	inFlight int
	draining bool
	drainc   chan struct{} // closed when draining is set
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
	h := &Handler{
		opts:    opts,
		metrics: opts.Pool.Metrics(),
		drainc:  make(chan struct{}),
	}
	names := mem.New(opts.Prog) // declaration lookups only, never written
	h.slot = func(name []byte) int { return names.ScalarSlot(string(name)) }
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
		return h.drainError()
	}
	if h.opts.MaxInFlight > 0 && h.inFlight >= h.opts.MaxInFlight {
		return &wire.Error{
			Code:         wire.CodeOverloaded,
			Message:      "too many in-flight requests",
			RetryAfterMS: RetryAfter.Milliseconds(),
		}
	}
	h.inFlight++
	return nil
}

// drainError is the refusal of work that arrives while Shutdown drains.
func (h *Handler) drainError() *wire.Error {
	return &wire.Error{
		Code:         wire.CodeShuttingDown,
		Message:      "service is draining",
		RetryAfterMS: RetryAfter.Milliseconds(),
	}
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
		close(h.drainc)
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
	it := getItem()
	defer putItem(it)
	err := fastjson.DecodeSlotRequest(*body, &it.req, true, h.slot)
	wire.PutBuf(body)
	if err != nil {
		h.writeError(w, invalidRequest(err))
		return
	}
	if werr := h.admit(it, r.Header.Get(TenantHeader)); werr != nil {
		h.writeError(w, werr)
		return
	}
	h.start(r.Context(), it)
	res := h.resolve(r.Context(), it)
	if res.Error != nil {
		h.writeError(w, res.Error)
		return
	}
	h.writeRunResponse(w, res.Response)
}

// writeRunResponse encodes a run response into a pooled buffer and
// writes it with an exact Content-Length.
func (h *Handler) writeRunResponse(w http.ResponseWriter, out *wire.RunResponse) {
	bp := wire.GetBuf()
	b, err := fastjson.AppendRunResponse((*bp)[:0], out)
	*bp = b[:0]
	if err != nil {
		wire.PutBuf(bp)
		h.writeError(w, &wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		return
	}
	h.writeBody(w, http.StatusOK, b)
	wire.PutBuf(bp)
}

// writeBody writes one fully buffered JSON body: exact Content-Length
// (so keep-alive needs no chunking), bytes counted. The buffer is the
// caller's; it is not retained after Write returns.
func (h *Handler) writeBody(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	n, _ := w.Write(b)
	h.metrics.Add(obs.BytesOut, uint64(n))
}

// tenantOf resolves an item's tenant: the body field, then the header
// fallback. Naming DIFFERENT tenants in body and header is rejected —
// silently picking one would bill probes (and leakage budget) to a
// session the caller may not have meant. Sessions being disabled makes
// every request anonymous regardless.
func (h *Handler) tenantOf(body, hdr string) (string, *wire.Error) {
	if h.opts.Sessions == nil {
		return "", nil
	}
	if body != "" && hdr != "" && body != hdr {
		return "", &wire.Error{
			Code: wire.CodeInvalidRequest,
			Message: fmt.Sprintf("tenant mismatch: body names %q but %s header names %q",
				body, TenantHeader, hdr),
		}
	}
	if body != "" {
		return body, nil
	}
	return hdr, nil
}

// admit validates one decoded item for serving: its schema version,
// its input names against the served program (the decoder resolved
// them and kept the first it could not), and the tenant it runs under,
// with hdr the request's tenant header. Every endpoint admits each item
// here, so a request is judged the same whether it arrives alone,
// inside a batch, or on a stream.
func (h *Handler) admit(it *item, hdr string) *wire.Error {
	if werr := checkVersion(it.req.SchemaVersion); werr != nil {
		return werr
	}
	if it.req.HasUnknown {
		return &wire.Error{
			Code:    wire.CodeUnknownInput,
			Message: fmt.Sprintf("input %q is not a declared scalar of the served program", it.req.Unknown),
		}
	}
	tenant, werr := h.tenantOf(it.req.Tenant, hdr)
	it.tenant = tenant
	return werr
}

// start begins an admitted item. An anonymous item is submitted to the
// pool without waiting; a submission the pool refuses (shed, closed,
// canceled) is the item's result. A tenanted item runs inline in its
// session: admission against the leakage budget, the tenant's own
// mitigation state spliced through the pool, and the account advanced
// on success only. Every endpoint starts its items in submission order,
// so a tenant's epochs advance in that order and a budget denial is
// seen by the tenant's later items.
func (h *Handler) start(ctx context.Context, it *item) {
	if it.tenant == "" {
		fut, err := h.opts.Pool.Submit(ctx, it.setup)
		if err != nil {
			it.fail(toWireError(err))
			return
		}
		it.fut, it.queued = fut, true
		return
	}
	tk, err := h.opts.Sessions.Begin(it.tenant)
	if err != nil {
		it.fail(toWireError(err))
		return
	}
	resp, err := h.opts.Pool.HandleWith(ctx, it.setup, tk.Mit())
	if err != nil {
		tk.Abort()
		it.fail(toWireError(err))
		return
	}
	info := tk.Commit(resp.Time, len(resp.Mitigations))
	it.resp.Tenant, it.resp.Epoch, it.resp.LeakageBits = info.Tenant, info.Epoch, info.SpentBits
	it.succeed(resp)
}

// resolve waits for a started item and returns its wire result, which
// points into the item.
func (h *Handler) resolve(ctx context.Context, it *item) *wire.BatchResult {
	if !it.queued {
		return &it.res
	}
	it.queued = false
	resp, err := it.fut.Wait(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The wait gave up on a run the worker may not have reached
			// yet; it would still call the item's setup.
			it.lost = true
		}
		it.fail(toWireError(err))
		return &it.res
	}
	it.succeed(resp)
	return &it.res
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
	b := getBatch()
	defer putBatch(b)
	version, n, err := fastjson.DecodeSlotBatch(*body, true, h.slot, b.elemFn)
	wire.PutBuf(body)
	if err != nil {
		h.writeError(w, invalidRequest(err))
		return
	}
	if werr := checkVersion(version); werr != nil {
		h.writeError(w, werr)
		return
	}
	if n > DefaultMaxBatch {
		h.writeError(w, &wire.Error{
			Code:    wire.CodeInvalidRequest,
			Message: fmt.Sprintf("batch has %d requests; this server accepts at most %d", n, DefaultMaxBatch),
		})
		return
	}
	// Validate every item before starting any: a batch with a typo'd
	// input name or a conflicting tenant fails fast as one invalid
	// request, not as a half-run burst.
	items := b.items[:n]
	hdr := r.Header.Get(TenantHeader) // once for all items
	for i, it := range items {
		if werr := h.admit(it, hdr); werr != nil {
			werr.Message = fmt.Sprintf("request %d: %s", i, werr.Message)
			h.writeError(w, werr)
			return
		}
	}
	for _, it := range items {
		h.start(r.Context(), it)
	}
	for _, it := range items {
		b.results = append(b.results, *h.resolve(r.Context(), it))
	}
	h.writeBatchResponse(w, &wire.BatchResponse{SchemaVersion: wire.SchemaVersion, Results: b.results})
}

// writeBatchResponse encodes a batch response into a pooled buffer.
// The Results slice itself is pooled by the caller; it is released
// only after the encode has copied everything onto the wire.
func (h *Handler) writeBatchResponse(w http.ResponseWriter, out *wire.BatchResponse) {
	bp := wire.GetBuf()
	b, err := fastjson.AppendBatchResponse((*bp)[:0], out)
	*bp = b[:0]
	if err != nil {
		wire.PutBuf(bp)
		h.writeError(w, &wire.Error{Code: wire.CodeInternal, Message: err.Error()})
		return
	}
	h.writeBody(w, http.StatusOK, b)
	wire.PutBuf(bp)
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	export := h.opts.Pool.Snapshot().Export()
	if r.URL.Query().Get("format") == "json" || r.Header.Get("Accept") == "application/json" {
		writeJSON(w, http.StatusOK, export)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	export.WriteProm(w)
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
// bytes. The caller owns the returned buffer and must wire.PutBuf it
// after the decoded request no longer aliases it (wire decoders copy
// or intern everything they keep, so after decode is safe).
func (h *Handler) readBody(r *http.Request) (*[]byte, *wire.Error) {
	bp := wire.GetBuf()
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
			wire.PutBuf(bp)
			return nil, &wire.Error{Code: wire.CodeInvalidRequest, Message: err.Error()}
		}
	}
	*bp = b
	h.metrics.Add(obs.BytesIn, uint64(len(b)))
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

// fillRunResponse writes a pool response's public fields into out,
// with the trace and mitigation records only when the request opted
// in. The records reuse out's storage; the session fields are left as
// they are.
func fillRunResponse(out *wire.RunResponse, resp *server.Response, trace, mitigations bool) {
	out.SchemaVersion = wire.SchemaVersion
	out.Index, out.Shard, out.ShardIndex = resp.Index, resp.Shard, resp.ShardIndex
	out.Time, out.Mispredictions = resp.Time, resp.Mispredictions
	out.Trace, out.Mitigations = out.Trace[:0], out.Mitigations[:0]
	if trace {
		for _, e := range resp.Trace {
			out.Trace = append(out.Trace, wire.Event{Var: e.Var, Value: e.Value, Time: e.Time})
		}
	}
	if mitigations {
		for _, m := range resp.Mitigations {
			out.Mitigations = append(out.Mitigations, wire.MitRecord{
				ID: m.ID, Duration: m.Duration, Elapsed: m.Elapsed,
				Start: m.Start, Mispredicted: m.Mispredicted,
			})
		}
	}
}

// toWireError maps a pool error onto the stable wire vocabulary. The
// sentinel checks mirror the service's own taxonomy: saturation and
// shutdown are retryable-with-delay, budget exhaustion is the caller's
// program being too big, deadline/cancel are timing outcomes.
func toWireError(err error) *wire.Error {
	retryMS := RetryAfter.Milliseconds()
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
	bp := wire.GetBuf()
	b, err := fastjson.AppendErrorEnvelope((*bp)[:0], werr)
	*bp = b[:0]
	if err != nil {
		wire.PutBuf(bp)
		writeJSON(w, status, struct {
			Error *wire.Error `json:"error"`
		}{werr})
		return
	}
	h.writeBody(w, status, b)
	wire.PutBuf(bp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
