package transport

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/transport/wire"
	"repro/internal/transport/wire/fastjson"
)

// handleStream serves POST /v1/stream: NDJSON request/response
// pipelining over one connection. Each input line is a wire.RunRequest;
// each output line is a wire.BatchResult ({"response":{...}} or
// {"error":{...}}), in submission order. The protocol is the batch
// endpoint unrolled over time, and the handler is two loops:
//
//   - the decode loop reads lines into pooled items, admits each, and
//     starts it: an anonymous item is submitted to the pool without
//     waiting, so one connection keeps every shard busy with no
//     per-request HTTP round trip; a tenanted item runs inline, so a
//     tenant's epochs advance in submission order, a budget denial
//     surfaces as a per-item leakage_budget_exceeded error line (the
//     429 analogue) while the stream continues, and a client that stops
//     reading holds no session;
//   - the write loop resolves items in FIFO order, streams results back
//     and returns each item to the pool after its line, flushing
//     whenever the next item is not already waiting — a client that
//     pipelines N requests and then blocks on results never deadlocks
//     against server-side buffering.
//
// The channel between them bounds the in-flight window at
// DefaultStreamWindow. A line the decoder rejects terminates the stream
// after a final error line (NDJSON framing cannot be trusted past a
// decode failure). Shutdown is two-phase: the stream holds one
// admission slot for its whole life, and the decode loop checks
// Draining() per line — on drain, in-flight results are delivered,
// then a final shutting_down error line ends the stream. A drain also
// expires the body's read deadline, so a client that keeps an idle
// stream open cannot hold Shutdown up.
func (h *Handler) handleStream(w http.ResponseWriter, r *http.Request) {
	// HTTP/1.x servers normally stop reading the request body once the
	// response begins; a pipelined protocol needs both directions open
	// at once. Full duplex must be enabled before ANY response bytes —
	// including a refusal — because without it the server drains the
	// request body before committing headers, which deadlocks against a
	// client that pipes requests and waits for the response. Never close
	// r.Body here for the same reason: (*body).Close performs that same
	// bounded drain. (HTTP/2 is full-duplex already; ErrNotSupported
	// from a test recorder is equally fine to ignore.)
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	// The handler can return before it reads the body to the end: a
	// refusal, a terminal error line, a drain. Close the connection
	// after such a stream rather than reuse it. When net/http itself
	// reads the rest of a full-duplex body after the handler, it races
	// that read against the next request's ("invalid concurrent
	// Body.Read call"), and the client sees its next request on the
	// connection fail.
	w.Header().Set("Connection", "close")

	if werr := h.begin(); werr != nil {
		h.writeError(w, werr)
		return
	}
	defer h.end()

	h.metrics.StreamOpened()
	defer h.metrics.StreamClosed()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush() // commit headers so the client's round trip completes

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), wire.MaxPooledBuf)

	// Items run under ctx, not r.Context(). On drain the watcher below
	// expires the body's read deadline, so that a Scan blocked on an
	// idle client returns; net/http answers that read error by
	// cancelling r.Context(), which would fail the in-flight items the
	// drain must still deliver. A client that goes away before the
	// drain still cancels them. The watcher exits before the handler
	// returns, so it never touches the connection after the stream.
	ctx, cancel := context.WithCancel(context.WithoutCancel(r.Context()))
	defer cancel()
	stopWatch, watchDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-h.drainc:
			_ = rc.SetReadDeadline(time.Now())
		case <-r.Context().Done():
			cancel()
		case <-stopWatch:
		}
	}()
	defer func() { close(stopWatch); <-watchDone }()

	items := make(chan *item, DefaultStreamWindow)
	// dead closes when the write loop hits a write error (the client
	// went away); the decode loop then stops reading. The write loop
	// keeps draining items until the channel closes either way, so
	// sends never block on a dead peer.
	dead := make(chan struct{})
	done := make(chan struct{})
	go h.streamWriteLoop(ctx, w, rc, items, dead, done)
	defer func() { close(items); <-done }()

	// send hands one item to the write loop; false when the client is
	// gone and reading more input is pointless.
	send := func(it *item) bool {
		items <- it
		select {
		case <-dead:
			return false
		default:
			return true
		}
	}
	// fail sends the stream's final line, on it or on a new item; the
	// caller then returns.
	fail := func(it *item, werr *wire.Error) {
		if it == nil {
			it = getItem()
		}
		it.fail(werr)
		send(it)
	}
	hdr := r.Header.Get(TenantHeader)

	for sc.Scan() {
		line := sc.Bytes()
		h.metrics.Add(obs.BytesIn, uint64(len(line)+1))
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		select {
		case <-dead:
			return
		default:
		}
		if h.Draining() {
			fail(nil, h.drainError())
			return
		}
		it := getItem()
		if err := fastjson.DecodeSlotRequest(line, &it.req, true, h.slot); err != nil {
			fail(it, invalidRequest(err))
			return
		}
		if werr := h.admit(it, hdr); werr != nil {
			fail(it, werr)
			return
		}
		h.metrics.Add(obs.StreamItems, 1)
		// A failed item is an error line and the stream continues,
		// mirroring a failed item inside a batch; a closed pool
		// additionally ends the stream.
		h.start(ctx, it)
		closed := !it.queued && it.res.Error != nil && it.res.Error.Code == wire.CodeShuttingDown
		if !send(it) || closed {
			return
		}
	}
	// The body ended, failed, or hit the drain's read deadline. A
	// draining stream still owes its client the terminal line.
	if h.Draining() {
		fail(nil, h.drainError())
	}
}

// streamWriteLoop resolves items in FIFO order, writes one NDJSON
// result line per item and returns the item to the pool. Output is
// buffered; the buffer is flushed exactly when the next item is not
// already available, so bytes never sit unflushed while the loop
// blocks and back-to-back results still coalesce into large writes.
func (h *Handler) streamWriteLoop(ctx context.Context, w http.ResponseWriter, rc *http.ResponseController, items <-chan *item, dead chan<- struct{}, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(w, 32<<10)
	failed := false

	writeResult := func(res *wire.BatchResult) {
		bp := wire.GetBuf()
		defer wire.PutBuf(bp)
		b, err := fastjson.AppendBatchResult((*bp)[:0], res)
		*bp = b[:0]
		if err != nil {
			b, err = fastjson.AppendBatchResult(b[:0], &wire.BatchResult{
				Error: &wire.Error{Code: wire.CodeInternal, Message: err.Error()},
			})
			if err != nil {
				failed = true
				close(dead)
				return
			}
		}
		b = append(b, '\n')
		*bp = b[:0]
		n, werr := bw.Write(b)
		h.metrics.Add(obs.BytesOut, uint64(n))
		if werr != nil {
			failed = true
			close(dead)
		}
	}

	for {
		var it *item
		var ok bool
		select {
		case it, ok = <-items:
		default:
			// Nothing queued: everything computed so far must reach the
			// client before this loop blocks.
			if !failed {
				if err := bw.Flush(); err != nil {
					failed = true
					close(dead)
				}
				_ = rc.Flush()
			}
			it, ok = <-items
		}
		if !ok {
			break
		}
		res := h.resolve(ctx, it)
		if !failed {
			writeResult(res)
		}
		putItem(it)
	}
	if !failed {
		if err := bw.Flush(); err == nil {
			_ = rc.Flush()
		}
	}
}
