package transport

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"

	"repro/internal/server"
	"repro/internal/transport/wire"
	"repro/internal/transport/wire/fastjson"
)

// streamItem is one unit of work handed from the decode loop to the
// write loop, in submission order. Either fut is a pending anonymous
// submission (resolved against req), or res is an already-resolved
// result: a tenanted run, a per-item error, or the stream's final
// error line.
type streamItem struct {
	fut *server.Future
	req wire.RunRequest
	res wire.BatchResult
}

// handleStream serves POST /v1/stream: NDJSON request/response
// pipelining over one connection. Each input line is a wire.RunRequest;
// each output line is a wire.BatchResult ({"response":{...}} or
// {"error":{...}}), in submission order. The protocol is the batch
// endpoint unrolled over time, and the handler is two loops:
//
//   - the decode loop reads lines and submits anonymous items to the
//     pool without waiting, so one connection keeps every shard busy
//     with no per-request HTTP round trip; tenanted items run inline,
//     exactly like a tenanted batch item, so a tenant's epochs advance
//     in submission order and a budget denial surfaces as a per-item
//     leakage_budget_exceeded error line (the 429 analogue) while the
//     stream continues;
//   - the write loop resolves items in FIFO order and streams results
//     back, flushing whenever the next item is not already waiting —
//     a client that pipelines N requests and then blocks on results
//     never deadlocks against server-side buffering.
//
// The channel between them bounds the in-flight window at
// Options.StreamWindow. A line the decoder rejects terminates the stream
// after a final error line (NDJSON framing cannot be trusted past a
// decode failure). Shutdown is two-phase: the stream holds one
// admission slot for its whole life, and the decode loop checks
// Draining() per line — on drain, in-flight results are delivered,
// then a final shutting_down error line ends the stream.
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
	sc.Buffer(make([]byte, 64<<10), maxPooledBuf)

	items := make(chan streamItem, h.opts.StreamWindow)
	// dead closes when the write loop hits a write error (the client
	// went away); the decode loop then stops reading. The write loop
	// keeps draining items until the channel closes either way, so
	// sends never block on a dead peer.
	dead := make(chan struct{})
	done := make(chan struct{})
	go h.streamWriteLoop(w, r, rc, items, dead, done)
	defer func() { close(items); <-done }()

	// send hands one item to the write loop; false when the client is
	// gone and reading more input is pointless.
	send := func(it streamItem) bool {
		items <- it
		select {
		case <-dead:
			return false
		default:
			return true
		}
	}
	// fail sends the stream's final line; the caller then returns.
	fail := func(werr *wire.Error) {
		send(streamItem{res: wire.BatchResult{Error: werr}})
	}

	for sc.Scan() {
		line := sc.Bytes()
		h.metrics.AddBytesIn(len(line) + 1)
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		select {
		case <-dead:
			return
		default:
		}
		if h.Draining() {
			fail(&wire.Error{
				Code:         wire.CodeShuttingDown,
				Message:      "service is draining",
				RetryAfterMS: h.opts.RetryAfter.Milliseconds(),
			})
			return
		}
		var req wire.RunRequest
		if err := fastjson.DecodeRunRequest(line, &req, true); err != nil {
			fail(invalidRequest(err))
			return
		}
		sreq, tenant, werr := h.admit(req, r)
		if werr != nil {
			fail(werr)
			return
		}
		h.metrics.AddStreamItems(1)

		if tenant == "" {
			fut, err := h.opts.Pool.Submit(r.Context(), sreq)
			if err != nil {
				// Admission failures are per-item outcomes; a closed
				// pool additionally ends the stream.
				closed := errors.Is(err, server.ErrPoolClosed)
				if !send(streamItem{res: wire.BatchResult{Error: h.toWireError(err)}}) || closed {
					return
				}
				continue
			}
			if !send(streamItem{fut: fut, req: req}) {
				return
			}
			continue
		}

		// Tenanted: run inline so this tenant's admissions observe the
		// leakage account in submission order. A denial (leakage budget,
		// pool errors) is a per-item error line and the stream
		// continues, mirroring a failed item inside a batch.
		if !send(streamItem{res: h.runItem(r.Context(), req, sreq, tenant)}) {
			return
		}
	}
}

// streamWriteLoop resolves items in FIFO order and writes one NDJSON
// result line per item. Output is buffered; the buffer is flushed
// exactly when the next item is not already available, so bytes never
// sit unflushed while the loop blocks and back-to-back results still
// coalesce into large writes.
func (h *Handler) streamWriteLoop(w http.ResponseWriter, r *http.Request, rc *http.ResponseController, items <-chan streamItem, dead chan<- struct{}, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(w, 32<<10)
	failed := false

	writeResult := func(res *wire.BatchResult) {
		bp := getBuf()
		defer putBuf(bp)
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
		h.metrics.AddBytesOut(n)
		if werr != nil {
			failed = true
			close(dead)
		}
	}

	for {
		var it streamItem
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
		if it.fut != nil {
			resp, err := it.fut.Wait(r.Context())
			it.res = h.result(resp, err, it.req)
		}
		if !failed {
			writeResult(&it.res)
		}
	}
	if !failed {
		if err := bw.Flush(); err == nil {
			_ = rc.Flush()
		}
	}
}
