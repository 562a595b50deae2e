package client

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"

	"repro/internal/transport/wire"
	"repro/internal/transport/wire/fastjson"
)

// Stream is a live /v1/stream connection: NDJSON requests pipelined to
// the service, results read back in submission order. Send and Recv may
// run concurrently (one producer goroutine, one consumer goroutine is
// the intended shape); neither blocks the other, so a caller can keep
// the window full while draining results.
//
// The protocol mirrors the batch endpoint unrolled over time: every
// Send is answered by exactly one Recv result — {Response: ...} on
// success, {Error: ...} for a per-item failure (use Err to map it) —
// until either the client calls CloseSend and drains the remaining
// results to io.EOF, or the service ends the stream after a terminal
// error line (malformed request, shutdown drain).
type Stream struct {
	c    *Client
	pw   *io.PipeWriter
	resp *http.Response
	sc   *bufio.Scanner

	sendMu sync.Mutex
	recvMu sync.Mutex
	closed bool
}

// Stream opens a streaming connection. The context governs the whole
// stream's lifetime: canceling it tears the connection down.
func (c *Client) Stream(ctx context.Context) (*Stream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/stream", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// The service commits response headers before reading the first
	// line, so Do returns as soon as the stream is accepted.
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		pw.Close()
		bp := wire.GetBuf()
		b, _ := readBody(resp.Body, (*bp)[:0])
		*bp = b[:0]
		resp.Body.Close()
		err := c.decodeError(resp.StatusCode, b)
		wire.PutBuf(bp)
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), wire.MaxPooledBuf)
	return &Stream{c: c, pw: pw, resp: resp, sc: sc}, nil
}

// Send pipelines one request onto the stream. The client-level default
// tenant applies as in Run. Send does not wait for the result; pair it
// with a Recv.
func (s *Stream) Send(req wire.RunRequest) error {
	req = s.c.tenanted(req)
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	b, err := fastjson.AppendRunRequest((*bp)[:0], &req)
	*bp = b[:0]
	if err != nil {
		return err
	}
	b = append(b, '\n')
	*bp = b[:0]
	_, err = s.pw.Write(b)
	return err
}

// Recv reads the next result line. It returns io.EOF once the service
// has answered everything sent before CloseSend.
func (s *Stream) Recv() (*wire.BatchResult, error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	for {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		line := s.sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		res := &wire.BatchResult{}
		if err := fastjson.DecodeBatchResult(line, res, false); err != nil {
			return nil, err
		}
		return res, nil
	}
}

// CloseSend ends the request side of the stream. The service answers
// everything already pipelined, then closes its side, after which Recv
// returns io.EOF.
func (s *Stream) CloseSend() error {
	return s.pw.Close()
}

// Close releases the stream. It drains any unread response bytes so
// the connection returns to the keep-alive pool, then closes the body.
// Safe after CloseSend, and idempotent.
func (s *Stream) Close() error {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.pw.Close()
	io.Copy(io.Discard, s.resp.Body)
	return s.resp.Body.Close()
}
