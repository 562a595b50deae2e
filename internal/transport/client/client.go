// Package client is the Go SDK for the mitigation service's HTTP API.
// It speaks the versioned wire schema (internal/transport/wire), maps
// wire errors back onto typed sentinels that mirror the server-side
// taxonomy (ErrOverloaded, ErrBudgetExceeded, ...), and transparently
// retries overload rejections with exponential backoff and seeded
// jitter, so a client's retry schedule replays exactly under a fixed
// seed.
//
// Run sends one request, RunBatch one fixed burst, and Stream pipelines
// any number of requests over one connection, which is the way to
// batch requests that arrive over time. These hot paths encode and
// decode with the zero-allocation fastjson codec and read every
// response body to EOF into a pooled buffer before closing it, so
// connections always return to the keep-alive pool.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/splitmix"
	"repro/internal/transport/wire"
	"repro/internal/transport/wire/fastjson"
)

// Typed sentinels mirroring the service's error taxonomy. Wire errors
// unwrap to these, so callers use errors.Is exactly as they would
// against the in-process server package.
var (
	// ErrOverloaded: the service shed the request (mirrors
	// server.ErrOverloaded). Retried automatically when MaxRetries > 0.
	ErrOverloaded = errors.New("client: service overloaded")
	// ErrShuttingDown: the service is draining (mirrors
	// server.ErrPoolClosed). Never self-retried: a draining service
	// will not come back on this endpoint.
	ErrShuttingDown = errors.New("client: service shutting down")
	// ErrBudgetExceeded: the run exhausted the server-side step or
	// cycle budget (mirrors server.ErrBudgetExceeded).
	ErrBudgetExceeded = errors.New("client: execution budget exceeded")
	// ErrLeakageBudget: the tenant's cumulative leakage bound reached
	// the server's budget (mirrors session.ErrBudgetExceeded). Never
	// self-retried — the account only resets when the session expires,
	// so honor Error.RetryAfter instead of hammering the endpoint.
	ErrLeakageBudget = errors.New("client: tenant leakage budget exceeded")
	// ErrInvalidRequest: the service rejected the request as malformed
	// (bad JSON, unknown input name, wrong schema version).
	ErrInvalidRequest = errors.New("client: invalid request")
)

// Error is a failure reported by the service: the wire error plus its
// HTTP status. It unwraps to the matching sentinel above.
type Error struct {
	// Status is the HTTP status the service answered with.
	Status int
	// Code and Message are the wire error fields.
	Code    string
	Message string
	// RetryAfter is the service-advertised backoff, when given.
	RetryAfter time.Duration
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("client: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// Unwrap maps the stable wire code onto the package sentinels.
func (e *Error) Unwrap() error {
	switch e.Code {
	case wire.CodeOverloaded:
		return ErrOverloaded
	case wire.CodeShuttingDown:
		return ErrShuttingDown
	case wire.CodeBudgetExceeded:
		return ErrBudgetExceeded
	case wire.CodeLeakageBudget:
		return ErrLeakageBudget
	case wire.CodeInvalidRequest, wire.CodeUnknownInput:
		return ErrInvalidRequest
	case wire.CodeDeadlineExceeded:
		return context.DeadlineExceeded
	case wire.CodeCanceled:
		return context.Canceled
	default:
		return nil
	}
}

// Options configure a Client.
type Options struct {
	// HTTPClient issues the requests. When nil, the client builds its
	// own from http.DefaultTransport with the idle connection pool sized
	// to Concurrency, so a fan-out workload reuses keep-alive
	// connections instead of redialing. Deadlines come from the per-call
	// context, not from here.
	HTTPClient *http.Client
	// Concurrency is the expected number of in-flight requests; it
	// sizes MaxIdleConnsPerHost on the default transport (ignored when
	// HTTPClient is set). Default 16.
	Concurrency int
	// MaxRetries, when positive, transparently re-issues a request
	// rejected with ErrOverloaded up to this many extra attempts, with
	// exponential backoff and deterministic jitter between attempts.
	// It is the only retry on the service path: the pool does not
	// re-submit.
	MaxRetries int
	// RetryBase is the first backoff delay; it doubles each attempt
	// (capped at 100ms) with jitter in [delay/2, delay]. Default 1ms.
	RetryBase time.Duration
	// RetrySeed seeds the deterministic jitter sequence.
	RetrySeed int64
	// Tenant, when set, is the session every request runs under unless
	// the request names its own tenant: Run, RunBatch, and Stream.Send
	// fill RunRequest.Tenant with it when the field is empty. Sessions
	// are a schema-v2 feature; leave empty for anonymous (v1-style)
	// calls.
	Tenant string
}

// Client talks to one mitigation service endpoint. Safe for concurrent
// use.
type Client struct {
	base string
	opts Options
	// retrySeq numbers backoff sleeps so jitter is a deterministic
	// function of (RetrySeed, sequence number).
	retrySeq atomic.Uint64
	// sleep parks between retry attempts; swapped out by tests to
	// observe the deterministic delay sequence without waiting it out.
	sleep func(ctx context.Context, d time.Duration) bool
}

// New builds a client for a base URL like "http://127.0.0.1:8080".
func New(baseURL string, opts Options) *Client {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 16
	}
	if opts.HTTPClient == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = opts.Concurrency
		if tr.MaxIdleConns < opts.Concurrency {
			tr.MaxIdleConns = opts.Concurrency
		}
		opts.HTTPClient = &http.Client{Transport: tr}
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = time.Millisecond
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), opts: opts}
	c.sleep = c.timerSleep
	return c
}

// Run executes one request via the run endpoint and returns its timing
// result.
func (c *Client) Run(ctx context.Context, req wire.RunRequest) (*wire.RunResponse, error) {
	req = c.tenanted(req)
	var out wire.RunResponse
	err := c.postRetry(ctx, "/v1/run",
		func(dst []byte) ([]byte, error) { return fastjson.AppendRunRequest(dst, &req) },
		func(data []byte) error {
			out = wire.RunResponse{}
			return fastjson.DecodeRunResponse(data, &out, false)
		})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// tenanted applies the client-level default tenant to a request that
// does not name its own.
func (c *Client) tenanted(req wire.RunRequest) wire.RunRequest {
	if req.Tenant == "" {
		req.Tenant = c.opts.Tenant
	}
	return req
}

// RunBatch executes a request burst via the batch endpoint. The batch
// call itself is retried on overload (the whole burst was rejected);
// per-item failures inside an accepted batch are reported in the
// results, not retried.
func (c *Client) RunBatch(ctx context.Context, reqs []wire.RunRequest) (*wire.BatchResponse, error) {
	tenanted := make([]wire.RunRequest, len(reqs))
	for i, r := range reqs {
		tenanted[i] = c.tenanted(r)
	}
	breq := wire.BatchRequest{Requests: tenanted}
	var out wire.BatchResponse
	err := c.postRetry(ctx, "/v1/batch",
		func(dst []byte) ([]byte, error) { return fastjson.AppendBatchRequest(dst, &breq) },
		func(data []byte) error {
			out = wire.BatchResponse{}
			return fastjson.DecodeBatchResponse(data, &out, false)
		})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Err converts a batch item into an error (nil for successful items),
// using the same mapping as top-level failures.
func Err(res wire.BatchResult) error {
	if res.Error == nil {
		return nil
	}
	return &Error{
		Status:     0, // item errors ride inside a 200 batch
		Code:       res.Error.Code,
		Message:    res.Error.Message,
		RetryAfter: time.Duration(res.Error.RetryAfterMS) * time.Millisecond,
	}
}

// Metrics fetches the service metrics in the stable export schema.
func (c *Client) Metrics(ctx context.Context) (*obs.Export, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	var out obs.Export
	if err := c.do(req, func(data []byte) error { return json.Unmarshal(data, &out) }); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches the service health.
func (c *Client) Health(ctx context.Context) (*wire.Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return nil, err
	}
	var out wire.Health
	if err := c.do(req, func(data []byte) error { return json.Unmarshal(data, &out) }); err != nil {
		return nil, err
	}
	return &out, nil
}

// postRetry issues a POST, retrying overload rejections per Options.
// The decode callback must reset its destination: it can run once per
// attempt.
func (c *Client) postRetry(ctx context.Context, path string, encode func([]byte) ([]byte, error), decode func([]byte) error) error {
	err := c.post(ctx, path, encode, decode)
	for attempt := 1; err != nil && attempt <= c.opts.MaxRetries; attempt++ {
		if !errors.Is(err, ErrOverloaded) || ctx.Err() != nil {
			break
		}
		if !c.sleep(ctx, c.backoff(attempt)) {
			break
		}
		err = c.post(ctx, path, encode, decode)
	}
	return err
}

// backoff computes attempt n's delay: exponential from RetryBase,
// capped at 100ms, with deterministic jitter in [delay/2, delay] drawn
// from the splitmix.Mix64 stream, so a retry schedule replays exactly
// under a fixed seed.
func (c *Client) backoff(attempt int) time.Duration {
	const maxDelay = 100 * time.Millisecond
	d := c.opts.RetryBase
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	frac := float64(splitmix.Mix64(uint64(c.opts.RetrySeed), c.retrySeq.Add(1))>>11) / float64(1<<53)
	return d/2 + time.Duration(frac*float64(d/2))
}

func (c *Client) timerSleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// post issues one POST, encoding the body into a pooled buffer and
// decoding the response or error envelope.
func (c *Client) post(ctx context.Context, path string, encode func([]byte) ([]byte, error), decode func([]byte) error) error {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	b, err := encode((*bp)[:0])
	*bp = b[:0]
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, decode)
}

// do executes a prepared request. The response body is always read to
// EOF into a pooled buffer and closed — on success, failure, and decode
// error alike — so the underlying connection re-enters the keep-alive
// pool instead of being torn down. Non-2xx responses decode the error
// envelope into a typed *Error.
func (c *Client) do(req *http.Request, decode func([]byte) error) error {
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	b, rerr := readBody(resp.Body, (*bp)[:0])
	*bp = b[:0]
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		// A malformed error body (a proxy's 502 page) still surfaces as
		// a typed error; a body read error is secondary to the status.
		return c.decodeError(resp.StatusCode, b)
	}
	if rerr != nil {
		return rerr
	}
	return decode(b)
}

// maxErrorBody bounds how much of a failure response is retained for
// the error message.
const maxErrorBody = 1 << 20

// readBody reads r to EOF into buf, growing it as needed.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeError turns a non-2xx response body into a typed error,
// surviving non-JSON bodies with CodeInternal.
func (c *Client) decodeError(status int, body []byte) error {
	cerr := &Error{Status: status, Code: wire.CodeInternal}
	if len(body) > maxErrorBody {
		body = body[:maxErrorBody]
	}
	var werr wire.Error
	if err := fastjson.DecodeErrorEnvelope(body, &werr, false); err == nil && werr.Code != "" {
		cerr.Code = werr.Code
		cerr.Message = werr.Message
		cerr.RetryAfter = time.Duration(werr.RetryAfterMS) * time.Millisecond
	} else {
		cerr.Message = strings.TrimSpace(string(body))
	}
	return cerr
}
