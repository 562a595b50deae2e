package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/lang/ast"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/types"
)

// stack is the serve stack built in-process from its public
// constructors, the way `timingc serve -listen` builds it.
type stack struct {
	h      *transport.Handler
	hs     *http.Server
	met    *obs.Metrics
	addr   string
	served chan error
}

// startStack serves w's program on a loopback port with the given
// engine; wrap, when non-nil, wraps the transport handler.
func startStack(p *program, w *workload, engine string, wrap func(http.Handler) http.Handler) (*stack, error) {
	env, err := p.newEnv()
	if err != nil {
		return nil, err
	}
	met := obs.NewMetrics()
	var sessions *session.Manager
	if w.sessionMax > 0 {
		sessions, err = session.NewManager(session.Options{Lat: p.lat, MaxSessions: w.sessionMax, Metrics: met})
		if err != nil {
			return nil, err
		}
	}
	pool, err := server.NewPool(p.prog, p.res, server.PoolOptions{
		Workers: workers,
		Options: server.Options{Env: env, Engine: engine, Limits: exec.Limits{MaxSteps: 10_000_000}, Metrics: met},
	})
	if err != nil {
		return nil, err
	}
	h, err := transport.New(transport.Options{Pool: pool, Prog: p.prog, Sessions: sessions})
	if err != nil {
		pool.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, err
	}
	var handler http.Handler = h
	if wrap != nil {
		handler = wrap(h)
	}
	s := &stack{h: h, hs: &http.Server{Handler: handler}, met: met, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the stack as serve does on SIGINT and waits for the
// listener goroutine to exit.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := s.h.Shutdown(ctx)
	if herr := s.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// spanKey carries an HTTP span's ID in the request context.
type spanKey struct{}

// httpSpan is the server-side interval of one HTTP request: from the
// middleware's entry until the handler starts writing the response
// body (stamping after the write could postdate the client's receipt).
// On /v1/stream it records instead, per NDJSON line, when the handler
// read it and when it handed the line's result to net/http.
type httpSpan struct {
	id         int
	start, end time.Time
	lineIn     []time.Time // written by the handler's decode loop only
	lineOut    []time.Time // written by the handler's write loop only
}

// execSpan is one engine Run on one shard; its position in the shard's
// span list is the run's shard_index.
type execSpan struct {
	parent     int // HTTP span ID from the run's context (0 = none)
	start, end time.Time
	steps      int
}

// tracer records spans in memory around the layers' public entry
// points: an http.Handler middleware around the transport, and a
// registered engine that delegates to the VM and times Run.
type tracer struct {
	engine string // registered name of the tracing engine

	mu     sync.Mutex
	ids    atomic.Int64
	spans  map[int]*httpSpan
	shards map[int]*tracedEngine
}

var tracerSeq atomic.Int64

// newTracer registers a tracing engine under a fresh name.
func newTracer() (*tracer, error) {
	tr := &tracer{spans: map[int]*httpSpan{}, shards: map[int]*tracedEngine{}}
	tr.engine = fmt.Sprintf("perfbench-traced-%d", tracerSeq.Add(1))
	err := exec.Register(tr.engine, func(prog *ast.Program, res *types.Result, env hw.Env, opts exec.Options) (exec.Engine, error) {
		inner, err := exec.NewEngine("vm", prog, res, env, opts)
		if err != nil {
			return nil, err
		}
		e := &tracedEngine{inner: inner}
		tr.mu.Lock()
		tr.shards[opts.Shard] = e
		tr.mu.Unlock()
		return e, nil
	})
	return tr, err
}

// wrap is the tracing middleware.
func (tr *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := &httpSpan{id: int(tr.ids.Add(1)), start: time.Now()}
		if r.URL.Path == "/v1/stream" {
			r.Body = &lineReader{ReadCloser: r.Body, sp: sp}
			w = &lineWriter{ResponseWriter: w, sp: sp}
		} else {
			w = &bodyWriter{ResponseWriter: w, sp: sp}
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp.id)))
		tr.mu.Lock()
		tr.spans[sp.id] = sp
		tr.mu.Unlock()
	})
}

// bodyWriter ends the span when the handler starts writing the body.
type bodyWriter struct {
	http.ResponseWriter
	sp *httpSpan
}

func (b *bodyWriter) Write(p []byte) (int, error) {
	b.sp.end = time.Now()
	return b.ResponseWriter.Write(p)
}

// lineReader stamps each request line with the time the handler read
// the chunk that completed it.
type lineReader struct {
	io.ReadCloser
	sp *httpSpan
}

func (l *lineReader) Read(p []byte) (int, error) {
	n, err := l.ReadCloser.Read(p)
	if k := bytes.Count(p[:n], []byte{'\n'}); k > 0 {
		now := time.Now()
		for ; k > 0; k-- {
			l.sp.lineIn = append(l.sp.lineIn, now)
		}
	}
	return n, err
}

// lineWriter stamps each result line with the time the handler hands it
// to net/http, the earliest it can leave. It unwraps for
// http.ResponseController, so full duplex and flushes reach the real
// writer.
type lineWriter struct {
	http.ResponseWriter
	sp *httpSpan
}

func (l *lineWriter) Write(p []byte) (int, error) {
	now := time.Now()
	for k := bytes.Count(p, []byte{'\n'}); k > 0; k-- {
		l.sp.lineOut = append(l.sp.lineOut, now)
	}
	return l.ResponseWriter.Write(p)
}

func (l *lineWriter) Unwrap() http.ResponseWriter { return l.ResponseWriter }

// tracedEngine delegates to the VM engine and records a span per
// successful Run. One pool shard owns it, so its spans need no lock.
type tracedEngine struct {
	inner exec.Engine
	spans []execSpan
}

func (e *tracedEngine) Name() string { return "vm" }

func (e *tracedEngine) Run(ctx context.Context, req exec.Request) (*exec.Result, error) {
	start := time.Now()
	res, err := e.inner.Run(ctx, req)
	end := time.Now()
	if err == nil {
		parent, _ := ctx.Value(spanKey{}).(int)
		e.spans = append(e.spans, execSpan{parent: parent, start: start, end: end, steps: res.Steps})
	}
	return res, err
}

// breakdown is the traced run's per-layer split of the blocking path of
// each send, averaged over sends (exec per item). The four self times
// are differences of nested intervals, so they add up to the client
// span exactly; the split is valid when every span links to its parent
// and lies inside it, which unlinked and unnested count.
type breakdown struct {
	sends                                       int     // client spans analysed
	unlinked                                    int     // client spans whose layers could not be linked
	unnested                                    int     // linked spans whose intervals do not nest
	clientUs                                    float64 // mean client span
	clientSelf, transportSelf, waitUs, execSelf float64
	execRunUs                                   float64 // mean engine Run per item
	nsPerStep                                   float64
}

// analyse splits each traced client span into client, transport,
// hand-off and engine time. Each item's response names its shard and
// shard_index, which index the shard's engine spans; an engine span's
// context names its HTTP span. decodeNs and admitNs are the probed
// per-send decode and per-item admission costs, taken out of the
// hand-off so that server.wait is queueing alone.
func (tr *tracer) analyse(w *workload, spans []clientSpan, recs []record, streamBase int, decodeNs, admitNs float64) breakdown {
	byItem := make(map[int]record, len(recs))
	for _, r := range recs {
		byItem[int(r.item)] = r
	}
	var b breakdown
	var sumC, sumCS, sumTS, sumW, sumE, sumRun, steps float64
	runs := 0
	for _, cs := range spans {
		b.sends++
		ex := make([]execSpan, 0, cs.n)
		for i := cs.first; i < cs.first+cs.n; i++ {
			r, ok := byItem[i]
			e := tr.shards[int(r.shard)]
			if !ok || e == nil || int(r.shardIndex) >= len(e.spans) {
				break
			}
			ex = append(ex, e.spans[r.shardIndex])
		}
		if len(ex) != cs.n {
			b.unlinked++
			continue
		}
		sp := tr.spans[ex[0].parent]
		if sp == nil {
			b.unlinked++
			continue
		}
		tStart, tEnd := sp.start, sp.end
		if w.mode == modeStream {
			j := cs.first - streamBase
			if j < 0 || j >= len(sp.lineIn) || j >= len(sp.lineOut) {
				b.unlinked++
				continue
			}
			tStart, tEnd = sp.lineIn[j], sp.lineOut[j]
		}
		sort.Slice(ex, func(a, c int) bool { return ex[a].start.Before(ex[c].start) })
		var execT, gaps time.Duration
		prev := tStart
		nested := !tStart.Before(cs.start) && !tEnd.After(cs.end)
		for _, e := range ex {
			if e.parent != sp.id || e.start.Before(prev) || e.end.After(tEnd) {
				nested = false
			}
			gaps += e.start.Sub(prev)
			execT += e.end.Sub(e.start)
			prev = e.end
			sumRun += float64(e.end.Sub(e.start))
			steps += float64(e.steps)
			runs++
		}
		if !nested {
			b.unnested++
		}
		c := float64(cs.end.Sub(cs.start))
		t := float64(tEnd.Sub(tStart))
		wait := float64(gaps) - decodeNs - admitNs*float64(cs.n)
		sumC += c
		sumCS += c - t
		sumW += wait
		sumE += float64(execT)
		sumTS += t - float64(execT) - wait
	}
	linked := float64(b.sends - b.unlinked)
	if linked == 0 {
		return b
	}
	us := func(ns float64) float64 { return ns / linked / 1e3 }
	b.clientUs, b.clientSelf, b.transportSelf, b.waitUs, b.execSelf = us(sumC), us(sumCS), us(sumTS), us(sumW), us(sumE)
	b.execRunUs = sumRun / float64(runs) / 1e3
	b.nsPerStep = sumRun / steps
	return b
}
