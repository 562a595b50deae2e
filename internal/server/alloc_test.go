package server

import (
	"context"
	"os"
	"reflect"
	"testing"

	"repro/internal/machine/hw"
	"repro/internal/sem/events"
	"repro/internal/sem/mem"
)

// Allocation budgets for the vm-engine hot path, in allocations per
// request. These pin the zero-copy and pooling work (recycled result
// channels, Response values and run buffers, and the Future that
// Submit returns by value): a change that silently adds per-request
// allocations fails here rather than rotting until the next benchmark
// run. The measured steady state is 0 for Handle and Server.Handle,
// and two allocations per burst (the returned responses and the
// futures, 2/32 per request) for HandleAll. testing.AllocsPerRun
// averages in whole allocations per run, so the handful a sync.Pool
// emptied by a GC costs to refill still reads 0; the HandleAll budget
// allows 3 per burst. Under the race detector, whose sync.Pool drops
// a quarter of Puts on purpose, the pins are skipped (make allocs runs
// them without it).
const (
	handleAllocBudget    = 0
	handleAllAllocBudget = 3.0 / 32
)

// skipUnderRace skips an allocation pin under the race detector.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation pins run without the race detector")
	}
}

// newVMPool builds a single-worker vm-engine pool over the echo
// program, with queue depth covering a whole burst.
func newVMPool(t *testing.T, depth int) *Pool {
	t.Helper()
	p, r := buildProg(t, echoSrc)
	lat := r.Lat
	pool, err := NewPool(p, r, PoolOptions{
		Workers:    1,
		QueueDepth: depth,
		Options: Options{
			Env:    hw.MustEnv("partitioned", lat, hw.Table1Config()),
			Engine: "vm",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestPoolHandleAllocBudget(t *testing.T) {
	skipUnderRace(t)
	pool := newVMPool(t, 4)
	defer pool.Close()
	ctx := context.Background()
	req := setH(7)
	// Warm the pools (result channels, responses, the VM's scratch).
	for i := 0; i < 32; i++ {
		resp, err := pool.Handle(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseResponse(resp)
	}
	avg := testing.AllocsPerRun(200, func() {
		resp, err := pool.Handle(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseResponse(resp)
	})
	t.Logf("Handle: %.2f allocs/request (budget %d)", avg, handleAllocBudget)
	if avg > handleAllocBudget {
		t.Errorf("Handle allocates %.2f per request, budget %d — hot-path pooling regressed",
			avg, handleAllocBudget)
	}
}

func TestPoolHandleAllAllocBudget(t *testing.T) {
	skipUnderRace(t)
	const nreq = 32
	pool := newVMPool(t, nreq)
	defer pool.Close()
	ctx := context.Background()
	reqs := make([]Request, nreq)
	for i := range reqs {
		reqs[i] = setH(int64(i % 64))
	}
	burst := func() {
		resps, err := pool.HandleAll(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resps {
			ReleaseResponse(r)
		}
	}
	for i := 0; i < 8; i++ {
		burst() // warm the result channels and responses
	}
	avg := testing.AllocsPerRun(50, burst) / nreq
	t.Logf("HandleAll: %.3f allocs/request (budget %.3f)", avg, handleAllAllocBudget)
	if avg > handleAllAllocBudget {
		t.Errorf("HandleAll allocates %.3f per request, budget %.3f — per-request pooling regressed",
			avg, handleAllAllocBudget)
	}
}

// newLoginServer serves testdata/login.tc on the vm engine over a
// fresh partitioned environment.
func newLoginServer(t *testing.T) *Server {
	t.Helper()
	src, err := os.ReadFile("../../testdata/login.tc")
	if err != nil {
		t.Fatal(err)
	}
	p, r := buildProg(t, string(src))
	srv, err := New(p, r, Options{
		Env:    hw.MustEnv("partitioned", r.Lat, hw.Table1Config()),
		Engine: "vm",
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// loginAttempts is one valid login and three invalid ones: user 0
// against a non-empty table is valid (lookup hits slot 0, then 640
// verification rounds, 1,289 trace events); a non-zero user scans all
// 100 entries and stops.
func loginAttempts() []Request {
	attempt := func(user int64) Request {
		return func(m *mem.Memory) {
			m.Set("user", user)
			m.Set("nvalid", 37)
			m.Set("pred1", 500)
			m.Set("pred2", 5000)
		}
	}
	return []Request{attempt(0), attempt(11), attempt(12), attempt(13)}
}

// TestServerHandleLoginAllocs pins the run-buffer recycling: serving
// the login program on the vm engine, one valid login in four, and
// releasing each response allocates nothing in steady state. Without
// recycling every run allocated its trace and mitigation slices (3
// allocations, 50.8 KB per request).
func TestServerHandleLoginAllocs(t *testing.T) {
	skipUnderRace(t)
	srv := newLoginServer(t)
	reqs := loginAttempts()
	ctx := context.Background()
	n := 0
	serve := func() {
		resp, err := srv.Handle(ctx, reqs[n%len(reqs)])
		n++
		if err != nil {
			t.Fatal(err)
		}
		ReleaseResponse(resp)
	}
	for i := 0; i < 8; i++ {
		serve() // grow the recycled buffers to a valid login's size
	}
	avg := testing.AllocsPerRun(200, serve)
	t.Logf("Server.Handle(login.tc): %.2f allocs/request (budget %d)", avg, handleAllocBudget)
	if avg > handleAllocBudget {
		t.Errorf("Server.Handle allocates %.2f per request, budget %d — run-buffer recycling regressed",
			avg, handleAllocBudget)
	}
}

// TestRecycledRunBuffersStayPrivate serves the login program on the vm
// engine and releases every response but the first: runs that write
// into recycled buffers must report exactly the responses of a server
// that recycles nothing, and the response still held must not change.
func TestRecycledRunBuffersStayPrivate(t *testing.T) {
	srv, ref := newLoginServer(t), newLoginServer(t)
	reqs := loginAttempts()
	ctx := context.Background()
	kept, err := srv.Handle(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	keptTrace := append(events.Trace(nil), kept.Trace...)
	keptMits := append(events.MitTrace(nil), kept.Mitigations...)
	if _, err := ref.Handle(ctx, reqs[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 40; i++ {
		req := reqs[(i*3)%len(reqs)]
		got, err := srv.Handle(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Handle(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Time != want.Time || !got.Trace.Equal(want.Trace) ||
			!reflect.DeepEqual(got.Mitigations, want.Mitigations) {
			t.Fatalf("request %d: recycled-buffer response (time %d, %d events) differs from the reference (time %d, %d events)",
				i, got.Time, len(got.Trace), want.Time, len(want.Trace))
		}
		ReleaseResponse(got)
	}
	if !kept.Trace.Equal(keptTrace) || !reflect.DeepEqual(kept.Mitigations, keptMits) {
		t.Fatal("a response that was never released changed after later runs")
	}
}
