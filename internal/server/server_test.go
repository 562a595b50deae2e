package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

func buildProg(t *testing.T, src string) (*ast.Program, *types.Result) {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := types.Check(p, lattice.TwoPoint())
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

const echoSrc = `
var h : H;
var reply : L;
mitigate (1, H) [L,L] {
    sleep(h % 64) [H,H];
}
reply := 1;
`

func setH(h int64) Request {
	return func(m *mem.Memory) { m.Set("h", h) }
}

func ctxb() context.Context { return context.Background() }

func TestServerRequiresEnv(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	_, err := New(p, r, Options{})
	if !errors.Is(err, ErrNoEnv) {
		t.Errorf("New without Env = %v, want ErrNoEnv", err)
	}
}

func TestServerRejectsBadOptions(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	lat := r.Lat
	_, err := New(p, r, Options{Env: hw.NewFlat(lat, 2), Limits: exec.Limits{MaxSteps: -1}})
	if !errors.Is(err, ErrBadOptions) {
		t.Errorf("New with negative step budget = %v, want ErrBadOptions", err)
	}
}

func TestServerSettlesAndStaysConstant(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	lat := r.Lat
	srv, err := New(p, r, Options{Env: hw.NewPartitioned(lat, hw.Table1Config())})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, setH(int64(i*13)%64))
	}
	resps, err := srv.HandleAll(ctxb(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	settled := SettledAfter(resps)
	if settled < 0 {
		t.Fatal("server never settled")
	}
	if settled > 10 {
		t.Errorf("settled only after %d requests", settled)
	}
	// After settling, every request takes the same time — regardless of
	// the secret — because the persistent schedule covers them all.
	base := resps[len(resps)-1].Time
	for _, resp := range resps[settled+5:] {
		if resp.Time != base {
			t.Errorf("post-settlement time varies: request %d took %d, want %d",
				resp.Index, resp.Time, base)
		}
	}
	if srv.Served() != 40 {
		t.Errorf("Served = %d", srv.Served())
	}
}

func TestServerMissCountersPersist(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	lat := r.Lat
	srv, err := New(p, r, Options{Env: hw.NewFlat(lat, 2)})
	if err != nil {
		t.Fatal(err)
	}
	// First request with a big secret inflates the schedule...
	first, err := srv.Handle(ctxb(), setH(63))
	if err != nil {
		t.Fatal(err)
	}
	if first.Mispredictions == 0 {
		t.Fatal("first request should mispredict (init estimate is 1)")
	}
	missesAfterFirst := srv.MitigationState().TotalMisses()
	// ...so an identical later request does not mispredict at all.
	second, err := srv.Handle(ctxb(), setH(63))
	if err != nil {
		t.Fatal(err)
	}
	if second.Mispredictions != 0 {
		t.Error("second identical request should be covered")
	}
	if srv.MitigationState().TotalMisses() != missesAfterFirst {
		t.Error("miss counters should not grow on covered requests")
	}
}

func TestServerTotalLeakageBounded(t *testing.T) {
	// Across a whole request sequence with adversarially spread
	// secrets, the number of distinct response times stays
	// logarithmic: one per schedule step, not one per secret.
	p, r := buildProg(t, echoSrc)
	lat := r.Lat
	srv, err := New(p, r, Options{Env: hw.NewFlat(lat, 2)})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		resp, err := srv.Handle(ctxb(), setH(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		distinct[resp.Time] = true
	}
	// 64 distinct secrets; schedule values are ≤ log2(maxTime) many.
	if len(distinct) > 10 {
		t.Errorf("%d distinct response times across 64 secrets; expected few schedule steps",
			len(distinct))
	}
}

func TestServerUnmitigatedLeaksEachSecret(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	lat := r.Lat
	srv, err := New(p, r, Options{Env: hw.NewFlat(lat, 2), DisableMitigation: true})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		resp, err := srv.Handle(ctxb(), setH(int64(i*3)))
		if err != nil {
			t.Fatal(err)
		}
		distinct[resp.Time] = true
	}
	if len(distinct) < 16 {
		t.Errorf("unmitigated server should leak every secret: %d distinct", len(distinct))
	}
}

func TestServerStepBudgetExceeded(t *testing.T) {
	p, r := buildProg(t, `
var i : L;
i := 0;
while (i < 100000) {
    i := i + 1;
}
`)
	lat := r.Lat
	srv, err := New(p, r, Options{Env: hw.NewFlat(lat, 2), Limits: exec.Limits{MaxSteps: 100}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.Handle(ctxb(), nil)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Handle over step budget = %v, want ErrBudgetExceeded", err)
	}
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not a *RequestError", err)
	}
	if re.Index != 0 {
		t.Errorf("RequestError.Index = %d, want 0", re.Index)
	}
	if srv.Served() != 0 {
		t.Errorf("failed request counted as served: %d", srv.Served())
	}
}

func TestServerCycleBudgetExceeded(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	lat := r.Lat
	srv, err := New(p, r, Options{Env: hw.NewFlat(lat, 2), Limits: exec.Limits{MaxCycles: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Handle(ctxb(), setH(63)); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Handle over cycle budget = %v, want ErrBudgetExceeded", err)
	}
}

func TestServerContextDeadline(t *testing.T) {
	// A long-running request aborts cleanly at the deadline with a
	// typed error, and the aborted run does not perturb the persistent
	// mitigation state.
	p, r := buildProg(t, `
var i : L;
i := 0;
while (i < 100000000) {
    i := i + 1;
}
`)
	lat := r.Lat
	srv, err := New(p, r, Options{Env: hw.NewFlat(lat, 2), Limits: exec.Limits{MaxSteps: 1 << 60}})
	if err != nil {
		t.Fatal(err)
	}
	before := srv.MitigationState().Clone()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = srv.Handle(ctx, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Handle past deadline = %v, want context.DeadlineExceeded", err)
	}
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not a *RequestError", err)
	}
	if !srv.MitigationState().Equal(before) {
		t.Error("aborted request mutated persistent mitigation state")
	}
}

func TestServerContextAlreadyCanceled(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	lat := r.Lat
	srv, err := New(p, r, Options{Env: hw.NewFlat(lat, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Handle(ctx, setH(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Handle with canceled ctx = %v, want context.Canceled", err)
	}
}

func TestServerSnapshotMetrics(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	lat := r.Lat
	srv, err := New(p, r, Options{Env: hw.NewPartitioned(lat, hw.Table1Config())})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := srv.Handle(ctxb(), setH(int64(i*7)%64)); err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.Snapshot()
	if snap.Requests != 8 {
		t.Errorf("snapshot requests = %d, want 8", snap.Requests)
	}
	if snap.Mitigations != 8 {
		t.Errorf("snapshot mitigations = %d, want 8", snap.Mitigations)
	}
	if snap.Mispredictions == 0 {
		t.Error("expected at least one misprediction while settling")
	}
	if snap.PaddingCycles == 0 {
		t.Error("expected padding cycles under mitigation")
	}
	if snap.UsefulCycles() == 0 || snap.UsefulCycles() >= snap.Cycles {
		t.Errorf("useful cycles = %d of %d, want a proper share", snap.UsefulCycles(), snap.Cycles)
	}
	if snap.Steps == 0 {
		t.Error("expected steps to be recorded")
	}
	if snap.Latency.Count != 8 {
		t.Errorf("latency count = %d, want 8", snap.Latency.Count)
	}
	if snap.HW.L1DHits+snap.HW.L1DMisses == 0 {
		t.Error("expected data-cache traffic in hardware stats")
	}
	if rate := snap.HW.L1DHitRate(); rate < 0 || rate > 1 {
		t.Errorf("L1D hit rate = %f out of range", rate)
	}
	if snap.String() == "" {
		t.Error("snapshot rendering is empty")
	}
}

func TestSettledAfterEdgeCases(t *testing.T) {
	if got := SettledAfter(nil); got != 0 {
		t.Errorf("empty = %d", got)
	}
	if got := SettledAfter([]*Response{}); got != 0 {
		t.Errorf("empty non-nil = %d", got)
	}
	// Single request.
	if got := SettledAfter([]*Response{{}}); got != 0 {
		t.Errorf("single clean = %d", got)
	}
	if got := SettledAfter([]*Response{{Mispredictions: 1}}); got != -1 {
		t.Errorf("single miss = %d", got)
	}
	clean := []*Response{{}, {}}
	if got := SettledAfter(clean); got != 0 {
		t.Errorf("clean = %d", got)
	}
	tailMiss := []*Response{{}, {Mispredictions: 1}}
	if got := SettledAfter(tailMiss); got != -1 {
		t.Errorf("tail miss = %d", got)
	}
	// Every request mispredicts: the tail never settles.
	allMiss := []*Response{{Mispredictions: 1}, {Mispredictions: 2}, {Mispredictions: 1}}
	if got := SettledAfter(allMiss); got != -1 {
		t.Errorf("all missing = %d", got)
	}
	midMiss := []*Response{{Mispredictions: 2}, {}}
	if got := SettledAfter(midMiss); got != 1 {
		t.Errorf("mid miss = %d", got)
	}
}

func TestTimesHelper(t *testing.T) {
	resps := []*Response{{Time: 5}, {Time: 9}}
	ts := Times(resps)
	if len(ts) != 2 || ts[0] != 5 || ts[1] != 9 {
		t.Errorf("Times = %v", ts)
	}
}
