package server

import (
	"testing"

	"repro/internal/machine/hw"
	"repro/internal/mitigation"
)

// HandleWith must splice the caller's mitigation state in for exactly
// one request: the caller's state accumulates the request's misses and
// the server's own persistent state stays untouched.

func TestHandleWithUsesCallerState(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	srv, err := New(p, r, Options{Env: hw.NewPartitioned(r.Lat, hw.Table1Config())})
	if err != nil {
		t.Fatal(err)
	}
	mine := mitigation.NewState(r.Lat, nil, mitigation.PerLevel)

	// A large secret forces a misprediction on the first epoch.
	if _, err := srv.HandleWith(ctxb(), setH(63), mine); err != nil {
		t.Fatal(err)
	}
	if mine.TotalMisses() == 0 {
		t.Error("caller state must accumulate the request's misses")
	}
	if got := srv.MitigationState().TotalMisses(); got != 0 {
		t.Errorf("server's persistent state must stay untouched, got %d misses", got)
	}

	// A nil state selects the server's own, preserving Handle semantics.
	if _, err := srv.HandleWith(ctxb(), setH(63), nil); err != nil {
		t.Fatal(err)
	}
	if srv.MitigationState().TotalMisses() == 0 {
		t.Error("nil state must fall back to the server's persistent state")
	}
}

// Two states driven through the same server must evolve independently
// and identically to two serial servers — per-tenant epochs do not
// interfere even on shared hardware.
func TestHandleWithStatesAreIndependent(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	srv, err := New(p, r, Options{Env: hw.NewPartitioned(r.Lat, hw.Table1Config())})
	if err != nil {
		t.Fatal(err)
	}
	a := mitigation.NewState(r.Lat, nil, mitigation.PerLevel)
	b := mitigation.NewState(r.Lat, nil, mitigation.PerLevel)

	ref, err := New(p, r, Options{Env: hw.NewPartitioned(r.Lat, hw.Table1Config())})
	if err != nil {
		t.Fatal(err)
	}

	// Interleave: a sees big secrets (mispredicts), b sees zero
	// (settles immediately). The reference server runs only a's
	// sequence.
	for i := 0; i < 4; i++ {
		if _, err := srv.HandleWith(ctxb(), setH(63), a); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.HandleWith(ctxb(), setH(0), b); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Handle(ctxb(), setH(63)); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Equal(ref.MitigationState()) {
		t.Error("interleaved state a must match a serial server over a's subsequence")
	}
	if b.TotalMisses() >= a.TotalMisses() {
		t.Errorf("independent states must diverge: a=%d misses, b=%d", a.TotalMisses(), b.TotalMisses())
	}
}

// The pool's HandleWith must deliver the override to
// whichever shard serves the request.
func TestPoolHandleWithThreadsState(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	pool, err := NewPool(p, r, PoolOptions{
		Options: Options{Env: hw.NewPartitioned(r.Lat, hw.Table1Config())},
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	mine := mitigation.NewState(r.Lat, nil, mitigation.PerLevel)
	for i := 0; i < 3; i++ {
		if _, err := pool.HandleWith(ctxb(), setH(63), mine); err != nil {
			t.Fatal(err)
		}
	}
	if mine.TotalMisses() == 0 {
		t.Error("session state must accumulate misses across shards")
	}
	for i := 0; i < pool.Workers(); i++ {
		if got := pool.Shard(i).MitigationState().TotalMisses(); got != 0 {
			t.Errorf("shard %d persistent state must stay untouched, got %d misses", i, got)
		}
	}
}
