package main

import (
	"context"
	"net/http"
	"strings"
	"testing"
)

const testSeed = 3

// served drives a short fixed-rate phase of the named workload through
// the in-process stack (traced when tr is non-nil) and returns the
// oracle, the target and the first item of the phase.
func served(t *testing.T, name string, n int, tr *tracer) (*oracle, *target) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := loadProgram("..", w.program)
	if err != nil {
		t.Fatal(err)
	}
	engine := "vm"
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		engine, wrap = tr.engine, tr.wrap
	}
	s, err := startStack(p, w, engine, wrap)
	if err != nil {
		t.Fatal(err)
	}
	tg := newTarget(w, testSeed, "http://"+s.addr)
	tg.tracing = tr != nil
	tg.openLoop(context.Background(), 0, n)
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}
	if tg.fails != 0 {
		t.Fatalf("%s: %d failed items: %v", name, tg.fails, tg.failErrs)
	}
	return &oracle{w: w, p: p, seed: testSeed}, tg
}

func TestReplayAcceptsServedResponses(t *testing.T) {
	for _, c := range []struct {
		name  string
		sends int
	}{{"login-stream", 60}, {"tenant-batch", 10}} {
		o, tg := served(t, c.name, c.sends, nil)
		res := o.check(tg.recs)
		if res.bad != 0 {
			t.Errorf("%s: %d bad responses: %v", c.name, res.bad, res.errs)
		}
		if res.checked != c.sends*o.w.batch || res.replayed != res.checked {
			t.Errorf("%s: checked %d, replayed %d, want %d of each", c.name, res.checked, res.replayed, c.sends*o.w.batch)
		}
	}
}

func TestReplayCatchesPlantedTimeMismatch(t *testing.T) {
	o, tg := served(t, "login-stream", 100, nil)
	recs := append([]record(nil), tg.recs...)
	recs[57].time++
	res := o.check(recs)
	if res.bad != 1 || !strings.Contains(res.errs[0], "tree engine") {
		t.Errorf("planted time mismatch: %d bad, %v", res.bad, res.errs)
	}
}

func TestTenantChecksCatchPlantedErrors(t *testing.T) {
	o, tg := served(t, "tenant-batch", 20, nil)
	if o.check(tg.recs).bad != 0 {
		t.Fatal("clean tenant traffic fails the check")
	}
	// A tenant seen more than once gives an epoch chain to break.
	seen := map[int32]int{}
	pick := -1
	for i, r := range tg.recs {
		if r.epoch == 2 {
			if _, ok := seen[r.tenant]; ok {
				pick = i
				break
			}
		}
		seen[r.tenant] = i
	}
	if pick < 0 {
		t.Fatal("no tenant reached epoch 2; the population is too large for the test")
	}

	leak := append([]record(nil), tg.recs...)
	leak[pick].leak += 0.5
	if res := o.check(leak); res.bad != 1 || !strings.Contains(res.errs[0], "§7") {
		t.Errorf("planted leakage mismatch: %d bad, %v", res.bad, res.errs)
	}

	epoch := append([]record(nil), tg.recs...)
	epoch[pick].epoch = 3
	if res := o.check(epoch); res.bad == 0 {
		t.Error("planted epoch skip passed the check")
	}
}

func TestReplayStopsAtPrefix(t *testing.T) {
	o, tg := served(t, "login-stream", 40, nil)
	w := *o.w
	w.replayPrefix = 5
	o.w = &w
	res := o.check(tg.recs)
	if res.bad != 0 || res.replayed != 5*workers || res.checked != 40 {
		t.Errorf("prefix 5: checked %d, replayed %d, bad %d", res.checked, res.replayed, res.bad)
	}
}

func TestTracedSpansLinkAndSum(t *testing.T) {
	for _, c := range []struct {
		name  string
		sends int
	}{{"login-stream", 60}, {"tenant-batch", 10}} {
		tr, err := newTracer()
		if err != nil {
			t.Fatal(err)
		}
		o, tg := served(t, c.name, c.sends, tr)
		b := tr.analyse(o.w, tg.spans, tg.recs, 0, 100, 100)
		if b.sends != c.sends || b.unlinked != 0 || b.unnested != 0 {
			t.Errorf("%s: %+v", c.name, b)
		}
		if b.clientSelf <= 0 || b.execSelf <= 0 || b.clientUs < b.execSelf {
			t.Errorf("%s: implausible split %+v", c.name, b)
		}
	}
}

// TestSimulatedProbesRepeat checks that the simulated per-layer counts
// are a function of the seed alone.
func TestSimulatedProbesRepeat(t *testing.T) {
	for _, w := range workloads {
		p, err := loadProgram("..", w.program)
		if err != nil {
			t.Fatal(err)
		}
		a, err := probeExec(w, p, testSeed, 300)
		if err != nil {
			t.Fatal(err)
		}
		b, err := probeExec(w, p, testSeed, 300)
		if err != nil {
			t.Fatal(err)
		}
		a.runUs, b.runUs = 0, 0
		if a != b {
			t.Errorf("%s: probe differs between runs: %+v vs %+v", w.name, a, b)
		}
		if a.stepsPerReq == 0 {
			t.Errorf("%s: no steps recorded", w.name)
		}
		s1, err := probeSessions(w, p, testSeed, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := probeSessions(w, p, testSeed, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s1.hitRatio != s2.hitRatio || s1.evictedPerK != s2.evictedPerK {
			t.Errorf("%s: session counts differ: %+v vs %+v", w.name, s1, s2)
		}
	}
}

func TestWireProbeMeasures(t *testing.T) {
	for _, c := range []struct {
		name  string
		sends int
	}{{"login-stream", 20}, {"tenant-batch", 4}} {
		o, tg := served(t, c.name, c.sends, nil)
		reqs, resps, err := wireMessages(o.w, testSeed, tg.recs, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != c.sends || len(resps) != c.sends {
			t.Fatalf("%s: %d requests, %d responses rebuilt, want %d", c.name, len(reqs), len(resps), c.sends)
		}
		st, err := probeWire(o.w, reqs, resps, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.decodeNs <= 0 || st.encodeNs <= 0 {
			t.Errorf("%s: %+v", c.name, st)
		}
	}
}
