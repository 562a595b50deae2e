package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/exec"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/transport/wire"
	"repro/internal/transport/wire/fastjson"
)

// The probes time each layer's public functions directly, outside any
// server, on the workload's own traffic: a cross-check for the traced
// spans, and the source of the simulated counts, which a serial replay
// makes exactly repeatable for a seed.

// wireStats is the codec cost per message: the request body (or stream
// line) the server decodes and the response body it encodes.
type wireStats struct {
	decodeNs, encodeNs, allocsPerMsg float64
}

// wireMessages rebuilds the first n sends' wire messages from the
// recorded traffic: what the client encoded and what the server
// answered. The codec is deterministic, so these are the bytes that
// crossed the wire.
func wireMessages(w *workload, seed uint64, recs []record, n int) (reqs [][]byte, resps []any, err error) {
	byItem := make(map[int]record, len(recs))
	for _, r := range recs {
		byItem[int(r.item)] = r
	}
	items := make([]int, 0, len(byItem))
	for i := range byItem {
		items = append(items, i)
	}
	sort.Ints(items)
	for k := 0; k+w.batch <= len(items) && len(reqs) < n; k += w.batch {
		first := items[k]
		runReqs := make([]wire.RunRequest, w.batch)
		results := make([]wire.BatchResult, w.batch)
		for j := range runReqs {
			r, ok := byItem[first+j]
			if !ok {
				return nil, nil, fmt.Errorf("send at item %d is incomplete", first)
			}
			runReqs[j] = w.request(seed, first+j)
			results[j] = wire.BatchResult{Response: &wire.RunResponse{
				SchemaVersion: wire.SchemaVersion, Index: int(r.index), Shard: int(r.shard), ShardIndex: int(r.shardIndex),
				Time: r.time, Mispredictions: int(r.mispred), Tenant: tenantName(r.tenant), Epoch: int(r.epoch), LeakageBits: r.leak,
			}}
		}
		var body []byte
		switch w.mode {
		case modeStream:
			body, err = fastjson.AppendRunRequest(nil, &runReqs[0])
			resps = append(resps, &results[0])
		case modeBatch:
			body, err = fastjson.AppendBatchRequest(nil, &wire.BatchRequest{Requests: runReqs})
			resps = append(resps, &wire.BatchResponse{SchemaVersion: wire.SchemaVersion, Results: results})
		}
		if err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, body)
	}
	return reqs, resps, nil
}

// probeWire times the server side of the codec: strict decode of every
// request message and append of every response, repeated rounds times.
func probeWire(w *workload, reqs [][]byte, resps []any, rounds int) (wireStats, error) {
	decode := func(b []byte) error {
		if w.mode == modeBatch {
			var v wire.BatchRequest
			return fastjson.DecodeBatchRequest(b, &v, true)
		}
		var v wire.RunRequest
		return fastjson.DecodeRunRequest(b, &v, true)
	}
	buf := make([]byte, 0, 64<<10)
	encode := func(v any) (err error) {
		switch v := v.(type) {
		case *wire.BatchResult:
			buf, err = fastjson.AppendBatchResult(buf[:0], v)
		case *wire.BatchResponse:
			buf, err = fastjson.AppendBatchResponse(buf[:0], v)
		}
		return err
	}
	var st wireStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range reqs {
			if err := decode(b); err != nil {
				return st, fmt.Errorf("decode probe: %w", err)
			}
		}
	}
	mid := time.Now()
	for r := 0; r < rounds; r++ {
		for _, v := range resps {
			if err := encode(v); err != nil {
				return st, fmt.Errorf("encode probe: %w", err)
			}
		}
	}
	end := time.Now()
	runtime.ReadMemStats(&after)
	msgs := float64(rounds * len(reqs))
	st.decodeNs = float64(mid.Sub(start)) / msgs
	st.encodeNs = float64(end.Sub(mid)) / msgs
	st.allocsPerMsg = float64(after.Mallocs-before.Mallocs) / msgs
	return st, nil
}

// tenantAt is the tenant the session probe admits for item i: the
// workload's own tenant, or, on workloads that send none, a tenant drawn
// as tenant-batch draws them, so the layer's cost is still measured.
func tenantAt(w *workload, seed uint64, i int) string {
	if w.sessionMax > 0 {
		return w.itemAt(seed, i).tenant
	}
	r := newRNG(seed, uint64(i))
	return genTenant(&r).tenant
}

// sessionStats is the session layer replaying the workload's tenant
// sequence.
type sessionStats struct {
	admitNs, hitRatio, evictedPerK float64
}

// probeSessions replays the first n tenants through a fresh
// session.Manager with the workload's cap: Begin then Commit per item,
// the admission path of a tenanted request. The time is the median of
// rounds replays; the counts are exact for the seed.
func probeSessions(w *workload, p *program, seed uint64, n, rounds int) (sessionStats, error) {
	max := w.sessionMax
	if max == 0 {
		max = tenantSessionMax
	}
	tenants := make([]string, n)
	for i := range tenants {
		tenants[i] = tenantAt(w, seed, i)
	}
	var st sessionStats
	times := make([]float64, rounds)
	for r := range times {
		met := obs.NewMetrics()
		m, err := session.NewManager(session.Options{Lat: p.lat, MaxSessions: max, Metrics: met})
		if err != nil {
			return st, err
		}
		start := time.Now()
		for _, t := range tenants {
			tk, err := m.Begin(t)
			if err != nil {
				return st, err
			}
			tk.Commit(100, w.mitsPerItem)
		}
		times[r] = float64(time.Since(start)) / float64(n)
		snap := met.Snapshot()
		st.hitRatio = 1 - float64(snap.SessionsCreated)/float64(n)
		st.evictedPerK = float64(snap.SessionsEvictedLRU) / float64(n) * 1000
	}
	sort.Float64s(times)
	st.admitNs = times[len(times)/2]
	return st, nil
}

// execStats is the engine replaying the workload's inputs.
type execStats struct {
	runUs, stepsPerReq, mispredPerK, paddingShare, l1dHitRate, bpHitRate float64
}

// probeExec runs the first n items through VM engines, one per shard
// with items dealt round-robin as the pool deals them, each shard with
// its own hardware state and mitigation state, and tenant items under
// their session's state. It is serial, so every simulated count is a
// function of the seed alone.
func probeExec(w *workload, p *program, seed uint64, n int) (execStats, error) {
	var st execStats
	proto, err := p.newEnv()
	if err != nil {
		return st, err
	}
	met := obs.NewMetrics()
	envs := make([]hw.Env, workers)
	engines := make([]exec.Engine, workers)
	mits := make([]*mitigation.State, workers)
	for s := range engines {
		envs[s] = proto.Clone()
		engines[s], err = exec.NewEngine("vm", p.prog, p.res, envs[s], exec.Options{Metrics: met})
		if err != nil {
			return st, err
		}
		mits[s] = mitigation.NewState(p.lat, nil, mitigation.PerLevel)
	}
	var sessions *session.Manager
	if w.sessionMax > 0 {
		if sessions, err = session.NewManager(session.Options{Lat: p.lat, MaxSessions: w.sessionMax}); err != nil {
			return st, err
		}
	}
	var wall time.Duration
	steps, mispred := 0, 0
	for i := 0; i < n; i++ {
		it := w.itemAt(seed, i)
		s := i % workers
		req := exec.Request{Setup: setupFor(it.inputs), Mit: mits[s]}
		var tk *session.Ticket
		if it.tenant != "" {
			if tk, err = sessions.Begin(it.tenant); err != nil {
				return st, err
			}
			req.Mit = tk.Mit()
		}
		start := time.Now()
		res, err := engines[s].Run(context.Background(), req)
		wall += time.Since(start)
		if err != nil {
			return st, fmt.Errorf("exec probe item %d: %w", i, err)
		}
		steps += res.Steps
		for _, m := range res.Mitigations {
			if m.Mispredicted {
				mispred++
			}
		}
		if tk != nil {
			tk.Commit(res.Clock, len(res.Mitigations))
		}
	}
	var hwStats hw.Stats
	for _, e := range envs {
		hwStats = hwStats.Add(e.Stats())
	}
	st.runUs = float64(wall) / float64(n) / 1e3
	st.stepsPerReq = float64(steps) / float64(n)
	st.mispredPerK = float64(mispred) / float64(n) * 1000
	st.paddingShare = met.Snapshot().PaddingFraction()
	st.l1dHitRate = hwStats.L1DHitRate()
	st.bpHitRate = hwStats.BPHitRate()
	return st, nil
}
