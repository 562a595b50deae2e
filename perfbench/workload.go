package main

import (
	"fmt"
	"strconv"

	"repro/internal/transport/wire"
)

// mode is how a workload talks to the service.
type mode int

const (
	modeStream mode = iota // items pipelined over one POST /v1/stream
	modeBatch              // one POST /v1/batch of several items per send
)

// workload is one traffic mix. A send is what the generator schedules:
// one stream item or one batch. Latency is timed per send;
// throughput, CPU and bytes are counted per item.
type workload struct {
	name    string
	program string // served program, relative to the repository root
	mode    mode
	// rate is the fixed-rate phase's offered load in sends per second.
	rate float64
	// batch is the number of items in one send (1 unless modeBatch).
	batch int
	// conns is the number of connections the generator uses.
	conns int
	// sessionMax, when positive, serves with -session-max and names a
	// tenant in every item.
	sessionMax int
	// mitsPerItem is the number of mitigate commands every run of the
	// program completes; the §7 check counts K with it.
	mitsPerItem int
	// replayPrefix bounds the tree-engine replay to this many responses
	// per shard; the structural and §7 checks cover every response.
	replayPrefix int
	// probeItems is how many generated items the per-layer probes replay.
	probeItems int
	gen        func(r *rng) item
}

// item is one generated request: scalar inputs and an optional tenant.
type item struct {
	inputs map[string]int64
	tenant string
}

// request is the wire request of generated item i.
func (w *workload) request(seed uint64, i int) wire.RunRequest {
	it := w.itemAt(seed, i)
	return wire.RunRequest{Inputs: it.inputs, Tenant: it.tenant}
}

// itemAt returns generated item i of the seeded input stream. Items are
// a pure function of (seed, i), so every phase, replay and probe sees
// the same inputs for the same index.
func (w *workload) itemAt(seed uint64, i int) item {
	r := newRNG(seed, uint64(i))
	return w.gen(&r)
}

const (
	loginRate  = 600
	tenantRate = 300
	// tenantSessionMax is the live-session cap of tenant-batch; tenants
	// are drawn from a population of four times as many.
	tenantSessionMax = 1024
)

var workloads = []*workload{
	{
		name:         "login-stream",
		program:      "testdata/login.tc",
		mode:         modeStream,
		rate:         loginRate,
		batch:        1,
		conns:        1,
		mitsPerItem:  2,
		replayPrefix: 1500,
		probeItems:   2000,
		gen:          genLogin,
	},
	{
		name:         "tenant-batch",
		program:      "testdata/mitigated.tc",
		mode:         modeBatch,
		rate:         tenantRate,
		batch:        64,
		conns:        2,
		sessionMax:   tenantSessionMax,
		mitsPerItem:  1,
		replayPrefix: 1 << 30,
		probeItems:   20000,
		gen:          genTenant,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// genLogin draws a login attempt against login.tc. The credential
// arrays cannot be set over the wire and stay zero, so a valid attempt
// names user 0 with a non-empty table (the lookup hits slot 0, then the
// 640-iteration verification runs), and an invalid one names a non-zero
// user (the full 100-entry scan, no verification). A quarter of the
// attempts are valid, so the latency median lies inside the invalid
// attempts' mode and the 90th percentile inside the valid ones', not on
// the edge between them where a small shift in the mix would move it.
// The initial predictions pred1 and pred2 vary per attempt.
func genLogin(r *rng) item {
	in := map[string]int64{
		"pass":  int64(r.intn(2)),
		"pred1": int64(1 + r.intn(2000)),
		"pred2": int64(1 + r.intn(20000)),
	}
	if r.intn(4) == 0 {
		in["user"] = 0
		in["nvalid"] = int64(1 + r.intn(100))
	} else {
		in["user"] = int64(1 + r.intn(1<<20))
		in["nvalid"] = int64(r.intn(101))
	}
	return item{inputs: in}
}

// genTenant draws a tenant out of four times the session cap, so about
// three quarters of admissions create a session and evict one, and a
// secret h from [0,64).
func genTenant(r *rng) item {
	t := r.intn(len(tenantNames))
	return item{
		inputs: map[string]int64{"h": int64(r.intn(64))},
		tenant: tenantNames[t],
	}
}

// tenantNames interns tenant-batch's tenant population, so items share
// their strings and a record keeps a pointer-free number (see record).
var tenantNames, tenantIDs = func() ([]string, map[string]int32) {
	names := make([]string, 4*tenantSessionMax)
	ids := make(map[string]int32, len(names))
	for i := range names {
		names[i] = "t" + strconv.Itoa(i)
		ids[names[i]] = int32(i)
	}
	return names, ids
}()

// noTenant is the record tenant of an anonymous request.
const noTenant = -1

// tenantName is the wire name of a record tenant.
func tenantName(id int32) string {
	if id == noTenant {
		return ""
	}
	return tenantNames[id]
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed, i uint64) rng {
	r := rng{s: seed*0x9E3779B97F4A7C15 ^ (i+1)*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
