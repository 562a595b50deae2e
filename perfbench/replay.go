package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/types"
)

const (
	// workers is the pool shard count of every server the benchmark
	// starts: one per CPU of the two-CPU machine it was sized on.
	workers = 2
	// hwModel is the hardware model served and replayed.
	hwModel = "partitioned"
)

// program is a parsed, type-checked served program.
type program struct {
	prog *ast.Program
	res  *types.Result
	lat  lattice.Lattice
}

func loadProgram(root, rel string) (*program, error) {
	src, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rel, err)
	}
	lat := lattice.TwoPoint()
	res, err := types.Check(prog, lat)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rel, err)
	}
	return &program{prog: prog, res: res, lat: lat}, nil
}

func (p *program) newEnv() (hw.Env, error) {
	return hw.NewEnv(hwModel, p.lat, hw.Table1Config())
}

// setupFor builds the memory-setup closure of a request with inputs in.
func setupFor(in map[string]int64) func(*mem.Memory) {
	return func(m *mem.Memory) {
		for name, v := range in {
			m.Set(name, v)
		}
	}
}

// record is one successful response, with the generated item it
// answered. A tenant-batch run keeps about a million, so the
// fields are narrow and hold no pointer: the garbage collector never
// scans them while the generator runs.
type record struct {
	leak       float64 // leakage_bits
	time       uint64  // simulated cycles
	item       int32   // generated item number (its inputs)
	tenant     int32   // index into tenantNames, or noTenant
	index      int32   // pool submission index
	shardIndex int32
	epoch      int32
	mispred    int16
	shard      int16
}

// checkResult summarizes a correctness check.
type checkResult struct {
	checked  int      // responses checked
	replayed int      // responses replayed through the tree engine
	bad      int      // responses that failed any check
	errs     []string // the first few failures, for the log
}

func (c *checkResult) fail(format string, args ...any) {
	c.bad++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// oracle checks recorded responses against the reference semantics.
type oracle struct {
	w    *workload
	p    *program
	seed uint64
}

// check verifies every record. Structure: each (shard, shard_index) is
// answered once and the shard is the round-robin one. Tenants: epochs
// advance by one per request in submission order, restarting at 1 when
// the session was fresh or evicted, and leakage_bits equals the §7
// bound |L↑|·log2(K+1)·(1+log2 T) recomputed from the epoch's K and the
// session's summed times. Replay: each shard's responses, in
// shard_index order, up to the workload's prefix, are re-run through a
// serial server on the tree engine over the same hardware model, with
// each tenant's mitigation state threaded in epoch order, and time,
// mispredictions and the mitigation count must match exactly.
func (o *oracle) check(recs []record) checkResult {
	var res checkResult
	res.checked = len(recs)
	bad := make([]bool, len(recs))
	mark := func(i int, format string, args ...any) {
		if !bad[i] {
			bad[i] = true
			res.fail(format, args...)
		}
	}

	// Structure, per shard in shard_index order.
	byShard := make([][]int, workers)
	for i, r := range recs {
		if r.shard < 0 || r.shard >= workers || int32(r.shard) != r.index%workers || r.time == 0 {
			mark(i, "item %d: index %d on shard %d with time %d", r.item, r.index, r.shard, r.time)
			continue
		}
		byShard[r.shard] = append(byShard[r.shard], i)
	}
	for _, idx := range byShard {
		sort.Slice(idx, func(a, b int) bool { return recs[idx[a]].shardIndex < recs[idx[b]].shardIndex })
		for k := 1; k < len(idx); k++ {
			if recs[idx[k]].shardIndex == recs[idx[k-1]].shardIndex {
				mark(idx[k], "item %d: shard %d index %d answered twice", recs[idx[k]].item,
					recs[idx[k]].shard, recs[idx[k]].shardIndex)
			}
		}
	}

	// Tenant chains and the §7 account, per tenant in submission order.
	// A tenant's requests hold its session lock from admission to
	// commit, so submission order is epoch order.
	pred := make([]int, len(recs))
	byTenant := map[int32][]int{}
	for i, r := range recs {
		pred[i] = -1
		if r.tenant != noTenant {
			byTenant[r.tenant] = append(byTenant[r.tenant], i)
		}
	}
	closure := o.p.lat.Size() - 1
	for _, idx := range byTenant {
		sort.Slice(idx, func(a, b int) bool { return recs[idx[a]].index < recs[idx[b]].index })
		var cumT uint64
		epoch := int32(0)
		for k, i := range idx {
			r := recs[i]
			if k > 0 {
				pred[i] = idx[k-1]
			}
			if r.epoch == 1 {
				cumT, epoch = 0, 0
			}
			if r.epoch != epoch+1 {
				mark(i, "tenant %s: epoch %d follows %d", tenantName(r.tenant), r.epoch, epoch)
			}
			epoch = r.epoch
			cumT += r.time
			want := leakBound(closure, int(epoch)*o.w.mitsPerItem, cumT)
			if math.Abs(r.leak-want) > 1e-9*math.Max(1, want) {
				mark(i, "tenant %s epoch %d: leakage_bits %v, §7 bound %v", tenantName(r.tenant), r.epoch, r.leak, want)
			}
		}
	}

	res.replayed = o.replay(recs, byShard, pred, mark)
	return res
}

// leakBound is the §7 bound |L↑|·log2(K+1)·(1+log2 T), computed here
// independently of the service's own accounting.
func leakBound(closure, k int, t uint64) float64 {
	if t == 0 {
		return 0
	}
	return float64(closure) * math.Log2(float64(k+1)) * (1 + math.Log2(float64(t)))
}

// replay re-runs each shard's prefix through tree-engine servers and
// returns how many responses it replayed. A shard stops at a gap in its
// shard_index sequence, at its prefix bound, or when its next response
// waits on a tenant predecessor that cannot be replayed.
func (o *oracle) replay(recs []record, byShard [][]int, pred []int, mark func(int, string, ...any)) int {
	proto, err := o.p.newEnv()
	if err != nil {
		panic(err) // hwModel is a registered name
	}
	srvs := make([]*server.Server, workers)
	for s := range srvs {
		srvs[s], err = server.New(o.p.prog, o.p.res, server.Options{Env: proto.Clone(), Engine: "tree"})
		if err != nil {
			panic(err) // the program type-checked and the options are fixed
		}
	}
	done := make([]bool, len(recs))
	states := map[int32]*mitigation.State{}
	pos := make([]int, workers)
	n := 0
	for progress := true; progress; {
		progress = false
		for s, idx := range byShard {
			for pos[s] < len(idx) && pos[s] < o.w.replayPrefix {
				i := idx[pos[s]]
				r := recs[i]
				if int(r.shardIndex) != pos[s] || (pred[i] >= 0 && !done[pred[i]]) {
					break
				}
				var mit *mitigation.State
				if r.tenant != noTenant {
					if r.epoch == 1 || states[r.tenant] == nil {
						states[r.tenant] = mitigation.NewState(o.p.lat, nil, mitigation.PerLevel)
					}
					mit = states[r.tenant]
				}
				in := o.w.itemAt(o.seed, int(r.item)).inputs
				resp, err := srvs[s].HandleWith(context.Background(), setupFor(in), mit)
				if err != nil {
					// The reference server did not advance; the rest of the
					// shard cannot be compared.
					mark(i, "item %d: replay failed: %v", r.item, err)
					pos[s] = len(idx)
					break
				}
				if resp.Time != r.time || resp.Mispredictions != int(r.mispred) || len(resp.Mitigations) != o.w.mitsPerItem {
					mark(i, "item %d (shard %d #%d): served time %d mispredictions %d, tree engine %d, %d (%d mitigations)",
						r.item, s, r.shardIndex, r.time, r.mispred, resp.Time, resp.Mispredictions, len(resp.Mitigations))
				}
				server.ReleaseResponse(resp)
				done[i] = true
				pos[s]++
				n++
				progress = true
			}
		}
	}
	return n
}
