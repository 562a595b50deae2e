package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lang/ast"
	"repro/internal/leakage"
	"repro/internal/machine/hw"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport/wire"
	"repro/internal/types"
)

const (
	// replayWorkers is the shard count of the replayed service.
	replayWorkers = 2
	// replayTenants is the named-tenant population, twice the session
	// cap replaySessions, so admissions evict and recycle sessions.
	replayTenants  = 8
	replaySessions = 4
	// replayBudget lets a tenant session commit two or three runs of
	// mitigated.tc before its account denies it.
	replayBudget = 16
	// replayFloor is the least number of responses the replay must
	// compare. The schedules deliver about 410 and the replay compares
	// 290 or more of them.
	replayFloor = 150
)

// slowSrc is testdata/mitigated.tc with a public loop after the
// mitigated sleep, whose body evaluates a 200-term sum. The late runs
// of the slow case set the loop bound n to slowLoops; the other items
// leave it at 0.
var slowSrc = `
var h : H;
var n : L;
var i : L;
var x : L;
var done : L;

mitigate (64, H) [L,L] {
    sleep(h) [H,H];
}
i := 0;
while (i < n) {
    x := ` + strings.Repeat("(i * 3 + 1) % 7 + ", 199) + `i;
    i := i + 1;
}
done := 1;
`

// slowLoops is the late runs' loop bound in the slow case. On the tree
// engine, which counts a statement as one step however large its
// expression, such a run takes about 300 steps, too few to reach the
// engine's first context poll at 1,024, and about 3 ms without the race
// detector: a client deadline of 50 us-2 ms ends its request while the
// worker still runs it against the tenant's state.
const slowLoops = 100

// slowVMLoops is the late runs' loop bound in the slow case on the vm
// engine, which counts instructions and polls its context every 1,024:
// such a run takes about 3.2 million steps and 12 ms without the race
// detector, so its client's deadline cuts it off mid-run, after it has
// changed the shard's caches and predictor.
const slowVMLoops = 2000

// replayRecord is one delivered response with the item it answered.
type replayRecord struct {
	item wire.RunRequest
	resp wire.RunResponse
}

// TestSerialReplay is the serial-replay oracle of the item path. Four
// concurrent clients send /v1/run, /v1/batch and /v1/stream traffic
// that mixes anonymous and tenanted items: the tenants outnumber the
// session cap, so sessions are evicted and recycled; the leakage budget
// denies some items; and a few runs of fresh tenants carry deadlines
// short enough to cancel them in flight. After Shutdown every
// delivered response must equal a serial replay of its shard (see
// replaySerially). The slow case serves slowSrc on the tree engine:
// its late runs belong to regular tenants and outlast their client
// deadlines, and each is followed at once by the tenant's next run, so
// a wait that returned before the worker let go of the tenant's state
// would hand that state to the next run while the worker still used
// it. The slow case on the vm engine cuts its late runs off mid-run:
// each leaves its cache and predictor state on the shard and must leave
// a gap in the shard's shard_index sequence, where the replay of that
// shard stops; a later response that reused the cut-off run's position
// would be compared against a replay that never ran it.
func TestSerialReplay(t *testing.T) {
	src, err := os.ReadFile("../../testdata/mitigated.tc")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"partitioned", "nopar"} {
		t.Run("hw="+model, func(t *testing.T) { replayTraffic(t, model, "vm", string(src), 0, false) })
	}
	t.Run("prog=slow", func(t *testing.T) { replayTraffic(t, "partitioned", "tree", slowSrc, slowLoops, false) })
	t.Run("prog=slow,engine=vm", func(t *testing.T) { replayTraffic(t, "partitioned", "vm", slowSrc, slowVMLoops, true) })
}

// replayTraffic serves the oracle's traffic for the program src on the
// named hardware model and engine, and replays every response it
// delivered. A positive lateLoops is the loop bound n of the late runs.
// With wantCut the traffic must cut at least one run off mid-run.
func replayTraffic(t *testing.T, model, engine, src string, lateLoops int64, wantCut bool) {
	p, r := buildProg(t, src)
	proto, err := hw.NewEnv(model, r.Lat, hw.Table1Config())
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	mgr := newSessions(t, session.Options{
		Lat: r.Lat, BudgetBits: replayBudget, MaxSessions: replaySessions, Shards: 1, Metrics: met,
	})
	h, ts := newServiceFor(t, src, server.PoolOptions{
		Workers: replayWorkers,
		Options: server.Options{Env: proto, Engine: engine, Metrics: met},
	}, Options{Sessions: mgr})

	var (
		mu    sync.Mutex
		recs  []replayRecord
		tally = map[string]int{}
	)
	// deliver checks and keeps one item's outcome. A budget denial is
	// the only failure this traffic may see.
	deliver := func(item wire.RunRequest, res wire.BatchResult) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case res.Response != nil && res.Error == nil:
			if res.Response.Tenant != item.Tenant || (item.Tenant != "") != (res.Response.Epoch > 0) {
				t.Errorf("item %+v answered for tenant %q at epoch %d", item, res.Response.Tenant, res.Response.Epoch)
			}
			recs = append(recs, replayRecord{item: item, resp: *res.Response})
			tally["ok"]++
		case res.Response == nil && res.Error != nil && res.Error.Code == wire.CodeLeakageBudget && item.Tenant != "":
			tally["denied"]++
		default:
			t.Errorf("item %+v: outcome %+v", item, res)
		}
	}

	// Each client sends 40 operations, and from lateOp on some are late
	// runs. A late run that committed unseen leaves a gap that ends its
	// shard's comparison, so every client finishes its regular
	// operations before any client starts its late ones: a client that
	// reached them while the others were still early in theirs would
	// end both shards' comparisons early. The barrier draws nothing from
	// the clients' generators, so each client's operations are still a
	// function of its seed alone.
	const clients, lateOp = 4, 34
	var wg, regular sync.WaitGroup
	regular.Add(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
			defer hc.CloseIdleConnections()
			rng := rand.New(rand.NewSource(int64(c)))
			item := func() wire.RunRequest {
				it := wire.RunRequest{Inputs: map[string]int64{"h": int64(rng.Intn(200))}, Mitigations: true}
				if rng.Intn(2) == 0 {
					// Skewed toward low numbers, so some tenants run often
					// enough to exhaust their budget between evictions.
					it.Tenant = fmt.Sprintf("t%d", min(rng.Intn(replayTenants), rng.Intn(replayTenants)))
				}
				return it
			}
			post := func(ctx context.Context, path string, body []byte) (int, []byte, error) {
				req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+path, bytes.NewReader(body))
				if err != nil {
					return 0, nil, err
				}
				resp, err := hc.Do(req)
				if err != nil {
					return 0, nil, err
				}
				defer resp.Body.Close()
				out, err := io.ReadAll(resp.Body)
				return resp.StatusCode, out, err
			}
			for k := 0; k < 40; k++ {
				if k == lateOp {
					regular.Done()
					regular.Wait()
				}
				items := []wire.RunRequest{item()}
				for n := 1 + rng.Intn(7); len(items) < n; {
					items = append(items, item())
				}
				var (
					status int
					out    []byte
					err    error
				)
				switch kind := rng.Intn(3); {
				case k >= lateOp && rng.Intn(3) == 0:
					// A fresh tenant's run under a deadline that may end
					// it anywhere: queued, running, or after it committed
					// but before its response arrived. A run that
					// committed unseen leaves a gap that ends its shard's
					// comparison, so these come last in each schedule.
					// In the slow case the run is long and its tenant is
					// a regular one, whose next run follows at once: it
					// must find the tenant's state exactly as the
					// cancelled run's worker left it.
					items[0].Tenant = fmt.Sprintf("late-%d-%d", c, k)
					if lateLoops > 0 {
						items[0].Tenant = fmt.Sprintf("t%d", rng.Intn(replayTenants))
						items[0].Inputs["n"] = lateLoops
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(50+rng.Intn(2000))*time.Microsecond)
					body, _ := json.Marshal(items[0])
					status, out, err = post(ctx, "/v1/run", body)
					cancel()
					if err != nil {
						mu.Lock()
						tally["late lost"]++
						mu.Unlock()
						if lateLoops > 0 {
							next := wire.RunRequest{Tenant: items[0].Tenant, Inputs: map[string]int64{"h": int64(rng.Intn(200))}, Mitigations: true}
							body, _ := json.Marshal(next)
							if status, out, err = post(context.Background(), "/v1/run", body); err != nil {
								t.Error(err)
								continue
							}
							deliver(next, replayResult(t, status, out))
						}
						continue
					}
					deliver(items[0], replayResult(t, status, out))
					mu.Lock()
					tally["late delivered"]++
					mu.Unlock()
					continue
				case kind == 0:
					body, _ := json.Marshal(items[0])
					status, out, err = post(context.Background(), "/v1/run", body)
					if err == nil {
						deliver(items[0], replayResult(t, status, out))
					}
				case kind == 1:
					body, _ := json.Marshal(wire.BatchRequest{Requests: items})
					status, out, err = post(context.Background(), "/v1/batch", body)
					if err == nil {
						var br wire.BatchResponse
						if status != http.StatusOK || json.Unmarshal(out, &br) != nil || len(br.Results) != len(items) {
							t.Errorf("batch of %d: status %d: %s", len(items), status, out)
							continue
						}
						for i, res := range br.Results {
							deliver(items[i], res)
						}
					}
				default:
					var body bytes.Buffer
					for _, it := range items {
						raw, _ := json.Marshal(it)
						body.Write(raw)
						body.WriteByte('\n')
					}
					status, out, err = post(context.Background(), "/v1/stream", body.Bytes())
					if err == nil {
						lines := nonEmptyLines(out)
						if status != http.StatusOK || len(lines) != len(items) {
							t.Errorf("stream of %d: status %d, %d lines: %s", len(items), status, len(lines), out)
							continue
						}
						for i, line := range lines {
							var res wire.BatchResult
							if err := json.Unmarshal(line, &res); err != nil {
								t.Errorf("stream line %d: %v: %s", i, err, line)
								continue
							}
							deliver(items[i], res)
						}
					}
				}
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	pool := h.opts.Pool
	snap := pool.Snapshot()
	if snap.BudgetDenials == 0 || snap.SessionsEvictedLRU == 0 {
		t.Errorf("the traffic must deny and evict: %d denials, %d evictions", snap.BudgetDenials, snap.SessionsEvictedLRU)
	}
	// No run of this traffic fails on a budget, so a run that started
	// and delivered no response was cut off by its context mid-run.
	cut := 0
	for s := 0; s < pool.Workers(); s++ {
		cut += pool.Shard(s).Runs() - pool.Shard(s).Served()
	}
	if wantCut && cut == 0 {
		t.Error("no run was cut off mid-run")
	}

	compared := replaySerially(t, p, r, proto, recs)
	t.Logf("outcomes %v; %d evictions; %d runs cut off mid-run; replay compared %d of %d delivered responses",
		tally, snap.SessionsEvictedLRU, cut, compared, len(recs))
	if compared < replayFloor {
		t.Errorf("replay compared %d responses, below the floor of %d", compared, replayFloor)
	}
}

// replayResult decodes a /v1/run reply into its item outcome.
func replayResult(t *testing.T, status int, body []byte) wire.BatchResult {
	if status == http.StatusOK {
		var rr wire.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Errorf("run: %v: %s", err, body)
			return wire.BatchResult{}
		}
		return wire.BatchResult{Response: &rr}
	}
	var env struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || statusFor(env.Error.Code) != status {
		t.Errorf("run: status %d with body %s", status, body)
		return wire.BatchResult{}
	}
	return wire.BatchResult{Error: env.Error}
}

// replaySerially replays each shard's delivered responses, in
// shard_index order, through a serial tree-engine Server on a clone of
// proto, and returns how many it compared. A tenant's mitigation state
// is carried across shards in epoch order, fresh at epoch 1, and its
// leakage_bits must equal leakage.Bound over the replayed times and
// mitigation counts of its epochs so far. Time, mispredictions and the
// mitigation records must be equal. A shard's comparison ends at a gap
// in its shard_index sequence, or at an item whose tenant's previous
// epoch was never delivered; an item whose tenant predecessor sits on
// another shard waits for it.
func replaySerially(t *testing.T, p *ast.Program, r *types.Result, proto hw.Env, recs []replayRecord) int {
	t.Helper()
	byShard := make([][]int, replayWorkers)
	pred := make([]int, len(recs))
	byTenant := map[string][]int{}
	for i, rec := range recs {
		if rec.resp.Shard != rec.resp.Index%replayWorkers {
			t.Errorf("request %d served on shard %d, want round-robin", rec.resp.Index, rec.resp.Shard)
			continue
		}
		byShard[rec.resp.Shard] = append(byShard[rec.resp.Shard], i)
		pred[i] = -1
		if rec.item.Tenant != "" {
			byTenant[rec.item.Tenant] = append(byTenant[rec.item.Tenant], i)
		}
	}
	for _, idx := range byShard {
		sort.Slice(idx, func(a, b int) bool { return recs[idx[a]].resp.ShardIndex < recs[idx[b]].resp.ShardIndex })
	}
	// A tenant's requests hold its session from admission to commit, so
	// its submission order is its epoch order.
	for _, idx := range byTenant {
		sort.Slice(idx, func(a, b int) bool { return recs[idx[a]].resp.Index < recs[idx[b]].resp.Index })
		for k := 1; k < len(idx); k++ {
			pred[idx[k]] = idx[k-1]
		}
	}

	srvs := make([]*server.Server, replayWorkers)
	for s := range srvs {
		var err error
		srvs[s], err = server.New(p, r, server.Options{Env: proto.Clone(), Engine: "tree"})
		if err != nil {
			t.Fatal(err)
		}
	}
	type account struct {
		mit *mitigation.State
		k   int
		t   uint64
	}
	accounts := map[string]*account{}
	closure := r.Lat.Size() - 1
	done := make([]bool, len(recs))
	pos := make([]int, replayWorkers)
	stopped := make([]bool, replayWorkers)
	compared, bad := 0, 0
	for progress := true; progress; {
		progress = false
		for s, idx := range byShard {
			for !stopped[s] && pos[s] < len(idx) {
				i := idx[pos[s]]
				rec := recs[i]
				if rec.resp.ShardIndex != pos[s] {
					stopped[s] = true // a run whose response was never delivered
					break
				}
				var acct *account
				if tenant := rec.item.Tenant; tenant != "" {
					if pred[i] >= 0 && !done[pred[i]] {
						break // the tenant's previous request is on another shard
					}
					switch {
					case rec.resp.Epoch == 1:
						accounts[tenant] = &account{mit: mitigation.NewState(r.Lat, nil, mitigation.PerLevel)}
					case pred[i] < 0 || recs[pred[i]].resp.Epoch != rec.resp.Epoch-1:
						stopped[s] = true // the previous epoch was never delivered
					}
					if stopped[s] {
						break
					}
					acct = accounts[tenant]
				}
				var mit *mitigation.State
				if acct != nil {
					mit = acct.mit
				}
				inputs := rec.item.Inputs
				resp, err := srvs[s].HandleWith(context.Background(), func(m *mem.Memory) {
					for name, v := range inputs {
						m.Set(name, v)
					}
				}, mit)
				if err != nil {
					t.Fatalf("replay of request %d: %v", rec.resp.Index, err)
				}
				mits := toRunResponse(resp, wire.RunRequest{Mitigations: true}).Mitigations
				got := rec.resp
				if got.Time != resp.Time || got.Mispredictions != resp.Mispredictions || !reflect.DeepEqual(got.Mitigations, mits) {
					bad++
					t.Errorf("request %d (shard %d #%d, tenant %q epoch %d, inputs %v): served time %d, %d mispredictions, mitigations %v; serial replay %d, %d, %v",
						got.Index, s, got.ShardIndex, got.Tenant, got.Epoch, inputs, got.Time, got.Mispredictions, got.Mitigations,
						resp.Time, resp.Mispredictions, mits)
				}
				if acct != nil {
					acct.k += len(resp.Mitigations)
					acct.t += resp.Time
					if want := leakage.Bound(closure, acct.k, acct.t); math.Abs(got.LeakageBits-want) > 1e-9*math.Max(1, want) {
						bad++
						t.Errorf("request %d (tenant %q epoch %d): leakage_bits %v, bound over the replay %v",
							got.Index, got.Tenant, got.Epoch, got.LeakageBits, want)
					}
				}
				server.ReleaseResponse(resp)
				if bad >= 10 {
					t.Fatalf("stopping after %d mismatches", bad)
				}
				done[i] = true
				pos[s]++
				compared++
				progress = true
			}
		}
	}
	return compared
}
