package session

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/leakage"
	"repro/internal/obs"
)

// refSession is one session of refManager.
type refSession struct {
	tenant   string
	busy     int
	lastSeen time.Time
	epoch    int
	cumTime  uint64
	cumMits  int
	denials  uint64
}

// refManager is a single-goroutine model of the admission rules as a
// full scan states them: on every insert, sweep the whole LRU list
// from its tail and drop every expired session, then, at capacity,
// evict the least recently begun session that is not busy. The
// Manager must make the same choices while visiting far fewer
// sessions.
type refManager struct {
	opts     Options
	perShard int
	shards   [][]*refSession // LRU order per shard, most recent first

	created, evictedTTL, evictedLRU uint64
}

func newRefManager(opts Options) *refManager {
	opts = opts.withDefaults()
	per := (opts.MaxSessions + opts.Shards - 1) / opts.Shards
	return &refManager{opts: opts, perShard: max(per, 1), shards: make([][]*refSession, opts.Shards)}
}

func (r *refManager) expired(e *refSession, now time.Time) bool {
	return r.opts.TTL > 0 && e.busy == 0 && now.Sub(e.lastSeen) >= r.opts.TTL
}

func (r *refManager) find(sh int, tenant string) int {
	return slices.IndexFunc(r.shards[sh], func(e *refSession) bool { return e.tenant == tenant })
}

// begin admits tenant on shard sh and reports whether the budget
// allowed it.
func (r *refManager) begin(sh int, tenant string, now time.Time) (*refSession, bool) {
	i := r.find(sh, tenant)
	if i >= 0 && r.expired(r.shards[sh][i], now) {
		r.shards[sh] = slices.Delete(r.shards[sh], i, i+1)
		r.evictedTTL++
		i = -1
	}
	var e *refSession
	if i < 0 {
		list := r.shards[sh]
		for j := len(list) - 1; j >= 0; j-- {
			if r.expired(list[j], now) {
				list = slices.Delete(list, j, j+1)
				r.evictedTTL++
			}
		}
		for len(list) >= r.perShard {
			v := len(list) - 1
			for v >= 0 && list[v].busy > 0 {
				v--
			}
			if v < 0 {
				break
			}
			list = slices.Delete(list, v, v+1)
			r.evictedLRU++
		}
		e = &refSession{tenant: tenant, lastSeen: now}
		r.shards[sh] = slices.Insert(list, 0, e)
		r.created++
	} else {
		e = r.shards[sh][i]
		r.shards[sh] = slices.Insert(slices.Delete(r.shards[sh], i, i+1), 0, e)
		e.lastSeen = now
	}
	e.busy++
	if r.opts.BudgetBits > 0 && r.bits(e) >= r.opts.BudgetBits {
		e.denials++
		r.checkIn(e, now)
		return nil, false
	}
	return e, true
}

func (r *refManager) checkIn(e *refSession, now time.Time) {
	e.busy--
	e.lastSeen = now
}

func (r *refManager) bits(e *refSession) float64 {
	return leakage.Bound(r.opts.ClosureSize, e.cumMits, e.cumTime)
}

// shardIndex is the position of tenant's shard in m.shards.
func shardIndex(m *Manager, tenant string) int {
	return slices.Index(m.shards, m.shardFor(tenant))
}

// compareManagers fails unless m and ref hold the same sessions, in
// the same LRU order, with the same accounts and eviction counters.
func compareManagers(t *testing.T, step string, m *Manager, met *obs.Metrics, ref *refManager) {
	t.Helper()
	for i, s := range m.shards {
		var got []*session
		var gotNames, wantNames []string
		for e := s.head; e != nil; e = e.next {
			got = append(got, e)
			gotNames = append(gotNames, e.tenant)
		}
		for _, r := range ref.shards[i] {
			wantNames = append(wantNames, r.tenant)
		}
		if !slices.Equal(gotNames, wantNames) {
			t.Fatalf("%s: shard %d holds %v (LRU order), reference %v", step, i, gotNames, wantNames)
		}
		if len(s.byID) != len(got) {
			t.Fatalf("%s: shard %d table has %d entries, LRU list %d", step, i, len(s.byID), len(got))
		}
		for j, e := range got {
			r := ref.shards[i][j]
			if e.epoch != r.epoch || e.cumMits != r.cumMits || e.cumTime != r.cumTime ||
				e.denials != r.denials || m.spentBits(e) != ref.bits(r) {
				t.Fatalf("%s: tenant %s account epoch=%d K=%d T=%d denials=%d bits=%v, reference epoch=%d K=%d T=%d denials=%d bits=%v",
					step, e.tenant, e.epoch, e.cumMits, e.cumTime, e.denials, m.spentBits(e),
					r.epoch, r.cumMits, r.cumTime, r.denials, ref.bits(r))
			}
		}
	}
	snap := met.Snapshot()
	if snap.SessionsCreated != ref.created || snap.SessionsEvictedTTL != ref.evictedTTL || snap.SessionsEvictedLRU != ref.evictedLRU {
		t.Fatalf("%s: sessions created/evicted_ttl/evicted_lru = %d/%d/%d, reference %d/%d/%d", step,
			snap.SessionsCreated, snap.SessionsEvictedTTL, snap.SessionsEvictedLRU,
			ref.created, ref.evictedTTL, ref.evictedLRU)
	}
}

// TestAdmissionMatchesFullScan runs random single-goroutine scripts
// through the Manager and through refManager and requires the same
// outcome after every step. Scripts begin tenants that hold no
// ticket, commit or abort any outstanding ticket (so tickets overlap
// and the LRU order departs from the check-in order), peek, and step
// a clock around the TTL; caps are small enough that most admissions
// evict.
func TestAdmissionMatchesFullScan(t *testing.T) {
	const ttl = 10 * time.Second
	configs := []Options{
		{Shards: 1, MaxSessions: 4},
		{Shards: 1, MaxSessions: 4, TTL: ttl},
		{Shards: 2, MaxSessions: 6, TTL: ttl},
		{Shards: 1, MaxSessions: 3, TTL: ttl, BudgetBits: 30},
		{Shards: 2, MaxSessions: 5, BudgetBits: 30},
	}
	tenants := make([]string, 9)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("t%d", i)
	}
	for ci, cfg := range configs {
		for seed := int64(0); seed < 60; seed++ {
			t.Run(fmt.Sprintf("config=%d/seed=%d", ci, seed), func(t *testing.T) {
				runAdmissionScript(t, cfg, tenants, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func runAdmissionScript(t *testing.T, cfg Options, tenants []string, rng *rand.Rand) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	met := obs.NewMetrics()
	cfg.Lat, cfg.Metrics, cfg.Now = lattice.TwoPoint(), met, clk.now
	m := newManager(t, cfg)
	ref := newRefManager(cfg)

	type held struct {
		tk  *Ticket
		ref *refSession
	}
	open := map[string]held{}
	for step := 0; step < 300; step++ {
		var desc string
		switch op := rng.Intn(10); {
		case op < 5: // Begin a tenant with no outstanding ticket
			var free []string
			for _, tn := range tenants {
				if _, ok := open[tn]; !ok {
					free = append(free, tn)
				}
			}
			if len(free) == 0 {
				continue
			}
			tn := free[rng.Intn(len(free))]
			desc = "begin " + tn
			tk, err := m.Begin(tn)
			r, ok := ref.begin(shardIndex(m, tn), tn, clk.now())
			if (err == nil) != ok {
				t.Fatalf("step %d %s: Begin err=%v, reference admitted=%v", step, desc, err, ok)
			}
			if ok {
				open[tn] = held{tk, r}
			}
		case op < 8: // Commit or Abort any outstanding ticket
			if len(open) == 0 {
				continue
			}
			keys := make([]string, 0, len(open))
			for tn := range open {
				keys = append(keys, tn)
			}
			sort.Strings(keys)
			tn := keys[rng.Intn(len(keys))]
			h := open[tn]
			delete(open, tn)
			if rng.Intn(4) == 0 {
				desc = "abort " + tn
				h.tk.Abort()
			} else {
				elapsed, mits := uint64(1+rng.Intn(5000)), rng.Intn(3)
				desc = fmt.Sprintf("commit %s (%d, %d)", tn, elapsed, mits)
				h.tk.Commit(elapsed, mits)
				h.ref.cumTime += elapsed
				h.ref.cumMits += mits
				h.ref.epoch++
			}
			ref.checkIn(h.ref, clk.now())
		case op < 9: // Peek a tenant with no outstanding ticket (Peek waits for it)
			tn := tenants[rng.Intn(len(tenants))]
			if _, ok := open[tn]; ok {
				continue
			}
			desc = "peek " + tn
			info, ok := m.Peek(tn)
			sh := shardIndex(m, tn)
			i := ref.find(sh, tn)
			if ok != (i >= 0) {
				t.Fatalf("step %d %s: Peek ok=%v, reference live=%v", step, desc, ok, i >= 0)
			}
			if ok && (info.Epoch != ref.shards[sh][i].epoch || info.SpentBits != ref.bits(ref.shards[sh][i])) {
				t.Fatalf("step %d %s: Peek %+v, reference %+v", step, desc, info, *ref.shards[sh][i])
			}
		default: // step the clock around the TTL
			d := []time.Duration{0, time.Second, 3 * time.Second, 9 * time.Second,
				10 * time.Second, 11 * time.Second}[rng.Intn(6)]
			desc = fmt.Sprintf("clock +%v", d)
			clk.advance(d)
		}
		compareManagers(t, fmt.Sprintf("step %d %s", step, desc), m, met, ref)
	}
}
