package hw

import (
	"repro/internal/lattice"
	"repro/internal/machine/cache"
)

// This file implements the per-access-site memoization fast path used
// by the bytecode VM. The simulated hardware dominates the
// interpreter's host cost (every access walks TLB and cache partitions
// even in the steady all-hit state), but the simulation itself is
// deterministic: from the same membership state, the same access gets
// the same cost and causes the same state change. A Site caches the
// complete observable effect of one static access site's last access —
// cost, the LRU refreshes it performed, and the statistics counters it
// bumped — guarded by the membership generations of the cache sets
// whose contents decide that effect: addr's TLB set and L1 set in every
// partition the access may refresh, in the other probed partitions too
// when none of those hit (see memo.lookup), plus the L2 set when a
// no-fill miss reached it. Under the coarse cache abstraction (§4.1) a
// set's contents change only through operations on that set, so a memo
// is valid while every set it guards is unchanged: replaying it is then
// bit-for-bit identical to re-running the full simulation — identical
// cost, identical simulated state (the same lines get the same LRU
// touches in the same order), identical Stats. A fill, invalidation, or
// flush of a guarded set bumps that set's generation and sends the next
// access back to the walk; traffic to other sets leaves the memo live.
//
// The memo is recorded by the walk itself: each environment has one
// walk, which performs the access and records the memo as it goes
// (Access is the same walk with no Site). It is keyed by the finest
// address unit it consulted — the page, the L1 line and, for a no-fill
// miss, the L2 line; 32 bytes under Table 1 — not by the byte address:
// every structure the memo consulted maps the whole unit to one set and
// one block, so the guards, touches, counters and cost are the same for
// every address in it, and an array site scanning one line replays.
//
// Only outcomes that mutate no membership are memoized (all-hit paths;
// for NoFill's no-fill mode, any outcome — it never mutates anything),
// so a stale memo is impossible: an outcome that changes membership
// bumps a generation itself.

// maxSiteRefs bounds the guard and touch lists a Site may hold. The
// lists are inline arrays so re-memoizing a site allocates nothing.
// Partitioned lookups guard at most one TLB set and one L1 set per
// level ⊑ er, so 8 covers every read label of a lattice of up to 4
// levels (diamond); on larger lattices a memo of a wide read label may
// not fit and stays on the walk.
const maxSiteRefs = 8

// Site is one static access site's memo. The zero value is an empty
// memo (always walks first). A Site must be used with a single
// AccessKind and a single environment for its whole lifetime; the VM
// allocates one per program instruction per environment. Callers
// replay it with Replay, a concrete method, and call
// SiteEnv.AccessSite only when Replay declines.
type Site struct {
	live   bool
	shift  uint8 // log2 of the memo's address unit
	ngens  uint8
	ntouch uint8
	nstats uint8
	unit   uint64 // the memoized address >> shift
	er, ew int    // the memoized labels' IDs
	cost   uint64
	// gsum is the sum of the guarded sets' generations at memo time;
	// replay is valid only while it is unchanged. Generations are
	// monotone, so a sum collision would need one guard to decrease —
	// impossible.
	gsum  uint64
	gens  [maxSiteRefs]*uint64
	touch [maxSiteRefs]cache.TouchRef
	stats [maxSiteRefs]*uint64
}

// Replay replays the memo for an access at addr under (er, ew) if it
// is still valid — addr lies in the memo's unit, the labels are the
// memo's, and no set it consulted has changed — applying the memoized
// access's LRU refreshes and counters and returning its cost and true.
// false means the caller must run the access through AccessSite, which
// walks the hierarchy and may re-memoize.
func (s *Site) Replay(addr uint64, er, ew lattice.Label) (uint64, bool) {
	if !s.live || addr>>s.shift != s.unit || s.er != er.ID() || s.ew != ew.ID() {
		return 0, false
	}
	var g uint64
	for _, gen := range s.gens[:s.ngens] {
		g += *gen
	}
	if g != s.gsum {
		return 0, false
	}
	for i := range s.touch[:s.ntouch] {
		s.touch[i].Refresh()
	}
	for _, p := range s.stats[:s.nstats] {
		*p++
	}
	return s.cost, true
}

// memo records a Site's memo while a walk performs one access. The
// memo of a nil Site records nothing, so Access walks with one too.
type memo struct {
	s      *Site
	ok     bool // recording: a Site, no miss yet, and room in its lists
	addr   uint64
	er, ew int
}

// begin clears s's memo and starts recording the access at addr under
// (er, ew) into it.
func (s *Site) begin(addr uint64, er, ew lattice.Label) memo {
	if s == nil {
		return memo{}
	}
	s.live = false
	s.ngens, s.ntouch, s.nstats = 0, 0, 0
	return memo{s: s, ok: true, addr: addr, er: er.ID(), ew: ew.ID()}
}

// probe looks addr up in one cache, refreshing a hit when refresh is
// set — exactly Probe's effect — and records the set's generation and
// the refresh.
func (m *memo) probe(c *cache.Cache, addr uint64, refresh bool) bool {
	gen, ref, ok := c.LineRef(addr)
	m.guard(gen)
	if ok && refresh {
		ref.Refresh()
		m.touch(ref)
	}
	return ok
}

// lookup searches one structure's partitions (cs, by label ID) at the
// plan's levels for addr, probing each once in plan order. The memo
// guards the set of every partition the access may refresh: whether
// each holds the block decides which lines it refreshes. It guards the
// other partitions' sets only when none of those hit, since then they
// decide whether the access hits at all; when one did hit, a hit
// elsewhere is neither refreshed nor needed, so their contents cannot
// change the outcome.
func (m *memo) lookup(cs []*cache.Cache, plan *accessPlan, addr uint64) bool {
	hit, refreshed := false, false
	var others [maxSiteRefs]*uint64
	n := 0
	for _, step := range plan.probe {
		gen, ref, ok := cs[step.id].LineRef(addr)
		switch {
		case step.refresh:
			m.guard(gen)
			if ok {
				ref.Refresh()
				m.touch(ref)
				refreshed = true
			}
		case n < len(others):
			others[n] = gen
			n++
		default:
			m.drop()
		}
		hit = hit || ok
	}
	if !refreshed {
		for _, gen := range others[:n] {
			m.guard(gen)
		}
	}
	return hit
}

// guard adds one consulted set's generation (from cache.LineRef).
func (m *memo) guard(gen *uint64) {
	if !m.ok {
		return
	}
	if m.s.ngens == maxSiteRefs {
		m.ok = false
		return
	}
	m.s.gens[m.s.ngens] = gen
	m.s.ngens++
}

func (m *memo) touch(r cache.TouchRef) {
	if !m.ok {
		return
	}
	if m.s.ntouch == maxSiteRefs {
		m.ok = false
		return
	}
	m.s.touch[m.s.ntouch] = r
	m.s.ntouch++
}

// count bumps one statistics counter and records it.
func (m *memo) count(p *uint64) {
	*p++
	if !m.ok {
		return
	}
	if m.s.nstats == maxSiteRefs {
		m.ok = false
		return
	}
	m.s.stats[m.s.nstats] = p
	m.s.nstats++
}

// drop stops recording: the outcome is not replayable (it changes
// membership, or the memo's lists are full), so the memo stays cleared.
func (m *memo) drop() { m.ok = false }

// seal makes the memo live for addresses in the unit of 2^shift bytes
// holding the recorded address. It must be called after the access has
// run: the memoized paths mutate no membership, so the generation sum
// taken here equals the pre-access sum and guards future replays.
func (m *memo) seal(shift uint8, cost uint64) {
	if !m.ok {
		return
	}
	s := m.s
	var g uint64
	for _, gen := range s.gens[:s.ngens] {
		g += *gen
	}
	s.shift, s.unit, s.er, s.ew, s.cost, s.gsum = shift, m.addr>>shift, m.er, m.ew, cost, g
	s.live = true
}

// SiteEnv is implemented by environments that support the memoized
// fast path. AccessSite is exactly Access — same cost, same state
// change, same statistics — plus a per-site memo: it replays s when
// Replay would, and otherwise runs the environment's one walk, which
// records s's memo as it goes. Callers must pass the same *Site for the
// same static access site (and a fixed kind), and distinct Sites for
// distinct sites. Environments without a profitable fast path simply
// don't implement the interface; callers fall back to Access.
type SiteEnv interface {
	Env
	AccessSite(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64
}

var (
	_ SiteEnv = (*Unpartitioned)(nil)
	_ SiteEnv = (*NoFill)(nil)
	_ SiteEnv = (*Partitioned)(nil)
	_ SiteEnv = (*Flat)(nil)
)

// AccessSite implements SiteEnv: the steady all-hit outcome (TLB hit
// and L1 hit) is memoized.
func (u *Unpartitioned) AccessSite(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	if c, ok := s.Replay(addr, er, ew); ok {
		return c
	}
	return u.access(s, kind, addr, er, ew)
}

// AccessSite implements SiteEnv. Public-write accesses (ew = ⊥) use the
// normal hierarchy and memoize the all-hit outcome like Unpartitioned.
// No-fill accesses mutate nothing at all, so any outcome — hit or miss
// — is memoized: cost plus the counters of the path it took, guarded by
// every set it consulted.
func (n *NoFill) AccessSite(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	if c, ok := s.Replay(addr, er, ew); ok {
		return c
	}
	return n.access(s, kind, addr, er, ew)
}

// AccessSite implements SiteEnv. The memoized outcome is the all-hit
// state across the (er, ew) plan's probed partitions: a TLB hit and an
// L1 hit somewhere in the probe list. The touch list holds the
// refreshing probes — every partition holding the block whose level the
// write label may modify — in plan order, as the walk performed them.
func (p *Partitioned) AccessSite(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	if c, ok := s.Replay(addr, er, ew); ok {
		return c
	}
	return p.access(s, kind, addr, er, ew)
}

// AccessSite implements SiteEnv. Flat has no state: every access costs
// Latency, so the memo guards nothing and covers every address (a
// shift of 64 maps every address to unit 0).
func (f *Flat) AccessSite(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	m := s.begin(addr, er, ew)
	m.seal(64, f.Latency)
	return f.Latency
}
