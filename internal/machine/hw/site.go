package hw

import (
	"repro/internal/lattice"
	"repro/internal/machine/cache"
)

// This file implements the per-access-site memoization fast path used
// by the optimized bytecode VM. The simulated hardware dominates the
// interpreter's host cost (every Access walks TLB and cache partitions
// even in the steady all-hit state), but the simulation itself is
// deterministic: from the same membership state, the same access gets
// the same cost and causes the same state change. A Site caches the
// complete observable effect of one static access site's last access —
// cost, the LRU refreshes it performed, and the statistics counters it
// bumped — guarded by the membership generations of the cache sets the
// access consulted: addr's TLB set and L1 set in every structure it
// probed, plus the L2 set when a no-fill miss reached it. Under the
// coarse cache abstraction (§4.1) a set's contents change only through
// operations on that set, so a memo is valid while every set it
// consulted is unchanged: replaying it is then bit-for-bit identical to
// re-running the full simulation — identical cost, identical simulated
// state (the same lines get the same LRU touches in the same order),
// identical Stats. A fill, invalidation, or flush of a consulted set
// bumps that set's generation and sends the next access back to the
// slow path; traffic to other sets leaves the memo live.
//
// Only outcomes that mutate no membership are memoized (all-hit paths;
// for NoFill's no-fill mode, any outcome — it never mutates anything),
// so a stale memo is impossible: an outcome that changes membership
// bumps a generation itself.

// maxSiteRefs bounds the guard and touch lists a Site may hold. The
// lists are inline arrays so re-memoizing a site allocates nothing.
// Partitioned lookups probe one TLB set and one L1 set per level ⊑ er,
// so 8 covers lattices of up to 4 levels (diamond); larger lattices
// simply stay on the slow path for wide read labels.
const maxSiteRefs = 8

// Site is one static access site's memo. The zero value is an empty
// memo (always slow path first). A Site must be used with a single
// AccessKind and a single environment for its whole lifetime; the VM
// allocates one per program instruction per environment.
type Site struct {
	live   bool
	ngens  uint8
	ntouch uint8
	nstats uint8
	addr   uint64
	er, ew lattice.Label
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

// tryFast replays the memo if it is still valid for (addr, er, ew),
// returning the access cost and true; false means the caller must run
// the full simulation (and may re-memoize).
func (s *Site) tryFast(addr uint64, er, ew lattice.Label) (uint64, bool) {
	if !s.live || s.addr != addr || s.er != er || s.ew != ew {
		return 0, false
	}
	var g uint64
	for i := uint8(0); i < s.ngens; i++ {
		g += *s.gens[i]
	}
	if g != s.gsum {
		return 0, false
	}
	for i := uint8(0); i < s.ntouch; i++ {
		s.touch[i].Refresh()
	}
	for i := uint8(0); i < s.nstats; i++ {
		*s.stats[i]++
	}
	return s.cost, true
}

// memoBuilder accumulates one memo during a slow-path access.
type memoBuilder struct {
	s  *Site
	ok bool // still within the inline capacity
}

// guard adds one consulted set's generation (from cache.LineRef).
func (m *memoBuilder) guard(gen *uint64) {
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

func (m *memoBuilder) touchRef(r cache.TouchRef) {
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

func (m *memoBuilder) stat(p *uint64) {
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

// seal finalizes the memo. It must be called after the access has run:
// the memoized paths mutate no membership, so the generation sum taken
// here equals the pre-access sum and guards future replays.
func (m *memoBuilder) seal(addr uint64, er, ew lattice.Label, cost uint64) {
	s := m.s
	if !m.ok {
		s.live = false
		return
	}
	var g uint64
	for i := uint8(0); i < s.ngens; i++ {
		g += *s.gens[i]
	}
	s.addr, s.er, s.ew, s.cost, s.gsum = addr, er, ew, cost, g
	s.live = true
}

// reset clears a site for re-memoization.
func (s *Site) reset() memoBuilder {
	s.live = false
	s.ngens, s.ntouch, s.nstats = 0, 0, 0
	return memoBuilder{s: s, ok: true}
}

// SiteEnv is implemented by environments that support the memoized
// fast path. AccessSite is exactly Access — same cost, same state
// change, same statistics — plus a per-site memo: callers must pass
// the same *Site for the same static access site (and a fixed kind),
// and distinct Sites for distinct sites. Environments without a
// profitable fast path simply don't implement the interface; callers
// fall back to Access.
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

// ---------------------------------------------------------------------------
// Unpartitioned

// AccessSite implements SiteEnv via normalAccessSite.
func (u *Unpartitioned) AccessSite(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	if c, ok := s.tryFast(addr, er, ew); ok {
		return c
	}
	h, hcfg := u.data, u.cfg.Data
	if kind == Fetch {
		h, hcfg = u.instr, u.cfg.Instr
	}
	return normalAccessSite(s, h, hcfg, addr, er, ew, u.statsFor(kind))
}

// normalAccessSite is normalAccess plus a memo of its steady all-hit
// outcome (TLB hit + L1 hit): cost L1.HitLatency, two LRU refreshes,
// tlb-hit + l1-hit counters, guarded by addr's TLB and L1 sets.
func normalAccessSite(s *Site, h *hier, hcfg HierarchyConfig, addr uint64, er, ew lattice.Label, st *hierStats) uint64 {
	// Capture line refs before the access (pure probes); then run the
	// unchanged generic path so the slow path's semantics are literally
	// normalAccess. An all-hit access performs no fills, so the refs
	// and generations stay valid across it.
	tgen, tref, tlbHit := h.tlb.LineRef(addr)
	lgen, lref, l1Hit := h.l1.LineRef(addr)
	cost := normalAccess(h, hcfg, addr, st)
	if !tlbHit || !l1Hit {
		s.live = false
		return cost
	}
	m := s.reset()
	m.guard(tgen)
	m.guard(lgen)
	m.touchRef(tref)
	m.touchRef(lref)
	m.stat(st.tlbh)
	m.stat(st.l1h)
	m.seal(addr, er, ew, cost)
	return cost
}

// ---------------------------------------------------------------------------
// NoFill

// AccessSite implements SiteEnv. Public-write accesses (ew = ⊥) use the
// normal hierarchy and memoize the all-hit outcome like Unpartitioned.
// No-fill accesses mutate nothing at all, so ANY outcome — hit or miss
// — is memoizable: cost plus the stats path it took, guarded by every
// set it consulted.
func (n *NoFill) AccessSite(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	if c, ok := s.tryFast(addr, er, ew); ok {
		return c
	}
	h, hcfg := n.data, n.cfg.Data
	if kind == Fetch {
		h, hcfg = n.instr, n.cfg.Instr
	}
	st := n.statsFor(kind)
	if ew == n.lat.Bot() {
		return normalAccessSite(s, h, hcfg, addr, er, ew, st)
	}
	cost := noFillAccess(h, hcfg, addr, st)
	// Replay the exact stats path noFillAccess took (state untouched,
	// so re-deriving it from membership is faithful).
	m := s.reset()
	tgen, _, tlbHit := h.tlb.LineRef(addr)
	lgen, _, l1Hit := h.l1.LineRef(addr)
	m.guard(tgen)
	m.guard(lgen)
	if tlbHit {
		m.stat(st.tlbh)
	} else {
		m.stat(st.tlbm)
	}
	if l1Hit {
		m.stat(st.l1h)
	} else {
		m.stat(st.l1m)
		l2gen, _, l2Hit := h.l2.LineRef(addr)
		m.guard(l2gen)
		if l2Hit {
			m.stat(st.l2h)
		} else {
			m.stat(st.l2m)
		}
	}
	m.seal(addr, er, ew, cost)
	return cost
}

// ---------------------------------------------------------------------------
// Partitioned

// AccessSite implements SiteEnv. The memoized outcome is the all-hit
// state across the (er, ew) plan's probed partitions: a TLB hit and an
// L1 hit somewhere in the probe list. The captured touch list replays
// the refreshing probes — every partition holding the block whose level
// the write label may modify — in plan order, which is exactly what
// partLookup does on the generic path.
func (p *Partitioned) AccessSite(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	if c, ok := s.tryFast(addr, er, ew); ok {
		return c
	}
	parts := p.data
	if kind == Fetch {
		parts = p.instr
	}
	plan := &p.plans[er.ID()*p.lat.Size()+ew.ID()]
	st := p.statsFor(kind)
	// Pre-probe (pure) to find out whether this will be an all-hit
	// access, and capture the refresh refs if so.
	m := s.reset()
	tlbHit, l1Hit := false, false
	for _, step := range plan.probe {
		h := parts[step.id]
		tgen, tref, tok := h.tlb.LineRef(addr)
		lgen, lref, lok := h.l1.LineRef(addr)
		m.guard(tgen)
		m.guard(lgen)
		if tok {
			tlbHit = true
			if step.refresh {
				m.touchRef(tref)
			}
		}
		if lok {
			l1Hit = true
			if step.refresh {
				m.touchRef(lref)
			}
		}
	}
	cost := p.Access(kind, addr, er, ew)
	if tlbHit && l1Hit {
		m.stat(st.tlbh)
		m.stat(st.l1h)
		m.seal(addr, er, ew, cost)
	} else {
		s.live = false
	}
	return cost
}

// ---------------------------------------------------------------------------
// Flat

// AccessSite implements SiteEnv trivially: Flat has no state to memo.
func (f *Flat) AccessSite(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	return f.Latency
}
