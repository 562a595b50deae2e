package hw

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lattice"
	"repro/internal/machine/cache"
)

// This file keeps the two-pass lookup the environments used before
// they had one walk, as an independent reference for it: every
// structure is searched with cache.Access, Contains or Probe, and the
// Partitioned schedule is derived from the lattice on every access
// instead of from the precomputed plans.

// refAccess performs one access on e the reference way.
func refAccess(e Env, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	switch e := e.(type) {
	case *Unpartitioned:
		h, hcfg := e.data, e.cfg.Data
		if kind == Fetch {
			h, hcfg = e.instr, e.cfg.Instr
		}
		return refNormalAccess(h, hcfg, addr, e.stats.counters(kind))
	case *NoFill:
		h, hcfg := e.data, e.cfg.Data
		if kind == Fetch {
			h, hcfg = e.instr, e.cfg.Instr
		}
		if ew == e.lat.Bot() {
			return refNormalAccess(h, hcfg, addr, e.stats.counters(kind))
		}
		return refNoFillAccess(h, hcfg, addr, e.stats.counters(kind))
	case *Partitioned:
		return refPartitionedAccess(e, kind, addr, er, ew)
	case *Flat:
		return e.Latency
	}
	panic(fmt.Sprintf("no reference for %T", e))
}

// refNormalAccess is a conventional TLB + L1 + L2 + memory access with
// fills and LRU updates.
func refNormalAccess(h *hier, cfg HierarchyConfig, addr uint64, st hierStats) uint64 {
	var cost uint64
	if h.tlb.Access(addr) {
		*st.tlbh++
	} else {
		*st.tlbm++
		cost += cfg.TLBMissPenalty
		h.tlb.Fill(addr)
	}
	cost += cfg.L1.HitLatency
	if h.l1.Access(addr) {
		*st.l1h++
		return cost
	}
	*st.l1m++
	cost += cfg.L2.HitLatency
	if h.l2.Access(addr) {
		*st.l2h++
		h.l1.Fill(addr)
		return cost
	}
	*st.l2m++
	cost += cfg.MemLatency
	h.l2.Fill(addr)
	h.l1.Fill(addr)
	return cost
}

// refNoFillAccess charges an access with pure probes and no fills.
func refNoFillAccess(h *hier, cfg HierarchyConfig, addr uint64, st hierStats) uint64 {
	var cost uint64
	if h.tlb.Contains(addr) {
		*st.tlbh++
	} else {
		*st.tlbm++
		cost += cfg.TLBMissPenalty
	}
	cost += cfg.L1.HitLatency
	if h.l1.Contains(addr) {
		*st.l1h++
		return cost
	}
	*st.l1m++
	cost += cfg.L2.HitLatency
	if h.l2.Contains(addr) {
		*st.l2h++
		return cost
	}
	*st.l2m++
	cost += cfg.MemLatency
	return cost
}

// refPartitionedAccess is §4.3's access: search the partitions of every
// level ⊑ er, refreshing a hit in partition lv only when ew ⊑ lv, and
// on a miss fill partition ew after invalidating every other partition
// lv with ew ⊑ lv.
func refPartitionedAccess(p *Partitioned, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	parts, hcfg := p.data, p.pcfg.Data
	if kind == Fetch {
		parts, hcfg = p.instr, p.pcfg.Instr
	}
	st := p.stats.counters(kind)
	lat := p.lat
	lookup := func(sel func(*hier) *cache.Cache) bool {
		hit := false
		for _, lv := range lat.Levels() {
			if lat.Leq(lv, er) && sel(parts[lv.ID()]).Probe(addr, lat.Leq(ew, lv)) {
				hit = true
			}
		}
		return hit
	}
	fill := func(sel func(*hier) *cache.Cache) {
		for _, lv := range lat.Levels() {
			if lv != ew && lat.Leq(ew, lv) {
				sel(parts[lv.ID()]).Invalidate(addr)
			}
		}
		sel(parts[ew.ID()]).Fill(addr)
	}
	tlb := func(h *hier) *cache.Cache { return h.tlb }
	l1 := func(h *hier) *cache.Cache { return h.l1 }
	l2 := func(h *hier) *cache.Cache { return h.l2 }
	var cost uint64
	if lookup(tlb) {
		*st.tlbh++
	} else {
		*st.tlbm++
		cost += hcfg.TLBMissPenalty
		fill(tlb)
	}
	cost += hcfg.L1.HitLatency
	if lookup(l1) {
		*st.l1h++
		return cost
	}
	*st.l1m++
	cost += hcfg.L2.HitLatency
	if lookup(l2) {
		*st.l2h++
		fill(l1)
		return cost
	}
	*st.l2m++
	cost += hcfg.MemLatency
	fill(l2)
	fill(l1)
	return cost
}

// siteAccess issues an access through a Site the way the VM does:
// Replay, then AccessSite when the memo declines.
func siteAccess(e SiteEnv, s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	if c, ok := s.Replay(addr, er, ew); ok {
		return c
	}
	return e.AccessSite(s, kind, addr, er, ew)
}

// wideConfig has many more sets than TinyConfig, so most fills land in
// sets a memo did not consult and the memo must survive them.
func wideConfig() Config {
	wide := TinyConfig()
	wide.Data.L1.Sets, wide.Data.L2.Sets, wide.Data.TLBSets = 64, 128, 16
	wide.Instr = wide.Data
	return wide
}

// TestWalkMatchesReference drives three clones of every SiteEnv with
// one random access sequence: the reference two-pass lookup, Access,
// and Sites replayed the way the VM replays them. Each access must cost
// the same on all three, and at the end the Stats and the state at
// every lattice level must be equal. Accesses come from a few static
// sites; a site's address sometimes moves to another word of its L1
// line (the memo must replay or be exact) and sometimes to other lines
// (the memo must re-key), and its read label sometimes changes.
func TestWalkMatchesReference(t *testing.T) {
	for _, lt := range []struct {
		name string
		lat  lattice.Lattice
	}{
		{"two-point", lattice.TwoPoint()},
		{"diamond", lattice.Diamond()},
		// Wide read labels probe five partitions: more guards than
		// maxSiteRefs, so those sites never memoize.
		{"linear5", lattice.Linear("L0", "L1", "L2", "L3", "L4")},
	} {
		for _, geo := range []struct {
			name string
			cfg  Config
			span int // site addresses are multiples of 16 below span
		}{
			// Random addresses provoke evictions and TLB misses.
			{"tiny", TinyConfig(), 512},
			{"wide", wideConfig(), 8192},
		} {
			levels := lt.lat.Levels()
			for _, se := range siteEnvs(lt.lat, geo.cfg) {
				t.Run(lt.name+"/"+geo.name+"/"+se.Name(), func(t *testing.T) {
					rng := rand.New(rand.NewSource(42))
					ref, plain, fast := se.Clone(), se.Clone(), se.Clone().(SiteEnv)
					const nSites = 24
					type siteSpec struct {
						kind   AccessKind
						addr   uint64
						er, ew lattice.Label
					}
					specs := make([]siteSpec, nSites)
					sites := make([]Site, nSites)
					for i := range specs {
						specs[i] = siteSpec{
							kind: AccessKind(rng.Intn(3)),
							addr: uint64(rng.Intn(geo.span/16)) * 16,
							er:   levels[rng.Intn(len(levels))],
							ew:   levels[rng.Intn(len(levels))],
						}
					}
					for step := 0; step < 20000; step++ {
						i := rng.Intn(nSites)
						sp := specs[i]
						addr := sp.addr
						switch rng.Intn(16) {
						case 0, 1, 2:
							addr += 8 // the other word of the line
						case 3:
							addr += uint64(1+rng.Intn(4)) * 16 // another line
						}
						if rng.Intn(64) == 0 {
							sp.er = levels[rng.Intn(len(levels))]
						}
						cr := refAccess(ref, sp.kind, addr, sp.er, sp.ew)
						cp := plain.Access(sp.kind, addr, sp.er, sp.ew)
						cf := siteAccess(fast, &sites[i], sp.kind, addr, sp.er, sp.ew)
						if cr != cp || cr != cf {
							t.Fatalf("step %d site %d (%v %#x): cost %d (reference), %d (Access), %d (Site)", step, i, sp.kind, addr, cr, cp, cf)
						}
					}
					if ref.Stats() != plain.Stats() || ref.Stats() != fast.Stats() {
						t.Fatalf("stats diverged:\nreference %+v\nAccess    %+v\nSite      %+v", ref.Stats(), plain.Stats(), fast.Stats())
					}
					for _, lv := range levels {
						if !ref.ProjEqual(plain, lv) || !ref.ProjEqual(fast, lv) {
							t.Fatalf("state diverged at level %v", lv)
						}
					}
				})
			}
		}
	}
}

// TestSiteMemoLineKey checks the memo's key: an access to another word
// of the memo's unit (the L1 line under TinyConfig, 16 bytes, finer
// than the 256-byte page) replays it, and one past the unit's boundary
// does not, even within the same page.
func TestSiteMemoLineKey(t *testing.T) {
	lat := lattice.TwoPoint()
	lo, hi := lat.Bot(), lat.Top()
	const site = 0x100 // a 16-byte unit: 0x100-0x10f
	for _, tc := range []struct {
		env    SiteEnv
		er, ew lattice.Label
	}{
		{NewUnpartitioned(lat, TinyConfig()), lo, lo},
		{NewNoFill(lat, TinyConfig()), hi, hi},
		{NewPartitioned(lat, TinyConfig()), lo, lo},
		{NewPartitioned(lat, TinyConfig()), hi, hi},
	} {
		t.Run(tc.env.Name()+"/"+tc.er.String()+tc.ew.String(), func(t *testing.T) {
			// Make the neighbouring unit resident too, so that only the
			// key, not a miss, can stop a replay there.
			tc.env.Access(Read, site+16, tc.er, tc.ew)
			var s Site
			tc.env.AccessSite(&s, Read, site, tc.er, tc.ew) // cold: fills
			tc.env.AccessSite(&s, Read, site, tc.er, tc.ew) // memoized
			for _, a := range []uint64{site, site + 8, site + 15} {
				if _, ok := s.Replay(a, tc.er, tc.ew); !ok {
					t.Errorf("no replay at %#x, inside the memo's unit", a)
				}
			}
			for _, a := range []uint64{site - 1, site + 16} {
				if _, ok := s.Replay(a, tc.er, tc.ew); ok {
					t.Errorf("replayed at %#x, outside the memo's unit", a)
				}
			}
		})
	}
}
