package hw

import (
	"repro/internal/lattice"
	"repro/internal/machine/cache"
)

// ---------------------------------------------------------------------------
// Unpartitioned (commodity, insecure) hardware — the "nopar" baseline.

// Unpartitioned models a commodity hierarchy that ignores timing
// labels: every access searches and fills the single shared hierarchy.
// It is the insecure baseline of the paper's evaluation (§8.3).
type Unpartitioned struct {
	lat   lattice.Lattice
	cfg   Config
	data  *hier
	instr *hier
	bp    *predictor
	stats Stats
}

var _ Env = (*Unpartitioned)(nil)

// NewUnpartitioned constructs the baseline environment.
func NewUnpartitioned(lat lattice.Lattice, cfg Config) *Unpartitioned {
	mustValidate(cfg)
	return &Unpartitioned{
		lat:   lat,
		cfg:   cfg,
		data:  newHier(cfg.Data, "DTLB"),
		instr: newHier(cfg.Instr, "ITLB"),
		bp:    newPredictor(cfg.BP.Size),
	}
}

func mustValidate(cfg Config) {
	if err := cfg.Data.validate(); err != nil {
		panic(err)
	}
	if err := cfg.Instr.validate(); err != nil {
		panic(err)
	}
}

func (u *Unpartitioned) Access(kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	return u.access(nil, kind, addr, er, ew)
}

// access is the walk behind Access (s nil) and AccessSite.
func (u *Unpartitioned) access(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	h, hcfg := u.data, &u.cfg.Data
	if kind == Fetch {
		h, hcfg = u.instr, &u.cfg.Instr
	}
	m := s.begin(addr, er, ew)
	st := u.stats.counters(kind)
	return normalAccess(&m, h, hcfg, addr, &st)
}

// Branch implements Env: the single shared predictor is always
// consulted and trained, whatever the labels — insecure by design.
func (u *Unpartitioned) Branch(addr uint64, taken bool, er, ew lattice.Label) uint64 {
	c := branchCost(u.bp, u.cfg.BP, addr, taken)
	u.countBranch(c)
	return c
}

func (u *Unpartitioned) countBranch(c uint64) {
	if c > 0 {
		u.stats.BPMisses++
	} else {
		u.stats.BPHits++
	}
}

func (u *Unpartitioned) Clone() Env {
	return &Unpartitioned{lat: u.lat, cfg: u.cfg, data: u.data.clone(), instr: u.instr.clone(), bp: u.bp.clone()}
}

// ProjEqual: all unpartitioned state is public, i.e. lives at ⊥; the
// projection at any other level is empty and therefore always equal.
func (u *Unpartitioned) ProjEqual(other Env, lv lattice.Label) bool {
	o, ok := other.(*Unpartitioned)
	if !ok {
		return false
	}
	if lv != u.lat.Bot() {
		return true
	}
	return u.data.stateEqual(o.data) && u.instr.stateEqual(o.instr) && u.bp.stateEqual(o.bp)
}

func (u *Unpartitioned) LowEqual(other Env, lv lattice.Label) bool {
	return lowEqual(u, other, lv)
}

func (u *Unpartitioned) Reset() {
	u.data.flush()
	u.instr.flush()
	u.bp.flush()
}

func (u *Unpartitioned) Lattice() lattice.Lattice { return u.lat }
func (u *Unpartitioned) Name() string             { return "unpartitioned" }
func (u *Unpartitioned) Stats() Stats             { return u.stats }

// normalAccess performs a conventional TLB + L1 + L2 + memory access
// with fills and LRU updates, returning its cost. It looks the TLB and
// L1 up once each, refreshing a hit, and records the access in m as it
// goes: a TLB hit and an L1 hit seal m's memo, and any miss clears it.
func normalAccess(m *memo, h *hier, cfg *HierarchyConfig, addr uint64, st *hierStats) uint64 {
	var cost uint64
	if m.probe(h.tlb, addr, true) {
		m.count(st.tlbh)
	} else {
		*st.tlbm++
		m.drop()
		cost += cfg.TLBMissPenalty
		h.tlb.Fill(addr)
	}
	cost += cfg.L1.HitLatency
	if m.probe(h.l1, addr, true) {
		m.count(st.l1h)
		m.seal(h.unit, cost)
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

// lowEqual implements ~ℓ from ProjEqual over all levels ℓ' ⊑ ℓ.
func lowEqual(e Env, other Env, lv lattice.Label) bool {
	lat := e.Lattice()
	for _, l := range lat.Levels() {
		if lat.Leq(l, lv) && !e.ProjEqual(other, l) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// NoFill (standard secure hardware, §4.2)

// NoFill models standard hardware with a no-fill mode, per §4.2: the
// whole hierarchy is treated as public (level ⊥). Commands whose write
// label is not ⊥ execute in no-fill mode: cache and TLB hits are served
// at hit latency but update no state (not even LRU order); misses are
// served from the next level with no fills or evictions. Commands with
// ew = ⊥ use the hierarchy normally.
type NoFill struct {
	lat   lattice.Lattice
	cfg   Config
	data  *hier
	instr *hier
	bp    *predictor
	stats Stats
}

var _ Env = (*NoFill)(nil)

// NewNoFill constructs the §4.2 environment.
func NewNoFill(lat lattice.Lattice, cfg Config) *NoFill {
	mustValidate(cfg)
	return &NoFill{
		lat:   lat,
		cfg:   cfg,
		data:  newHier(cfg.Data, "DTLB"),
		instr: newHier(cfg.Instr, "ITLB"),
		bp:    newPredictor(cfg.BP.Size),
	}
}

func (n *NoFill) Access(kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	return n.access(nil, kind, addr, er, ew)
}

// access is the walk behind Access (s nil) and AccessSite.
func (n *NoFill) access(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	h, hcfg := n.data, &n.cfg.Data
	if kind == Fetch {
		h, hcfg = n.instr, &n.cfg.Instr
	}
	m := s.begin(addr, er, ew)
	st := n.stats.counters(kind)
	if ew == n.lat.Bot() {
		return normalAccess(&m, h, hcfg, addr, &st)
	}
	return noFillAccess(&m, h, hcfg, addr, &st)
}

// noFillAccess computes the access cost without modifying any state:
// hits are probed without an LRU update; misses charge the full path
// with no fills. This is what makes Property 5 hold for commands with
// non-public write labels. Since it changes nothing, every outcome, hit
// or miss, seals m's memo: the cost and the counters of the path it
// took, guarded by every set it consulted.
func noFillAccess(m *memo, h *hier, cfg *HierarchyConfig, addr uint64, st *hierStats) uint64 {
	var cost uint64
	if m.probe(h.tlb, addr, false) {
		m.count(st.tlbh)
	} else {
		m.count(st.tlbm)
		cost += cfg.TLBMissPenalty
	}
	cost += cfg.L1.HitLatency
	if m.probe(h.l1, addr, false) {
		m.count(st.l1h)
		m.seal(h.unit, cost)
		return cost
	}
	m.count(st.l1m)
	cost += cfg.L2.HitLatency
	if m.probe(h.l2, addr, false) {
		m.count(st.l2h)
	} else {
		m.count(st.l2m)
		cost += cfg.MemLatency
	}
	m.seal(h.l2Unit, cost)
	return cost
}

// Branch implements Env: public-write-label branches use the (public)
// predictor normally; all others charge a fixed mispredict penalty and
// leave it untouched — the predictor analogue of no-fill mode.
func (n *NoFill) Branch(addr uint64, taken bool, er, ew lattice.Label) uint64 {
	if !n.bp.enabled() {
		return 0
	}
	if ew == n.lat.Bot() {
		c := branchCost(n.bp, n.cfg.BP, addr, taken)
		if c > 0 {
			n.stats.BPMisses++
		} else {
			n.stats.BPHits++
		}
		return c
	}
	n.stats.BPMisses++
	return n.cfg.BP.MissPenalty
}

func (n *NoFill) Clone() Env {
	return &NoFill{lat: n.lat, cfg: n.cfg, data: n.data.clone(), instr: n.instr.clone(), bp: n.bp.clone()}
}

func (n *NoFill) ProjEqual(other Env, lv lattice.Label) bool {
	o, ok := other.(*NoFill)
	if !ok {
		return false
	}
	if lv != n.lat.Bot() {
		return true
	}
	return n.data.stateEqual(o.data) && n.instr.stateEqual(o.instr) && n.bp.stateEqual(o.bp)
}

func (n *NoFill) LowEqual(other Env, lv lattice.Label) bool {
	return lowEqual(n, other, lv)
}

func (n *NoFill) Reset() {
	n.data.flush()
	n.instr.flush()
	n.bp.flush()
}

func (n *NoFill) Lattice() lattice.Lattice { return n.lat }
func (n *NoFill) Name() string             { return "nofill" }
func (n *NoFill) Stats() Stats             { return n.stats }

// ---------------------------------------------------------------------------
// Partitioned (efficient secure hardware, §4.3)

// Partitioned models caches and TLBs statically partitioned per
// security level (§4.3, generalized from two levels to any finite
// lattice):
//
//   - A lookup under read label er searches the partitions of every
//     level ℓ ⊑ er, so timing depends only on ⊑-er state (Property 6).
//   - A hit in partition p updates p's LRU order only when ew ⊑ p
//     (Property 5 forbids modifying state below the write label).
//   - A miss installs the block into partition ew exactly. If the
//     block already resides in an unsearched partition p' and ew ⊑ p',
//     the controller moves it (invalidates it there) to preserve the
//     single-copy invariant; either way the access costs the full miss
//     path, so timing never reveals unsearched-partition state.
type Partitioned struct {
	lat   lattice.Lattice
	cfg   Config  // original (unsplit) configuration
	pcfg  Config  // per-partition configuration
	data  []*hier // indexed by label ID
	instr []*hier // indexed by label ID
	bps   []*predictor
	stats Stats
	// dside/iside are the data and instruction hierarchies as a walk
	// reads them; wire builds them after construction and Clone.
	dside, iside side
	// plans precomputes, for every (er, ew) label pair, which
	// partitions a lookup searches (and whether a hit refreshes LRU),
	// which partitions a fill invalidates, and whether a branch may
	// consult its predictor. The lattice is immutable, so this turns
	// the per-access Levels/Leq iteration into a tight walk over a
	// prebuilt list. Indexed by er.ID()*lat.Size()+ew.ID(); shared
	// (read-only) between clones.
	plans []accessPlan
}

// side is one hierarchy, data or instruction, of a Partitioned
// environment as its walk reads it: each structure's partitions
// indexed by label ID, the per-partition geometry, the counters its
// accesses update, and its memo unit (see hier.unit).
type side struct {
	tlb, l1, l2 []*cache.Cache
	cfg         *HierarchyConfig
	st          hierStats
	unit        uint8
}

func newSide(parts []*hier, cfg *HierarchyConfig, st hierStats) side {
	sd := side{cfg: cfg, st: st, unit: parts[0].unit}
	for _, h := range parts {
		sd.tlb = append(sd.tlb, h.tlb)
		sd.l1 = append(sd.l1, h.l1)
		sd.l2 = append(sd.l2, h.l2)
	}
	return sd
}

// probeStep is one partition to search during a lookup.
type probeStep struct {
	id      int
	refresh bool // ew ⊑ level: a hit may refresh LRU (Property 5)
}

// accessPlan is the precomputed partition schedule for one (er, ew)
// label pair: the lookup probes, the fill-time invalidations
// (partitions ≠ ew with ew ⊑ p', in the same deterministic level order
// the dynamic loops used), and whether ew ⊑ er (a branch may consult
// the predictor).
type accessPlan struct {
	probe   []probeStep
	inval   []int
	predict bool
}

// buildPlans computes the per-(er, ew) access plans for a lattice.
func buildPlans(lat lattice.Lattice) []accessPlan {
	n := lat.Size()
	plans := make([]accessPlan, n*n)
	for _, er := range lat.Levels() {
		for _, ew := range lat.Levels() {
			pl := &plans[er.ID()*n+ew.ID()]
			pl.predict = lat.Leq(ew, er)
			for _, lv := range lat.Levels() {
				if lat.Leq(lv, er) {
					pl.probe = append(pl.probe, probeStep{id: lv.ID(), refresh: lat.Leq(ew, lv)})
				}
				if lv != ew && lat.Leq(ew, lv) {
					pl.inval = append(pl.inval, lv.ID())
				}
			}
		}
	}
	return plans
}

var _ Env = (*Partitioned)(nil)

// NewPartitioned constructs the §4.3 environment with one partition of
// every structure per lattice level.
func NewPartitioned(lat lattice.Lattice, cfg Config) *Partitioned {
	mustValidate(cfg)
	n := lat.Size()
	p := &Partitioned{
		lat:   lat,
		cfg:   cfg,
		pcfg:  Config{Data: splitHierarchy(cfg.Data, n), Instr: splitHierarchy(cfg.Instr, n)},
		plans: buildPlans(lat),
	}
	p.data = make([]*hier, n)
	p.instr = make([]*hier, n)
	p.bps = make([]*predictor, n)
	bpSize := cfg.BP.Size / n
	if cfg.BP.Size > 0 && bpSize < 1 {
		bpSize = 1
	}
	p.pcfg.BP = BPConfig{Size: bpSize, MissPenalty: cfg.BP.MissPenalty}
	for i := 0; i < n; i++ {
		p.data[i] = newHier(p.pcfg.Data, "DTLB")
		p.instr[i] = newHier(p.pcfg.Instr, "ITLB")
		p.bps[i] = newPredictor(bpSize)
	}
	p.wire()
	return p
}

// Branch implements Env. The branch trains the predictor partition of
// its WRITE label (the outcome is information the command writes into
// machine state) and may consult it only when ew ⊑ er, so the timing
// dependence stays within the read label; otherwise a fixed penalty is
// charged and no state is touched. The type system's branch-outcome
// rule (guard level ⊑ ew) makes the stored outcomes no more secret
// than the partition holding them.
func (p *Partitioned) Branch(addr uint64, taken bool, er, ew lattice.Label) uint64 {
	if p.cfg.BP.Size <= 0 {
		return 0
	}
	if !p.plan(er, ew).predict {
		p.stats.BPMisses++
		return p.pcfg.BP.MissPenalty
	}
	c := branchCost(p.bps[ew.ID()], p.pcfg.BP, addr, taken)
	if c > 0 {
		p.stats.BPMisses++
	} else {
		p.stats.BPHits++
	}
	return c
}

// PartitionConfig returns the per-partition configuration (after
// splitting), for reporting.
func (p *Partitioned) PartitionConfig() Config { return p.pcfg }

func (p *Partitioned) Access(kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	return p.access(nil, kind, addr, er, ew)
}

// plan returns the precomputed schedule of the label pair (er, ew).
func (p *Partitioned) plan(er, ew lattice.Label) *accessPlan {
	return &p.plans[er.ID()*len(p.data)+ew.ID()]
}

// access is the one walk behind Access (s nil) and AccessSite. The TLB
// lookup and then the L1 lookup search the plan's partitions once
// each: a hit refreshes the line where the plan says so, and the walk
// records in s's memo every set it consulted, every refresh and every
// counter it bumped. A TLB hit and an L1 hit seal the memo; any miss
// clears it, and the walk goes on to L2 and the fills.
func (p *Partitioned) access(s *Site, kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	sd := &p.dside
	if kind == Fetch {
		sd = &p.iside
	}
	plan := p.plan(er, ew)
	ewID := ew.ID()
	m := s.begin(addr, er, ew)
	var cost uint64
	// TLB.
	if m.lookup(sd.tlb, plan, addr) {
		m.count(sd.st.tlbh)
	} else {
		*sd.st.tlbm++
		m.drop()
		cost += sd.cfg.TLBMissPenalty
		partFill(sd.tlb, plan, ewID, addr)
	}
	// L1.
	cost += sd.cfg.L1.HitLatency
	if m.lookup(sd.l1, plan, addr) {
		m.count(sd.st.l1h)
		m.seal(sd.unit, cost)
		return cost
	}
	*sd.st.l1m++
	// L2.
	cost += sd.cfg.L2.HitLatency
	hit := false
	for _, step := range plan.probe {
		if sd.l2[step.id].Probe(addr, step.refresh) {
			hit = true
		}
	}
	if hit {
		*sd.st.l2h++
		partFill(sd.l1, plan, ewID, addr)
		return cost
	}
	*sd.st.l2m++
	cost += sd.cfg.MemLatency
	partFill(sd.l2, plan, ewID, addr)
	partFill(sd.l1, plan, ewID, addr)
	return cost
}

// wire builds the walk's view of the hierarchies, pointing at this
// instance's caches, geometry and counters; called after construction
// and after Clone (the view must target the new instance, not the
// prototype).
func (p *Partitioned) wire() {
	p.dside = newSide(p.data, &p.pcfg.Data, p.stats.counters(Read))
	p.iside = newSide(p.instr, &p.pcfg.Instr, p.stats.counters(Fetch))
}

// partFill installs addr into partition ew of one structure (cs, by
// label ID) and removes stale copies from any other partition p' that
// Property 5 lets us modify (ew ⊑ p').
func partFill(cs []*cache.Cache, plan *accessPlan, ewID int, addr uint64) {
	for _, id := range plan.inval {
		cs[id].Invalidate(addr)
	}
	cs[ewID].Fill(addr)
}

func (p *Partitioned) Clone() Env {
	// plans are immutable and lattice-derived: share them.
	n := &Partitioned{lat: p.lat, cfg: p.cfg, pcfg: p.pcfg, plans: p.plans}
	n.data = make([]*hier, len(p.data))
	n.instr = make([]*hier, len(p.instr))
	n.bps = make([]*predictor, len(p.bps))
	for i := range p.data {
		n.data[i] = p.data[i].clone()
		n.instr[i] = p.instr[i].clone()
		n.bps[i] = p.bps[i].clone()
	}
	n.wire()
	return n
}

// ProjEqual compares exactly the level-lv partitions.
func (p *Partitioned) ProjEqual(other Env, lv lattice.Label) bool {
	o, ok := other.(*Partitioned)
	if !ok || len(o.data) != len(p.data) {
		return false
	}
	id := lv.ID()
	return p.data[id].stateEqual(o.data[id]) && p.instr[id].stateEqual(o.instr[id]) &&
		p.bps[id].stateEqual(o.bps[id])
}

func (p *Partitioned) LowEqual(other Env, lv lattice.Label) bool {
	return lowEqual(p, other, lv)
}

func (p *Partitioned) Reset() {
	for i := range p.data {
		p.data[i].flush()
		p.instr[i].flush()
		p.bps[i].flush()
	}
}

func (p *Partitioned) Lattice() lattice.Lattice { return p.lat }
func (p *Partitioned) Name() string             { return "partitioned" }
func (p *Partitioned) Stats() Stats             { return p.stats }

// ---------------------------------------------------------------------------
// Flat (no machine state) — useful for tests and as a degenerate model.

// Flat is a machine environment with no state at all: every access
// costs a fixed latency. It trivially satisfies Properties 5–7 and
// isolates direct timing dependencies from indirect ones in tests.
type Flat struct {
	lat     lattice.Lattice
	Latency uint64
}

var _ Env = (*Flat)(nil)

// NewFlat constructs a stateless environment with the given fixed cost
// per access.
func NewFlat(lat lattice.Lattice, latency uint64) *Flat {
	return &Flat{lat: lat, Latency: latency}
}

func (f *Flat) Access(kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	return f.Latency
}

// Branch implements Env: stateless, free.
func (f *Flat) Branch(addr uint64, taken bool, er, ew lattice.Label) uint64 { return 0 }
func (f *Flat) Clone() Env                                                  { c := *f; return &c }
func (f *Flat) ProjEqual(other Env, lv lattice.Label) bool {
	_, ok := other.(*Flat)
	return ok
}
func (f *Flat) LowEqual(other Env, lv lattice.Label) bool { return f.ProjEqual(other, lv) }
func (f *Flat) Reset()                                    {}
func (f *Flat) Lattice() lattice.Lattice                  { return f.lat }
func (f *Flat) Name() string                              { return "flat" }
func (f *Flat) Stats() Stats                              { return Stats{} }
