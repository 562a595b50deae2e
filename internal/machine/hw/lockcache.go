package hw

import (
	"repro/internal/lattice"
)

// LockProtect models a PL-cache-style design in the spirit of Wang &
// Lee (cited in the paper's §2.2): a single shared hierarchy in which
// confidential accesses LOCK the lines they touch, and public fills may
// not displace locked lines. The intent is that once the secret working
// set (e.g. an AES table) is resident and locked, public activity can
// no longer observe it.
//
// The paper's critique — "works only under the assumption that the AES
// lookup table is preloaded into cache and that the load time is not
// observable" — is reproducible here: the *initial* confidential fills
// evict public lines from the shared sets, so a coresident prime+probe
// adversary observes the secret access pattern during warm-up; only
// afterwards does the design go quiet. The props checkers flag exactly
// that: Property 5 (write label) fails on the cold path, while a
// preloaded environment passes the same trials.
type LockProtect struct {
	lat   lattice.Lattice
	cfg   Config
	data  *hier
	instr *hier
	bp    *predictor
	stats Stats
}

var _ Env = (*LockProtect)(nil)

// NewLockProtect constructs the lock-based environment.
func NewLockProtect(lat lattice.Lattice, cfg Config) *LockProtect {
	mustValidate(cfg)
	return &LockProtect{
		lat:   lat,
		cfg:   cfg,
		data:  newHier(cfg.Data, "DTLB"),
		instr: newHier(cfg.Instr, "ITLB"),
		bp:    newPredictor(cfg.BP.Size),
	}
}

// Access implements Env. Public accesses behave normally except that
// fills skip locked lines (bypassing when a set is fully locked);
// confidential accesses lock what they fill.
func (l *LockProtect) Access(kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	h, hcfg := l.data, l.cfg.Data
	st := l.stats.counters(kind)
	if kind == Fetch {
		h, hcfg = l.instr, l.cfg.Instr
	}
	confidential := ew != l.lat.Bot()

	var cost uint64
	if h.tlb.Access(addr) {
		*st.tlbh++
	} else {
		*st.tlbm++
		cost += hcfg.TLBMissPenalty
		if confidential {
			h.tlb.FillLocked(addr)
		} else {
			h.tlb.Fill(addr)
		}
	}
	cost += hcfg.L1.HitLatency
	if h.l1.Access(addr) {
		*st.l1h++
		return cost
	}
	*st.l1m++
	cost += hcfg.L2.HitLatency
	fill := func(c interface {
		Fill(uint64) (uint64, bool)
		FillLocked(uint64) (uint64, bool)
	}) {
		if confidential {
			c.FillLocked(addr)
		} else {
			c.Fill(addr)
		}
	}
	if h.l2.Access(addr) {
		*st.l2h++
		fill(h.l1)
		return cost
	}
	*st.l2m++
	cost += hcfg.MemLatency
	fill(h.l2)
	fill(h.l1)
	return cost
}

// Branch implements Env: one shared predictor, like Unpartitioned (the
// design says nothing about predictors — another gap the contract
// exposes).
func (l *LockProtect) Branch(addr uint64, taken bool, er, ew lattice.Label) uint64 {
	c := branchCost(l.bp, l.cfg.BP, addr, taken)
	if !l.bp.enabled() {
		return 0
	}
	if c > 0 {
		l.stats.BPMisses++
	} else {
		l.stats.BPHits++
	}
	return c
}

// Preload warms and locks a confidential working set — the very
// assumption the design needs. Call before exposing the machine to an
// adversary; the tests show the difference it makes.
func (l *LockProtect) Preload(addrs []uint64) {
	top := l.lat.Top()
	for _, a := range addrs {
		l.Access(Read, a, top, top)
	}
}

// Clone implements Env.
func (l *LockProtect) Clone() Env {
	return &LockProtect{lat: l.lat, cfg: l.cfg, data: l.data.clone(), instr: l.instr.clone(), bp: l.bp.clone()}
}

// ProjEqual implements Env: all state is nominally public (the design
// has no label-indexed state).
func (l *LockProtect) ProjEqual(other Env, lv lattice.Label) bool {
	o, ok := other.(*LockProtect)
	if !ok {
		return false
	}
	if lv != l.lat.Bot() {
		return true
	}
	return l.data.stateEqual(o.data) && l.instr.stateEqual(o.instr) && l.bp.stateEqual(o.bp)
}

// LowEqual implements Env.
func (l *LockProtect) LowEqual(other Env, lv lattice.Label) bool {
	return lowEqual(l, other, lv)
}

// Reset implements Env.
func (l *LockProtect) Reset() {
	l.data.flush()
	l.instr.flush()
	l.bp.flush()
}

// Lattice implements Env.
func (l *LockProtect) Lattice() lattice.Lattice { return l.lat }

// Name implements Env.
func (l *LockProtect) Name() string { return "lock-protect" }

// Stats implements Env.
func (l *LockProtect) Stats() Stats { return l.stats }

// LockedLines reports the locked line counts (data L1, data L2) for
// inspection in tests.
func (l *LockProtect) LockedLines() (l1, l2 int) {
	return l.data.l1.LockedCount(), l.data.l2.LockedCount()
}
