package hw

import (
	"repro/internal/lattice"
)

// FlushOnHigh models a flush-based secure design: a single public
// hierarchy that is flushed entirely whenever a command with a
// non-public write label executes; such commands are then served
// straight from memory.
//
// This design is instructive because it is (for well-typed programs)
// end-to-end secure — after any confidential region the public cache
// state is empty in every execution, so Theorem 1's conclusion holds —
// yet it VIOLATES the paper's per-step write-label requirement
// (Property 5): a high-context step does modify public machine state
// (it empties it). The props checkers detect exactly this, which makes
// FlushOnHigh a demonstration that the paper's software–hardware
// contract is sufficient but not necessary: conservative per-step
// conditions can reject globally-secure designs. (It is also an
// ablation point: flushing costs far more than partitioning.)
type FlushOnHigh struct {
	lat   lattice.Lattice
	cfg   Config
	data  *hier
	instr *hier
	bp    *predictor
	stats Stats
}

var _ Env = (*FlushOnHigh)(nil)

// NewFlushOnHigh constructs the flush-based environment.
func NewFlushOnHigh(lat lattice.Lattice, cfg Config) *FlushOnHigh {
	mustValidate(cfg)
	return &FlushOnHigh{
		lat:   lat,
		cfg:   cfg,
		data:  newHier(cfg.Data, "DTLB"),
		instr: newHier(cfg.Instr, "ITLB"),
		bp:    newPredictor(cfg.BP.Size),
	}
}

// Access implements Env. Public-write-label accesses behave normally;
// all others flush the entire machine state and pay the full miss path.
func (f *FlushOnHigh) Access(kind AccessKind, addr uint64, er, ew lattice.Label) uint64 {
	h, hcfg := f.data, &f.cfg.Data
	st := f.stats.counters(kind)
	if kind == Fetch {
		h, hcfg = f.instr, &f.cfg.Instr
	}
	if ew == f.lat.Bot() {
		var none memo
		return normalAccess(&none, h, hcfg, addr, &st)
	}
	// Confidential context: flush everything, serve from memory.
	f.data.flush()
	f.instr.flush()
	f.bp.flush()
	*st.tlbm++
	*st.l1m++
	*st.l2m++
	return hcfg.TLBMissPenalty + hcfg.L1.HitLatency + hcfg.L2.HitLatency + hcfg.MemLatency
}

// Branch implements Env: public branches use the single predictor; a
// confidential branch flushes it along with the rest of the state.
func (f *FlushOnHigh) Branch(addr uint64, taken bool, er, ew lattice.Label) uint64 {
	if !f.bp.enabled() {
		return 0
	}
	if ew == f.lat.Bot() {
		c := branchCost(f.bp, f.cfg.BP, addr, taken)
		if c > 0 {
			f.stats.BPMisses++
		} else {
			f.stats.BPHits++
		}
		return c
	}
	f.data.flush()
	f.instr.flush()
	f.bp.flush()
	f.stats.BPMisses++
	return f.cfg.BP.MissPenalty
}

// Clone implements Env.
func (f *FlushOnHigh) Clone() Env {
	return &FlushOnHigh{lat: f.lat, cfg: f.cfg, data: f.data.clone(), instr: f.instr.clone(), bp: f.bp.clone()}
}

// ProjEqual implements Env: all state is public (level ⊥).
func (f *FlushOnHigh) ProjEqual(other Env, lv lattice.Label) bool {
	o, ok := other.(*FlushOnHigh)
	if !ok {
		return false
	}
	if lv != f.lat.Bot() {
		return true
	}
	return f.data.stateEqual(o.data) && f.instr.stateEqual(o.instr) && f.bp.stateEqual(o.bp)
}

// LowEqual implements Env.
func (f *FlushOnHigh) LowEqual(other Env, lv lattice.Label) bool {
	return lowEqual(f, other, lv)
}

// Reset implements Env.
func (f *FlushOnHigh) Reset() {
	f.data.flush()
	f.instr.flush()
	f.bp.flush()
}

// Lattice implements Env.
func (f *FlushOnHigh) Lattice() lattice.Lattice { return f.lat }

// Name implements Env.
func (f *FlushOnHigh) Name() string { return "flush-on-high" }

// Stats implements Env.
func (f *FlushOnHigh) Stats() Stats { return f.stats }
