// Package hw implements simulated machine environments: the hardware
// state invisible at the language level that determines execution time
// (paper §3.3). Three designs are provided:
//
//   - Unpartitioned: a commodity cache hierarchy that ignores timing
//     labels ("nopar" in §8.3). It is fast and insecure — the baseline
//     the paper's evaluation compares against.
//   - NoFill: standard hardware using a no-fill mode (§4.2). The whole
//     hierarchy is public; commands whose write label is not public run
//     with fills, evictions, and LRU updates disabled.
//   - Partitioned: statically partitioned caches and TLBs (§4.3), one
//     partition per lattice level. Lookups search partitions at or
//     below the read label; misses install into the write label's
//     partition; consistency is preserved by moving blocks down when
//     permitted by Property 5.
//
// All three models are deterministic (Property 2). NoFill and
// Partitioned are designed to satisfy the paper's security requirements
// (Properties 5–7), which the props package verifies empirically.
package hw

import (
	"fmt"
	"math/bits"

	"repro/internal/lattice"
	"repro/internal/machine/cache"
)

// AccessKind distinguishes the three ways the processor touches memory.
type AccessKind int

const (
	// Fetch is an instruction fetch (I-cache + I-TLB).
	Fetch AccessKind = iota
	// Read is a data load (D-cache + D-TLB).
	Read
	// Write is a data store; the model is write-allocate, so it
	// behaves like Read for cache-state purposes.
	Write
)

func (k AccessKind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Read:
		return "read"
	case Write:
		return "write"
	}
	return fmt.Sprintf("AccessKind(%d)", int(k))
}

// Env is a machine environment: the component E of full-semantics
// configurations. Access charges the cycle cost of one memory access
// under the current command's read and write labels and updates the
// environment state. Implementations must be deterministic: equal
// states and equal access sequences yield equal costs and states.
type Env interface {
	// Access performs one memory access of the given kind at addr,
	// under read label er and write label ew, returning its cost in
	// cycles.
	Access(kind AccessKind, addr uint64, er, ew lattice.Label) uint64
	// Branch records the outcome of a conditional branch at the given
	// code address and returns its cost (the mispredict penalty when
	// the hardware models a branch predictor, 0 otherwise).
	Branch(addr uint64, taken bool, er, ew lattice.Label) uint64
	// Clone returns an independent deep copy.
	Clone() Env
	// ProjEqual reports projected equivalence E ≈ℓ E': whether the
	// level-ℓ parts of the two environments are indistinguishable.
	ProjEqual(other Env, lv lattice.Label) bool
	// LowEqual reports ℓ-equivalence E ~ℓ E': projected equivalence at
	// every level ℓ' ⊑ ℓ.
	LowEqual(other Env, lv lattice.Label) bool
	// Reset flushes all state, returning the environment to its
	// initial (empty) condition.
	Reset()
	// Lattice returns the security lattice the environment is
	// configured over.
	Lattice() lattice.Lattice
	// Name identifies the hardware design ("unpartitioned", "nofill",
	// "partitioned").
	Name() string
	// Stats returns cumulative hit/miss counters for reporting.
	Stats() Stats
}

// Stats aggregates hit/miss counts across the hierarchy.
type Stats struct {
	L1DHits, L1DMisses   uint64
	L2DHits, L2DMisses   uint64
	L1IHits, L1IMisses   uint64
	L2IHits, L2IMisses   uint64
	DTLBHits, DTLBMisses uint64
	ITLBHits, ITLBMisses uint64
	BPHits, BPMisses     uint64
}

// Add returns the field-wise sum of two stat sets — the aggregation
// primitive the instrumentation layer uses to combine per-shard
// environments into one report.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		L1DHits: s.L1DHits + o.L1DHits, L1DMisses: s.L1DMisses + o.L1DMisses,
		L2DHits: s.L2DHits + o.L2DHits, L2DMisses: s.L2DMisses + o.L2DMisses,
		L1IHits: s.L1IHits + o.L1IHits, L1IMisses: s.L1IMisses + o.L1IMisses,
		L2IHits: s.L2IHits + o.L2IHits, L2IMisses: s.L2IMisses + o.L2IMisses,
		DTLBHits: s.DTLBHits + o.DTLBHits, DTLBMisses: s.DTLBMisses + o.DTLBMisses,
		ITLBHits: s.ITLBHits + o.ITLBHits, ITLBMisses: s.ITLBMisses + o.ITLBMisses,
		BPHits: s.BPHits + o.BPHits, BPMisses: s.BPMisses + o.BPMisses,
	}
}

// hierStats points at the six counters an access updates.
type hierStats struct {
	l1h, l1m, l2h, l2m, tlbh, tlbm *uint64
}

// counters returns the counters an access of kind updates: the
// instruction hierarchy's for a fetch, the data hierarchy's otherwise.
func (s *Stats) counters(kind AccessKind) hierStats {
	if kind == Fetch {
		return hierStats{&s.L1IHits, &s.L1IMisses, &s.L2IHits, &s.L2IMisses, &s.ITLBHits, &s.ITLBMisses}
	}
	return hierStats{&s.L1DHits, &s.L1DMisses, &s.L2DHits, &s.L2DMisses, &s.DTLBHits, &s.DTLBMisses}
}

// hitRate returns hits/(hits+misses), or 0 when there were no events.
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// L1DHitRate returns the L1 data-cache hit rate in [0, 1].
func (s Stats) L1DHitRate() float64 { return hitRate(s.L1DHits, s.L1DMisses) }

// L2DHitRate returns the L2 data-cache hit rate in [0, 1].
func (s Stats) L2DHitRate() float64 { return hitRate(s.L2DHits, s.L2DMisses) }

// L1IHitRate returns the L1 instruction-cache hit rate in [0, 1].
func (s Stats) L1IHitRate() float64 { return hitRate(s.L1IHits, s.L1IMisses) }

// L2IHitRate returns the L2 instruction-cache hit rate in [0, 1].
func (s Stats) L2IHitRate() float64 { return hitRate(s.L2IHits, s.L2IMisses) }

// DTLBHitRate returns the data-TLB hit rate in [0, 1].
func (s Stats) DTLBHitRate() float64 { return hitRate(s.DTLBHits, s.DTLBMisses) }

// ITLBHitRate returns the instruction-TLB hit rate in [0, 1].
func (s Stats) ITLBHitRate() float64 { return hitRate(s.ITLBHits, s.ITLBMisses) }

// BPHitRate returns the branch-predictor hit rate in [0, 1].
func (s Stats) BPHitRate() float64 { return hitRate(s.BPHits, s.BPMisses) }

// HierarchyConfig describes one cache hierarchy (data or instruction).
type HierarchyConfig struct {
	L1 cache.Config
	L2 cache.Config
	// TLBSets and TLBAssoc give the TLB geometry; TLB entries cover
	// PageSize bytes.
	TLBSets  int
	TLBAssoc int
	// PageSize is the virtual page size in bytes (power of two).
	PageSize int
	// TLBMissPenalty is the extra cost in cycles of a TLB miss.
	TLBMissPenalty uint64
	// MemLatency is the cost of going to main memory after an L2 miss.
	MemLatency uint64
}

// Config describes the whole machine environment.
type Config struct {
	Data  HierarchyConfig
	Instr HierarchyConfig
	// BP configures the branch predictor; a zero Size disables it.
	BP BPConfig
}

// Table1Config returns the machine-environment parameters of the
// paper's Table 1 (a SimpleScalar-derived configuration). Main-memory
// latency is not given in the table; 100 cycles is used, a conventional
// value for the simulated era, and is irrelevant to the security
// results (only to absolute slowdowns).
func Table1Config() Config {
	return Config{
		Data: HierarchyConfig{
			L1:             cache.Config{Name: "L1D", Sets: 128, Assoc: 4, BlockSize: 32, HitLatency: 1},
			L2:             cache.Config{Name: "L2D", Sets: 1024, Assoc: 4, BlockSize: 64, HitLatency: 6},
			TLBSets:        16,
			TLBAssoc:       4,
			PageSize:       4096,
			TLBMissPenalty: 30,
			MemLatency:     100,
		},
		Instr: HierarchyConfig{
			L1:             cache.Config{Name: "L1I", Sets: 512, Assoc: 1, BlockSize: 32, HitLatency: 1},
			L2:             cache.Config{Name: "L2I", Sets: 1024, Assoc: 4, BlockSize: 64, HitLatency: 6},
			TLBSets:        32,
			TLBAssoc:       4,
			PageSize:       4096,
			TLBMissPenalty: 30,
			MemLatency:     100,
		},
		// SimpleScalar's default bimodal predictor is 2048 entries; a
		// 3-cycle mispredict penalty matches its short pipeline.
		BP: BPConfig{Size: 2048, MissPenalty: 3},
	}
}

// TinyConfig returns a very small configuration useful for tests that
// need to provoke evictions and TLB misses with few accesses.
func TinyConfig() Config {
	h := HierarchyConfig{
		L1:             cache.Config{Name: "L1", Sets: 4, Assoc: 2, BlockSize: 16, HitLatency: 1},
		L2:             cache.Config{Name: "L2", Sets: 8, Assoc: 2, BlockSize: 32, HitLatency: 6},
		TLBSets:        2,
		TLBAssoc:       2,
		PageSize:       256,
		TLBMissPenalty: 30,
		MemLatency:     100,
	}
	return Config{Data: h, Instr: h, BP: BPConfig{Size: 16, MissPenalty: 8}}
}

func (h HierarchyConfig) validate() error {
	if err := h.L1.Validate(); err != nil {
		return err
	}
	if err := h.L2.Validate(); err != nil {
		return err
	}
	if h.TLBSets <= 0 || h.TLBSets&(h.TLBSets-1) != 0 {
		return fmt.Errorf("TLBSets=%d must be a positive power of two", h.TLBSets)
	}
	if h.TLBAssoc <= 0 {
		return fmt.Errorf("TLBAssoc=%d must be positive", h.TLBAssoc)
	}
	if h.PageSize <= 0 || h.PageSize&(h.PageSize-1) != 0 {
		return fmt.Errorf("PageSize=%d must be a positive power of two", h.PageSize)
	}
	return nil
}

// tlbConfig derives the TLB's cache.Config: a TLB is a cache over page
// numbers, modeled with BlockSize = PageSize.
func (h HierarchyConfig) tlbConfig(name string) cache.Config {
	return cache.Config{Name: name, Sets: h.TLBSets, Assoc: h.TLBAssoc, BlockSize: h.PageSize, HitLatency: 0}
}

// ---------------------------------------------------------------------------
// hierarchy: one partition's worth of L1+L2+TLB

// hier bundles the three caches of one hierarchy partition.
type hier struct {
	l1, l2, tlb *cache.Cache
	// unit and l2Unit are log2 of the address unit a Site memo of this
	// hierarchy is keyed by: the finest of the page and the L1 line for
	// a memo that consulted the TLB and L1, and the finest of those and
	// the L2 line for one that consulted L2 too (NoFill's no-fill
	// memo). Each structure maps a whole unit to one set and one block.
	unit, l2Unit uint8
}

func newHier(cfg HierarchyConfig, tlbName string) *hier {
	unit := min(log2(cfg.PageSize), log2(cfg.L1.BlockSize))
	return &hier{
		l1:     cache.New(cfg.L1),
		l2:     cache.New(cfg.L2),
		tlb:    cache.New(cfg.tlbConfig(tlbName)),
		unit:   unit,
		l2Unit: min(unit, log2(cfg.L2.BlockSize)),
	}
}

// log2 of a validated power of two.
func log2(v int) uint8 { return uint8(bits.TrailingZeros64(uint64(v))) }

func (h *hier) clone() *hier {
	return &hier{l1: h.l1.Clone(), l2: h.l2.Clone(), tlb: h.tlb.Clone(), unit: h.unit, l2Unit: h.l2Unit}
}

func (h *hier) flush() {
	h.l1.Flush()
	h.l2.Flush()
	h.tlb.Flush()
}

func (h *hier) stateEqual(o *hier) bool {
	return h.l1.StateEqual(o.l1) && h.l2.StateEqual(o.l2) && h.tlb.StateEqual(o.tlb)
}

// splitConfig divides a cache configuration into n equal partitions: by
// ways when associativity allows, otherwise by sets. The paper's §4.3
// design statically and equally partitions each structure.
func splitConfig(c cache.Config, n int) cache.Config {
	if n <= 1 {
		return c
	}
	out := c
	if c.Assoc >= n {
		out.Assoc = c.Assoc / n
		return out
	}
	// Split sets; round down to a power of two, minimum 1.
	sets := c.Sets / n
	if sets < 1 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	out.Sets = p
	return out
}

func splitHierarchy(cfg HierarchyConfig, n int) HierarchyConfig {
	out := cfg
	out.L1 = splitConfig(cfg.L1, n)
	out.L2 = splitConfig(cfg.L2, n)
	if cfg.TLBAssoc >= n {
		out.TLBAssoc = cfg.TLBAssoc / n
	} else {
		sets := cfg.TLBSets / n
		if sets < 1 {
			sets = 1
		}
		p := 1
		for p*2 <= sets {
			p *= 2
		}
		out.TLBSets = p
	}
	return out
}
