// Package cache implements deterministic set-associative caches with
// LRU replacement, used as building blocks of the simulated machine
// environment. A cache keeps no hit or miss counts: the machine
// environments count those events in hw.Stats, once per access.
//
// Following §4.1 of the paper, the model is the coarse-grained
// abstraction of cache state: a cache holds only (tag, valid) pairs —
// no data blocks — because for the modeled implementations the contents
// of data blocks do not affect access time. This choice is what lets
// confidential values reside in public cache partitions without
// violating single-step machine-environment noninterference
// (Property 7).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes a cache's geometry and timing.
type Config struct {
	// Name identifies the cache in diagnostics ("L1D", "L2I", …).
	Name string
	// Sets is the number of cache sets; must be a power of two.
	Sets int
	// Assoc is the number of ways per set (issue width in Table 1's
	// terminology).
	Assoc int
	// BlockSize is the line size in bytes; must be a power of two.
	BlockSize int
	// HitLatency is the access time in cycles on a hit.
	HitLatency uint64
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: Sets=%d must be a positive power of two", c.Name, c.Sets)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache %s: Assoc=%d must be positive", c.Name, c.Assoc)
	}
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache %s: BlockSize=%d must be a positive power of two", c.Name, c.BlockSize)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	// locked lines are never chosen as victims by Fill (only by
	// FillLocked); they model PL-cache-style line locking.
	locked bool
	// used is the per-set logical timestamp of the last touch, for LRU.
	used uint64
}

// Cache is a set-associative cache over the coarse-grained state
// abstraction. The zero value is unusable; construct with New.
type Cache struct {
	cfg  Config
	sets [][]line
	// blockShift/setShift/setMask are the precomputed log2 geometry
	// (Sets and BlockSize are validated powers of two), so the
	// per-access index split is shifts and masks, not divisions.
	blockShift uint
	setShift   uint
	setMask    uint64
	// clock is a monotonically increasing logical timestamp used to
	// order LRU decisions deterministically.
	clock uint64
	// gens holds one membership generation per set. gens[s] is bumped
	// whenever set s's blocks or lock bits change — an installing Fill,
	// every FillLocked, a successful Invalidate, Flush — and
	// deliberately NOT on LRU touches or a Fill of a resident block,
	// which reorder lines without changing which blocks hit. Under the
	// coarse abstraction a set's contents depend only on operations on
	// that set, so an outcome observed from some sets (a memoized
	// hw.Site access) stays valid while every one of their generations
	// is unchanged.
	gens []uint64
}

// TouchRef is a stable reference to one cache line, captured by LineRef
// while the line holds a known block. Refresh replays exactly the state
// change of a refreshing hit on that block — the LRU timestamp bump —
// without re-scanning the set. A TouchRef is valid only
// while its set's generation (returned by the same LineRef) is
// unchanged: an installing fill, invalidation or flush of that set may
// repurpose the line.
type TouchRef struct {
	c  *Cache
	ln *line
}

// Refresh replays a refreshing hit: identical to the hit path of
// Probe(addr, true) for the referenced block.
func (r TouchRef) Refresh() {
	r.c.clock++
	r.ln.used = r.c.clock
}

// LineRef probes addr's set without modifying any state (a pure probe,
// like Contains). It returns a pointer to the set's generation, which
// callers must only read: the probe's outcome holds while *gen is
// unchanged. If the block is cached it also returns a TouchRef for its
// line, valid for as long.
func (c *Cache) LineRef(addr uint64) (gen *uint64, ref TouchRef, ok bool) {
	set, tag := c.index(addr)
	ws := c.sets[set]
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			return &c.gens[set], TouchRef{c: c, ln: &ws[i]}, true
		}
	}
	return &c.gens[set], TouchRef{}, false
}

// New constructs an empty cache; it panics on invalid configuration
// (construction happens at setup time with static configs).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]line, cfg.Sets)
	backing := make([]line, cfg.Sets*cfg.Assoc)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc], backing[cfg.Assoc:]
	}
	return &Cache{
		cfg:        cfg,
		sets:       sets,
		gens:       make([]uint64, cfg.Sets),
		blockShift: log2(uint64(cfg.BlockSize)),
		setShift:   log2(uint64(cfg.Sets)),
		setMask:    uint64(cfg.Sets) - 1,
	}
}

// log2 of a power of two (v must be one; geometry is validated at
// construction). A power of two has a single set bit, so its trailing
// zero count is its log — one hardware instruction instead of a loop.
func log2(v uint64) uint {
	return uint(bits.TrailingZeros64(v))
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// index returns the set index and tag of an address.
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	block := addr >> c.blockShift
	return int(block & c.setMask), block >> c.setShift
}

// Contains reports whether addr's block is cached, without modifying
// any state (not even LRU order) — a pure probe.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	ws := c.sets[set]
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			return true
		}
	}
	return false
}

// Access looks up addr, updating LRU order on a hit, and reports
// whether it hit. It does NOT fill on a miss; use Fill to model
// allocation so that callers (the hardware models) decide fill policy
// according to write labels.
func (c *Cache) Access(addr uint64) bool {
	set, tag := c.index(addr)
	ws := c.sets[set]
	for i := range ws {
		ln := &ws[i]
		if ln.valid && ln.tag == tag {
			c.clock++
			ln.used = c.clock
			return true
		}
	}
	return false
}

// Probe is a fused Contains+Access for lookup paths that decide on the
// refresh separately from the hit test: one scan reports whether addr's
// block is cached and, when refresh is set, touches it exactly as
// Access would (LRU refresh). With refresh false it is a pure probe
// like Contains.
func (c *Cache) Probe(addr uint64, refresh bool) bool {
	set, tag := c.index(addr)
	ws := c.sets[set]
	for i := range ws {
		ln := &ws[i]
		if ln.valid && ln.tag == tag {
			if refresh {
				c.clock++
				ln.used = c.clock
			}
			return true
		}
	}
	return false
}

// Fill installs addr's block, evicting the least recently used
// UNLOCKED line in its set if necessary, and returns the evicted
// block's base address and whether an eviction occurred. If every line
// in the set is locked, the block is not installed at all (the PL-cache
// bypass case); ordinary caches never lock lines, so their behaviour is
// the classic LRU fill.
func (c *Cache) Fill(addr uint64) (evicted uint64, didEvict bool) {
	set, tag := c.index(addr)
	c.clock++
	// Already present: refresh (idempotent fill).
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.used = c.clock
			return 0, false
		}
	}
	victim := -1
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.locked {
			continue
		}
		if !ln.valid {
			victim = i
			break
		}
		if victim < 0 || ln.used < c.sets[set][victim].used {
			victim = i
		}
	}
	if victim < 0 {
		return 0, false // all ways locked: bypass
	}
	c.gens[set]++
	v := &c.sets[set][victim]
	if v.valid {
		evicted = c.blockBase(set, v.tag)
		didEvict = true
	}
	v.tag = tag
	v.valid = true
	v.locked = false
	v.used = c.clock
	return evicted, didEvict
}

// FillLocked installs addr's block and locks its line, choosing the
// LRU victim among ALL lines (locked lines may displace each other).
// It returns the evicted block and whether an eviction occurred.
func (c *Cache) FillLocked(addr uint64) (evicted uint64, didEvict bool) {
	set, tag := c.index(addr)
	c.clock++
	c.gens[set]++
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.used = c.clock
			ln.locked = true
			return 0, false
		}
	}
	victim := 0
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if !ln.valid {
			victim = i
			break
		}
		if ln.used < c.sets[set][victim].used {
			victim = i
		}
	}
	v := &c.sets[set][victim]
	if v.valid {
		evicted = c.blockBase(set, v.tag)
		didEvict = true
	}
	v.tag = tag
	v.valid = true
	v.locked = true
	v.used = c.clock
	return evicted, didEvict
}

// LockedCount returns the number of locked lines.
func (c *Cache) LockedCount() int {
	n := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid && c.sets[s][i].locked {
				n++
			}
		}
	}
	return n
}

// blockBase reconstructs a block's base address from set and tag.
func (c *Cache) blockBase(set int, tag uint64) uint64 {
	return (tag<<c.setShift | uint64(set)) << c.blockShift
}

// Invalidate removes addr's block if present, reporting whether it was.
func (c *Cache) Invalidate(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.valid = false
			// Only a successful invalidation changes membership; the
			// common no-op case (partitioned fills invalidating absent
			// blocks) must not churn memo generations.
			c.gens[set]++
			return true
		}
	}
	return false
}

// Flush empties the cache.
func (c *Cache) Flush() {
	for s := range c.sets {
		c.gens[s]++
		for i := range c.sets[s] {
			c.sets[s][i] = line{}
		}
	}
}

// Clone returns a deep copy, including LRU state (so timing-relevant
// state is reproduced exactly).
func (c *Cache) Clone() *Cache {
	n := New(c.cfg)
	for s := range c.sets {
		copy(n.sets[s], c.sets[s])
	}
	n.clock = c.clock
	return n
}

// StateEqual reports whether two caches hold the same set of valid
// blocks. It deliberately ignores LRU timestamps when the caches hold
// the same blocks in the same sets: the paper's projected equivalence
// on machine environments is about what a timing observer can
// distinguish, and for equality of *future* timing the LRU *order*
// matters, so StateEqual compares relative LRU order, not raw clocks.
func (c *Cache) StateEqual(o *Cache) bool {
	if c.cfg.Sets != o.cfg.Sets || c.cfg.Assoc != o.cfg.Assoc || c.cfg.BlockSize != o.cfg.BlockSize {
		return false
	}
	for s := range c.sets {
		if !setEqual(c.sets[s], o.sets[s]) {
			return false
		}
	}
	return true
}

// setEqual compares two cache sets: same valid tags, same relative LRU
// order among valid lines.
func setEqual(a, b []line) bool {
	// Gather valid lines sorted by used time (ascending).
	av := validByAge(a)
	bv := validByAge(b)
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// validByAge returns the tags of valid lines ordered from least to most
// recently used, with locked lines distinguished by a high marker bit
// so equivalence sees lock state; insertion sort is fine for small
// associativity.
func validByAge(set []line) []uint64 {
	type tu struct {
		tag  uint64
		used uint64
	}
	const lockBit = 1 << 63
	var v []tu
	for _, ln := range set {
		if ln.valid {
			tag := ln.tag
			if ln.locked {
				tag |= lockBit
			}
			v = append(v, tu{tag, ln.used})
		}
	}
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j].used < v[j-1].used; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	tags := make([]uint64, len(v))
	for i := range v {
		tags[i] = v[i].tag
	}
	return tags
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid {
				n++
			}
		}
	}
	return n
}

// Blocks returns the base addresses of all cached blocks in a
// deterministic order (set-major, then LRU age). Useful in tests.
func (c *Cache) Blocks() []uint64 {
	var out []uint64
	for s := range c.sets {
		for _, tag := range validByAge(c.sets[s]) {
			out = append(out, c.blockBase(s, tag))
		}
	}
	return out
}
