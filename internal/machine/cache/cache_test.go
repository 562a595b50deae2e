package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Name: "t", Sets: 4, Assoc: 2, BlockSize: 16, HitLatency: 1})
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid small", Config{Name: "g", Sets: 4, Assoc: 1, BlockSize: 16}, true},
		{"valid large", Config{Name: "g", Sets: 128, Assoc: 4, BlockSize: 32, HitLatency: 1}, true},
		{"valid direct-mapped single set", Config{Name: "g", Sets: 1, Assoc: 1, BlockSize: 1}, true},
		{"sets not a power of two", Config{Name: "a", Sets: 3, Assoc: 1, BlockSize: 16}, false},
		{"sets not a power of two (large)", Config{Name: "a", Sets: 1000, Assoc: 1, BlockSize: 16}, false},
		{"sets zero", Config{Name: "d", Sets: 0, Assoc: 1, BlockSize: 16}, false},
		{"sets negative", Config{Name: "d", Sets: -4, Assoc: 1, BlockSize: 16}, false},
		{"assoc zero", Config{Name: "b", Sets: 4, Assoc: 0, BlockSize: 16}, false},
		{"assoc negative", Config{Name: "b", Sets: 4, Assoc: -2, BlockSize: 16}, false},
		{"block size not a power of two", Config{Name: "c", Sets: 4, Assoc: 1, BlockSize: 24}, false},
		{"block size zero", Config{Name: "e", Sets: 4, Assoc: 1, BlockSize: 0}, false},
		{"block size negative", Config{Name: "e", Sets: 4, Assoc: 1, BlockSize: -16}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.ok && err != nil {
				t.Errorf("config %+v should be valid: %v", tt.cfg, err)
			}
			if !tt.ok && err == nil {
				t.Errorf("config %+v should be invalid", tt.cfg)
			}
		})
	}
}

// TestLog2 pins the bit-trick log2 against the definition for every
// power of two a cache geometry can use.
func TestLog2(t *testing.T) {
	for s := uint(0); s < 64; s++ {
		if got := log2(uint64(1) << s); got != s {
			t.Errorf("log2(1<<%d) = %d, want %d", s, got, s)
		}
	}
}

// TestIndexGeometry checks the shift/mask address split produced by
// log2 end to end: filling a block makes every address within it hit
// and its set/tag round-trip through blockBase.
func TestIndexGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "g1", Sets: 1, Assoc: 1, BlockSize: 1},
		{Name: "g2", Sets: 8, Assoc: 2, BlockSize: 4},
		{Name: "g3", Sets: 64, Assoc: 4, BlockSize: 64},
	} {
		c := New(cfg)
		base := uint64(5) * uint64(cfg.Sets*cfg.BlockSize) // arbitrary tag ≥ 1
		c.Fill(base)
		for off := 0; off < cfg.BlockSize; off++ {
			if !c.Contains(base + uint64(off)) {
				t.Errorf("%s: offset %d of filled block not contained", cfg.Name, off)
			}
		}
		if c.Contains(base + uint64(cfg.BlockSize)) {
			t.Errorf("%s: adjacent block unexpectedly contained", cfg.Name)
		}
		set, tag := c.index(base)
		if got := c.blockBase(set, tag); got != base {
			t.Errorf("%s: blockBase(index(%#x)) = %#x", cfg.Name, base, got)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Sets: 3, Assoc: 1, BlockSize: 16})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x100) {
		t.Error("cold access should miss")
	}
	c.Fill(0x100)
	if !c.Access(0x100) {
		t.Error("filled block should hit")
	}
	// Same block, different offset.
	if !c.Access(0x10F) {
		t.Error("same block should hit")
	}
	// Next block misses.
	if c.Access(0x110) {
		t.Error("adjacent block should miss")
	}
}

func TestContainsIsPure(t *testing.T) {
	c := small()
	c.Fill(0x0)   // set 0
	c.Fill(0x100) // set 0 (4 sets * 16B = 64B stride); 0x100/16=16, 16%4=0
	// Set 0 now full (assoc 2). LRU is 0x0.
	if !c.Contains(0x0) || !c.Contains(0x100) {
		t.Fatal("both blocks should be present")
	}
	// Probing must not refresh LRU: after probing 0x0, filling a new
	// block must still evict 0x0.
	c.Contains(0x0)
	ev, did := c.Fill(0x200) // also set 0
	if !did || ev != 0x0 {
		t.Errorf("evicted %#x,%v; want 0x0,true", ev, did)
	}
}

func TestAccessRefreshesLRU(t *testing.T) {
	c := small()
	c.Fill(0x0)
	c.Fill(0x100)
	c.Access(0x0) // refresh 0x0; now 0x100 is LRU
	ev, did := c.Fill(0x200)
	if !did || ev != 0x100 {
		t.Errorf("evicted %#x,%v; want 0x100,true", ev, did)
	}
}

func TestFillIdempotent(t *testing.T) {
	c := small()
	c.Fill(0x40)
	ev, did := c.Fill(0x40)
	if did || ev != 0 {
		t.Error("re-filling present block must not evict")
	}
	if c.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", c.Occupancy())
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := small()
	c.Fill(0x40)
	c.Fill(0x80)
	if !c.Invalidate(0x40) {
		t.Error("invalidate should find block")
	}
	if c.Invalidate(0x40) {
		t.Error("second invalidate should miss")
	}
	if c.Contains(0x40) {
		t.Error("block still present after invalidate")
	}
	c.Flush()
	if c.Occupancy() != 0 {
		t.Error("flush should empty cache")
	}
}

// TestSetGenerations pins which operations bump which set's membership
// generation. Memoized accesses (hw.Site) replay while the sets they
// consulted keep their generations, so a missing bump would replay a
// stale outcome and a bump in an unrelated set would needlessly drop a
// memo to the slow path.
func TestSetGenerations(t *testing.T) {
	const own = 1 // the set every operation below addresses
	// addr returns the block of set own with the given tag (small() has
	// 4 sets of 16-byte blocks).
	addr := func(tag uint64) uint64 { return (tag*4 + own) * 16 }
	const (
		none = iota // no set's generation changes
		ownSet
		allSets
	)
	tests := []struct {
		name  string
		prep  func(c *Cache)
		op    func(c *Cache)
		bumps int
	}{
		{"installing Fill", nil, func(c *Cache) { c.Fill(addr(1)) }, ownSet},
		{"evicting Fill",
			func(c *Cache) { c.Fill(addr(1)); c.Fill(addr(2)) },
			func(c *Cache) { c.Fill(addr(3)) }, ownSet},
		{"Fill of a resident block",
			func(c *Cache) { c.Fill(addr(1)) },
			func(c *Cache) { c.Fill(addr(1)) }, none},
		{"Fill bypassing a fully locked set",
			func(c *Cache) { c.FillLocked(addr(1)); c.FillLocked(addr(2)) },
			func(c *Cache) { c.Fill(addr(3)) }, none},
		{"refreshing hit",
			func(c *Cache) { c.Fill(addr(1)) },
			func(c *Cache) { c.Access(addr(1)) }, none},
		{"FillLocked", nil, func(c *Cache) { c.FillLocked(addr(1)) }, ownSet},
		{"FillLocked of a resident block",
			func(c *Cache) { c.Fill(addr(1)) },
			func(c *Cache) { c.FillLocked(addr(1)) }, ownSet},
		{"successful Invalidate",
			func(c *Cache) { c.Fill(addr(1)) },
			func(c *Cache) { c.Invalidate(addr(1)) }, ownSet},
		{"Invalidate of an absent block",
			func(c *Cache) { c.Fill(addr(1)) },
			func(c *Cache) { c.Invalidate(addr(2)) }, none},
		{"Flush", func(c *Cache) { c.Fill(addr(1)) }, (*Cache).Flush, allSets},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := small()
			if tt.prep != nil {
				tt.prep(c)
			}
			before := append([]uint64(nil), c.gens...)
			tt.op(c)
			for s := range c.gens {
				want := tt.bumps == allSets || (tt.bumps == ownSet && s == own)
				if got := c.gens[s] != before[s]; got != want {
					t.Errorf("set %d: generation changed = %v, want %v", s, got, want)
				}
			}
			// LineRef hands out the set's own counter, hit or miss.
			for _, a := range []uint64{addr(1), addr(7)} {
				if gen, _, _ := c.LineRef(a); gen != &c.gens[own] {
					t.Errorf("LineRef(%#x) generation is not set %d's", a, own)
				}
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	c := small()
	c.Fill(0x40)
	d := c.Clone()
	if !c.StateEqual(d) {
		t.Fatal("clone should equal original")
	}
	d.Fill(0x80)
	if c.Contains(0x80) {
		t.Error("mutating clone affected original")
	}
	if c.StateEqual(d) {
		t.Error("states should now differ")
	}
}

func TestStateEqualIgnoresAbsoluteClock(t *testing.T) {
	// Two caches with the same blocks in the same relative LRU order
	// are equal even if built by different access sequences.
	a := small()
	b := small()
	a.Fill(0x0)
	a.Fill(0x100)
	a.Access(0x0)

	b.Fill(0x100)
	b.Access(0x100) // extra touches shift absolute clocks
	b.Fill(0x0)
	// a: order (LRU→MRU) = 0x100, 0x0. b: 0x100, 0x0. Equal.
	if !a.StateEqual(b) {
		t.Error("same relative LRU order should be equal")
	}
	b.Access(0x100) // now b order = 0x0, 0x100
	if a.StateEqual(b) {
		t.Error("different LRU order should differ")
	}
}

func TestStateEqualDifferentGeometry(t *testing.T) {
	a := small()
	b := New(Config{Name: "t", Sets: 8, Assoc: 2, BlockSize: 16})
	if a.StateEqual(b) {
		t.Error("different geometries should not be equal")
	}
}

func TestBlocksDeterministic(t *testing.T) {
	c := small()
	// Distinct sets (0,1,2,3) plus a second way in set 0: all five fit.
	addrs := []uint64{0x0, 0x10, 0x20, 0x30, 0x40}
	for _, a := range addrs {
		c.Fill(a)
	}
	b1 := c.Blocks()
	b2 := c.Blocks()
	if len(b1) != len(addrs) {
		t.Fatalf("blocks = %v", b1)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("Blocks not deterministic")
		}
	}
}

func TestDirectMapped(t *testing.T) {
	c := New(Config{Name: "dm", Sets: 4, Assoc: 1, BlockSize: 16})
	c.Fill(0x0)
	ev, did := c.Fill(0x40) // maps to set 0 too
	if !did || ev != 0x0 {
		t.Errorf("direct-mapped conflict: evicted %#x,%v", ev, did)
	}
}

// Property: a cache never holds more than Assoc blocks per set, and
// Contains agrees with Access-hit behaviour.
func TestCacheInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "q", Sets: 8, Assoc: 2, BlockSize: 32})
		mirror := make(map[uint64]bool) // block base -> present per our model
		_ = mirror
		for i := 0; i < 200; i++ {
			addr := uint64(r.Intn(4096))
			switch r.Intn(3) {
			case 0:
				pre := c.Contains(addr)
				hit := c.Access(addr)
				if pre != hit {
					return false
				}
			case 1:
				c.Fill(addr)
				if !c.Contains(addr) {
					return false
				}
			case 2:
				c.Invalidate(addr)
				if c.Contains(addr) {
					return false
				}
			}
		}
		// Per-set occupancy bound.
		return c.Occupancy() <= 8*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Clone + identical access sequences ⇒ identical states
// (determinism of the cache model, needed for Property 2 of the paper).
func TestCacheDeterminismQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c1 := New(Config{Name: "q", Sets: 4, Assoc: 4, BlockSize: 16})
		// Random warmup.
		for i := 0; i < 50; i++ {
			c1.Fill(uint64(r.Intn(1024)))
		}
		c2 := c1.Clone()
		seq := make([]uint64, 100)
		for i := range seq {
			seq[i] = uint64(r.Intn(1024))
		}
		for _, a := range seq {
			h1 := c1.Access(a)
			h2 := c2.Access(a)
			if h1 != h2 {
				return false
			}
			if !h1 {
				c1.Fill(a)
				c2.Fill(a)
			}
		}
		return c1.StateEqual(c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
