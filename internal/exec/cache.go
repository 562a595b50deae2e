package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/lang/ast"
	"repro/internal/lang/printer"
	"repro/internal/types"
)

// ProgramCache is a concurrency-safe LRU cache of compiled bytecode
// programs, keyed by source hash, so many engines (e.g. one per pool
// shard) serving the same program compile it once and execute many.
//
// Compiled programs are immutable after compilation — the VM keeps all
// mutable state (registers, data, clock) in itself — so one *Program
// can safely back any number of VMs. Compiling links the program to the
// register form the VM executes, so that work, too, runs once per
// program here and never per VM or per shard.
//
// The hit path is lock-free: the key map is copy-on-write behind an
// atomic pointer, and recency is a per-entry atomic timestamp from a
// global logical clock, so concurrent workers compiling-once/
// running-many never contend. Only misses (compile + map rebuild +
// eviction) take the writer mutex.
type ProgramCache struct {
	// entries is the COW key map; Get loads it without locking.
	entries atomic.Pointer[map[string]*cacheEntry]
	// mu serializes map rebuilds (insertions and evictions).
	mu  sync.Mutex
	cap int
	// clock is the logical recency clock; every touch stamps its entry.
	clock  atomic.Uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	key  string
	prog *bytecode.Program
	// used is the entry's last-touch stamp from the cache clock. Two
	// racing hits may store slightly out of order, which perturbs LRU
	// by at most the race window — eviction (under mu) sees a settled
	// view in the single-writer case the tests pin down.
	used atomic.Uint64
}

// NewProgramCache creates a cache holding at most capacity programs
// (minimum 1).
func NewProgramCache(capacity int) *ProgramCache {
	if capacity < 1 {
		capacity = 1
	}
	c := &ProgramCache{cap: capacity}
	m := make(map[string]*cacheEntry)
	c.entries.Store(&m)
	return c
}

// DefaultCache is the process-wide cache used by the "vm" engine
// factory. Its capacity comfortably exceeds the number of distinct
// programs any one service deployment runs.
var DefaultCache = NewProgramCache(128)

// Key returns the cache key for a type-checked program: a hash of the
// fully-resolved printed source plus the lattice name. Printing with
// resolved labels makes the key depend on the label assignment, not
// just the surface syntax, so two checks of the same source under
// different lattices or inference outcomes never collide.
func Key(prog *ast.Program, res *types.Result) string {
	h := sha256.New()
	h.Write([]byte(printer.Print(prog, printer.Options{ShowResolved: true})))
	h.Write([]byte{0})
	h.Write([]byte(res.Lat.Name()))
	return hex.EncodeToString(h.Sum(nil))
}

// touch refreshes an entry's recency and counts the hit.
func (c *ProgramCache) touch(e *cacheEntry) *bytecode.Program {
	e.used.Store(c.clock.Add(1))
	c.hits.Add(1)
	return e.prog
}

// Get returns the compiled program for (prog, res), compiling and
// caching it on a miss and evicting the least recently used entry past
// capacity. Hits never block: they read the current map snapshot and
// bump the entry's recency stamp atomically. Any future knob that
// alters what Get compiles must join the key.
func (c *ProgramCache) Get(prog *ast.Program, res *types.Result) (*bytecode.Program, error) {
	key := Key(prog, res)
	if e, ok := (*c.entries.Load())[key]; ok {
		return c.touch(e), nil
	}

	// Compile outside the lock: compilation is pure, so two shards
	// racing on the same cold key at worst compile twice and converge
	// on whichever entry lands first.
	compiled, err := bytecode.Compile(prog, res)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	cur := *c.entries.Load()
	if e, ok := cur[key]; ok {
		// Lost the race; keep the incumbent so all callers share one
		// program.
		return c.touch(e), nil
	}
	c.misses.Add(1)
	next := make(map[string]*cacheEntry, len(cur)+1)
	for k, e := range cur {
		next[k] = e
	}
	e := &cacheEntry{key: key, prog: compiled}
	e.used.Store(c.clock.Add(1))
	next[key] = e
	for len(next) > c.cap {
		var oldest *cacheEntry
		for _, cand := range next {
			if oldest == nil || cand.used.Load() < oldest.used.Load() {
				oldest = cand
			}
		}
		delete(next, oldest.key)
	}
	c.entries.Store(&next)
	return compiled, nil
}

// Len returns the number of cached programs.
func (c *ProgramCache) Len() int { return len(*c.entries.Load()) }

// Stats returns cumulative hit and miss counts.
func (c *ProgramCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
