package exec

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/types"
)

// mustCheck parses and type-checks source under the two-point lattice.
func mustCheck(t *testing.T, src string) (*ast.Program, *types.Result) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := types.Check(prog, lattice.TwoPoint())
	if err != nil {
		t.Fatal(err)
	}
	return prog, res
}

// numberedProg returns a distinct trivial program per i, so tests can
// fill a cache with unique keys.
func numberedProg(t *testing.T, i int) (*ast.Program, *types.Result) {
	t.Helper()
	return mustCheck(t, fmt.Sprintf("var x: L;\nx := %d;\n", i))
}

func TestProgramCacheHitSharesProgram(t *testing.T) {
	c := NewProgramCache(4)
	prog, res := numberedProg(t, 1)
	first, err := c.Get(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Get(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("cache hit returned a different *Program than the cold compile")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

func TestProgramCacheKeyDependsOnLattice(t *testing.T) {
	// The same surface syntax checked under different lattices must not
	// collide: labels resolve to different lattice elements.
	src := "var x: L;\nx := 1;\n"
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	resTwo, err := types.Check(prog, lattice.TwoPoint())
	if err != nil {
		t.Fatal(err)
	}
	prog3, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	resThree, err := types.Check(prog3, lattice.ThreePoint())
	if err != nil {
		t.Fatal(err)
	}
	if Key(prog, resTwo) == Key(prog3, resThree) {
		t.Error("cache keys collide across lattices")
	}
}

func TestProgramCacheEviction(t *testing.T) {
	c := NewProgramCache(2)
	progs := make([]*ast.Program, 3)
	ress := make([]*types.Result, 3)
	for i := range progs {
		progs[i], ress[i] = numberedProg(t, i)
		if _, err := c.Get(progs[i], ress[i]); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d after 3 inserts into cap-2 cache, want 2", c.Len())
	}
	// Program 0 was least recently used and must have been evicted:
	// re-getting it is a miss; 2 and 1 are still resident (hits).
	_, missesBefore := c.Stats()
	if _, err := c.Get(progs[2], ress[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(progs[1], ress[1]); err != nil {
		t.Fatal(err)
	}
	_, misses := c.Stats()
	if misses != missesBefore {
		t.Errorf("resident entries missed: %d -> %d", missesBefore, misses)
	}
	if _, err := c.Get(progs[0], ress[0]); err != nil {
		t.Fatal(err)
	}
	_, misses = c.Stats()
	if misses != missesBefore+1 {
		t.Errorf("evicted entry did not miss: misses %d, want %d", misses, missesBefore+1)
	}
	// LRU order after the touches above: 1 (MRU), 2... inserting 0
	// evicted the back. The cache never exceeds capacity.
	if c.Len() != 2 {
		t.Errorf("Len() = %d, want 2", c.Len())
	}
}

// TestProgramCacheConcurrent hammers one cache from many goroutines
// (as pool shards do via DefaultCache); run under -race this checks
// the locking discipline.
func TestProgramCacheConcurrent(t *testing.T) {
	c := NewProgramCache(4)
	const goroutines = 8
	progs := make([]*ast.Program, 6)
	ress := make([]*types.Result, 6)
	for i := range progs {
		progs[i], ress[i] = numberedProg(t, i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(progs)
				if _, err := c.Get(progs[k], ress[k]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Len() > 4 {
		t.Errorf("cache exceeded capacity: %d", c.Len())
	}
}

// TestProgramCacheDeterminism: a cache hit and a cold compile must
// produce byte-identical traces — caching is a pure lookup, never an
// observable change.
func TestProgramCacheDeterminism(t *testing.T) {
	const src = `
var h: H;
var reply: L;
mitigate (1, H) [L, L] {
    sleep(h % 37) [H, H];
}
reply := 1;
`
	prog, res := mustCheck(t, src)
	lat := lattice.TwoPoint()

	c := NewProgramCache(4)
	cold, err := c.Get(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c.Get(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	if cold != hit {
		t.Fatal("hit returned a different program")
	}
	// Also compile completely outside the cache for the cold baseline.
	fresh, err := bytecode.Compile(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *bytecode.Program) (string, uint64) {
		env := hw.MustEnv("partitioned", lat, hw.Table1Config())
		vm := bytecode.NewVM(p, env, bytecode.VMOptions{})
		if err := vm.SetScalar("h", 23); err != nil {
			t.Fatal(err)
		}
		if err := vm.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		return vm.Trace().Key(), vm.Clock()
	}
	keyCached, clockCached := run(hit)
	keyFresh, clockFresh := run(fresh)
	if keyCached != keyFresh || clockCached != clockFresh {
		t.Errorf("cache hit and cold compile diverge: (%q, %d) vs (%q, %d)",
			keyCached, clockCached, keyFresh, clockFresh)
	}
}
