package hw

import (
	"math/rand"
	"testing"

	"repro/internal/lattice"
)

// siteEnvs builds one instance of every SiteEnv implementation over a
// lattice and a geometry.
func siteEnvs(lat lattice.Lattice, cfg Config) []SiteEnv {
	return []SiteEnv{
		NewUnpartitioned(lat, cfg),
		NewNoFill(lat, cfg),
		NewPartitioned(lat, cfg),
		NewFlat(lat, 3),
	}
}

// TestAccessSiteMatchesAccess drives the memoized fast path and the
// generic path with the same random access sequence on clones of the
// same environment and requires bit-identical behaviour: per-access
// costs, final Stats, and state equivalence at every lattice level.
// The sequence mixes a small number of static "sites" (each with a
// fixed kind and mostly-stable address and labels, like program
// instructions) so memos are built, replayed many times, invalidated by
// interleaved evicting traffic, and rebuilt.
func TestAccessSiteMatchesAccess(t *testing.T) {
	wide := wideConfig()
	for _, in := range []struct {
		name string
		lat  lattice.Lattice
		cfg  Config
		span int // site addresses are multiples of 8 below span
	}{
		// TinyConfig: random addresses provoke evictions and TLB misses.
		{"two-point", lattice.TwoPoint(), TinyConfig(), 512},
		{"diamond", lattice.Diamond(), TinyConfig(), 512},
		{"two-point-wide", lattice.TwoPoint(), wide, 8192},
		// Wide read labels probe five partitions: more guards than
		// maxSiteRefs, so those sites take the overflow path.
		{"linear5", lattice.Linear("L0", "L1", "L2", "L3", "L4"), TinyConfig(), 512},
	} {
		levels := in.lat.Levels()
		for _, se := range siteEnvs(in.lat, in.cfg) {
			t.Run(in.name+"/"+se.Name(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				generic := se.Clone()
				fast := se.Clone().(SiteEnv)

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
						addr: uint64(rng.Intn(in.span/8)) * 8,
						er:   levels[rng.Intn(len(levels))],
						ew:   levels[rng.Intn(len(levels))],
					}
				}
				for step := 0; step < 20000; step++ {
					i := rng.Intn(nSites)
					sp := specs[i]
					addr := sp.addr
					if rng.Intn(16) == 0 {
						// Occasionally vary the address (an indexed
						// array site) — the memo must re-key.
						addr += uint64(rng.Intn(8)) * 8
					}
					if rng.Intn(64) == 0 {
						// Occasionally vary the labels (a fetch site
						// reached under different SETLBL history).
						sp.er = levels[rng.Intn(len(levels))]
					}
					cg := generic.Access(sp.kind, addr, sp.er, sp.ew)
					cf := fast.AccessSite(&sites[i], sp.kind, addr, sp.er, sp.ew)
					if cg != cf {
						t.Fatalf("step %d site %d: cost %d (generic) != %d (site)", step, i, cg, cf)
					}
				}
				if generic.Stats() != fast.Stats() {
					t.Fatalf("stats diverged:\ngeneric %+v\nsite    %+v", generic.Stats(), fast.Stats())
				}
				for _, lv := range levels {
					if !generic.ProjEqual(fast, lv) {
						t.Fatalf("state diverged at level %v", lv)
					}
				}
			})
		}
	}
}

// TestAccessSiteInterleavedWithAccess checks that a Site survives other
// traffic going through the plain Access path on the same environment —
// the VM mixes AccessSite (memoized instructions) with Access/Branch
// (everything else), and a memo must never replay across a membership
// change caused by non-site traffic.
func TestAccessSiteInterleavedWithAccess(t *testing.T) {
	lat := lattice.TwoPoint()
	for _, se := range siteEnvs(lat, TinyConfig()) {
		t.Run(se.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			generic := se.Clone()
			fast := se.Clone().(SiteEnv)
			var site Site
			bot := lat.Bot()
			for step := 0; step < 5000; step++ {
				if rng.Intn(3) == 0 {
					// The memoized site.
					cg := generic.Access(Read, 0x100, bot, bot)
					cf := fast.AccessSite(&site, Read, 0x100, bot, bot)
					if cg != cf {
						t.Fatalf("step %d: site cost %d != %d", step, cf, cg)
					}
				} else {
					// Conflicting plain traffic evicting the site's line.
					addr := uint64(rng.Intn(32)) * 16
					cg := generic.Access(Read, addr, bot, bot)
					cf := fast.Access(Read, addr, bot, bot)
					if cg != cf {
						t.Fatalf("step %d: plain cost %d != %d", step, cf, cg)
					}
				}
			}
			if generic.Stats() != fast.Stats() {
				t.Fatalf("stats diverged:\ngeneric %+v\nsite    %+v", generic.Stats(), fast.Stats())
			}
			for _, lv := range lat.Levels() {
				if !generic.ProjEqual(fast, lv) {
					t.Fatalf("state diverged at level %v", lv)
				}
			}
		})
	}
}

// TestSiteMemoGuardsOnlyItsSets checks the per-set guard on every
// environment with a memo: a memoized all-hit site (or, for NoFill's
// no-fill mode, a memoized miss) keeps replaying after plain traffic
// fills sets it never consulted, and drops to the slow path once a fill
// lands in a set it did consult.
func TestSiteMemoGuardsOnlyItsSets(t *testing.T) {
	lat := lattice.TwoPoint()
	lo, hi := lat.Bot(), lat.Top()
	// TinyConfig: TLB set = addr>>8 & 1, L1 set = addr>>4 & 3,
	// L2 set = addr>>5 & 7.
	const (
		site      = 0x100 // TLB set 1, L1 set 0, L2 set 0
		elsewhere = 0x230 // TLB set 0, L1 set 3, L2 set 1
		conflict  = 0x140 // the site's page and L1 set, another tag
	)
	cfg := TinyConfig()
	for _, tc := range []struct {
		env    SiteEnv
		er, ew lattice.Label
	}{
		{NewUnpartitioned(lat, cfg), lo, lo},
		{NewNoFill(lat, cfg), lo, lo},
		{NewNoFill(lat, cfg), hi, hi}, // no-fill mode memoizes the miss
		{NewPartitioned(lat, cfg), lo, lo},
		{NewPartitioned(lat, cfg), hi, hi},
	} {
		t.Run(tc.env.Name()+"/"+tc.er.String()+tc.ew.String(), func(t *testing.T) {
			var s Site
			tc.env.AccessSite(&s, Read, site, tc.er, tc.ew) // cold: fills
			tc.env.AccessSite(&s, Read, site, tc.er, tc.ew) // memoized
			if _, ok := s.Replay(site, tc.er, tc.ew); !ok {
				t.Fatal("memo not built")
			}
			tc.env.Access(Read, elsewhere, lo, lo)
			if _, ok := s.Replay(site, tc.er, tc.ew); !ok {
				t.Error("memo dropped after fills into sets it did not consult")
			}
			tc.env.Access(Read, conflict, lo, lo)
			if _, ok := s.Replay(site, tc.er, tc.ew); ok {
				t.Error("memo replayed after a fill into its own L1 set")
			}
		})
	}
}

// TestSiteMemoDropsOnCrossPartitionInvalidate checks that partFill's
// invalidation of a stale copy in another partition drops a memo that
// consulted that partition's set, even when nothing else it consulted
// changes. On a diamond L ⊑ A, B ⊑ H, a block can sit in both A and H
// (an er=B fill into H cannot see A). A later ew=A miss then moves it:
// it invalidates H's copy and re-fills A's, which is already resident
// and so changes nothing.
func TestSiteMemoDropsOnCrossPartitionInvalidate(t *testing.T) {
	lat := lattice.Diamond()
	l, _ := lat.Lookup("L")
	a, _ := lat.Lookup("A")
	b, _ := lat.Lookup("B")
	h, _ := lat.Lookup("H")
	p := NewPartitioned(lat, TinyConfig())
	const addr = 0x100
	p.Access(Read, addr, a, a) // resident in A
	p.Access(Read, addr, b, h) // and in H
	var s Site
	p.AccessSite(&s, Read, addr, h, h) // all-hit over L, A, B, H
	if _, ok := s.Replay(addr, h, h); !ok {
		t.Fatal("memo not built")
	}
	p.Access(Read, addr, l, a) // invalidates H's copy; A's fill is a no-op
	if _, ok := s.Replay(addr, h, h); ok {
		t.Error("memo replayed after its block was invalidated in a probed partition")
	}
}

// TestSiteMemoGuardsUnrefreshedPartitions checks the guard rule of a
// partitioned lookup on two-point TinyConfig (one way per partition):
// an [H,H] access probes L without refreshing it and H with. When H
// holds the block, L's contents cannot change the outcome, so the memo
// survives an [L,L] fill into the same TLB and L1 sets of L. When only
// L holds it, L decides the hit, and the same fill, which evicts the
// block from L, must drop the memo.
func TestSiteMemoGuardsUnrefreshedPartitions(t *testing.T) {
	lat := lattice.TwoPoint()
	lo, hi := lat.Bot(), lat.Top()
	const (
		site  = 0x100 // TLB set 1, L1 set 0
		other = 0x300 // another page and line, same TLB and L1 sets
	)
	for _, tc := range []struct {
		name     string
		fillAs   lattice.Label // where the site's block is made resident
		survives bool
	}{
		{"resident-in-H", hi, true},
		{"resident-in-L", lo, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPartitioned(lat, TinyConfig())
			p.Access(Read, site, tc.fillAs, tc.fillAs)
			var s Site
			p.AccessSite(&s, Read, site, hi, hi)
			if _, ok := s.Replay(site, hi, hi); !ok {
				t.Fatal("memo not built")
			}
			p.Access(Read, other, lo, lo)
			if _, ok := s.Replay(site, hi, hi); ok != tc.survives {
				t.Errorf("memo replays after a fill into L's sets: %v, want %v", ok, tc.survives)
			}
		})
	}
}

// BenchmarkAccessSite times one data access through a Site on
// partitioned two-point Table 1 hardware under [H,H] labels (those of
// login.tc's loops), issued the way the VM issues it (siteAccess), in
// ns per access:
//   - replay: one resident address, so every access replays its memo;
//   - walk: two resident addresses in different units, so every access
//     walks the hierarchy and hits everywhere;
//   - l2-fill: three addresses of one L1 set, more than the H
//     partition's two ways, so every access misses L1, hits L2 and
//     fills.
func BenchmarkAccessSite(b *testing.B) {
	lat := lattice.TwoPoint()
	hi := lat.Top()
	for _, bc := range []struct {
		name  string
		addrs []uint64
	}{
		{"replay", []uint64{0x10000}},
		{"walk", []uint64{0x10000, 0x10040}},
		{"l2-fill", []uint64{0x10000, 0x11000, 0x12000}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			env := NewPartitioned(lat, Table1Config())
			for _, a := range bc.addrs {
				env.Access(Read, a, hi, hi)
			}
			var s Site
			n := len(bc.addrs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				siteAccess(env, &s, Read, bc.addrs[i%n], hi, hi)
			}
		})
	}
}
