package certify

import (
	"context"
	"errors"
	"testing"

	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/full"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// victimProgram is §2.1's indirect-dependency example: a single
// high-indexed array read. On commodity hardware its cache fill lands
// at a secret-dependent address in the shared cache.
const victimProgram = `
var h1 : H;
var h2 : H;
array m[16] : H;
h2 := m[h1] [H,H];
`

// runVictim executes the victim with secret h1 on the SHARED machine
// environment (the coresident threat model).
func runVictim(t *testing.T, env hw.Env, lat lattice.Lattice, h1 int64) {
	t.Helper()
	prog, err := parser.Parse(victimProgram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := types.Check(prog, lat)
	if err != nil {
		t.Fatal(err)
	}
	m, err := full.New(prog, res, env, full.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.Memory().Set("h1", h1)
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
}

// primeAddrs fills every set of the Tiny L1D (4 sets × 2 ways, 16-byte
// blocks) with attacker lines.
func primeAddrs() []uint64 {
	cfg := hw.TinyConfig().Data.L1
	var out []uint64
	for set := 0; set < cfg.Sets; set++ {
		base := uint64(0x80000 + set*cfg.BlockSize)
		out = append(out, ConflictAddrs(base, cfg.Sets, cfg.BlockSize, cfg.Assoc)...)
	}
	return out
}

// evictedCount is the number of signaled lines in a signature.
func evictedCount(sig []bool) int {
	n := 0
	for _, e := range sig {
		if e {
			n++
		}
	}
	return n
}

func TestConflictAddrsSameSet(t *testing.T) {
	cfg := hw.TinyConfig().Data.L1
	addrs := ConflictAddrs(0x1000, cfg.Sets, cfg.BlockSize, 4)
	set := func(a uint64) uint64 { return (a / uint64(cfg.BlockSize)) % uint64(cfg.Sets) }
	for _, a := range addrs[1:] {
		if set(a) != set(addrs[0]) {
			t.Fatalf("addresses not set-aligned: %#x vs %#x", a, addrs[0])
		}
	}
	if len(addrs) != 4 {
		t.Error("count")
	}
}

// TestPrimeProbeUnpartitionedLeaks reproduces the §2.1 attack: on
// commodity (unpartitioned) hardware, the victim's single high read
// evicts an attacker line whose cache set depends on the secret index.
func TestPrimeProbeUnpartitionedLeaks(t *testing.T) {
	lat := lattice.TwoPoint()
	signature := func(h1 int64) []bool {
		env := hw.NewUnpartitioned(lat, hw.TinyConfig())
		return PrimeProbe(env, primeAddrs(), func(shared hw.Env) {
			runVictim(t, shared, lat, h1)
		})
	}
	// Distinct secrets map to distinct cache sets (elements are 8 bytes,
	// blocks 16 bytes: indices 0 and 4 are two sets apart).
	s0 := signature(0)
	s4 := signature(4)
	if evictedCount(s0) == 0 || evictedCount(s4) == 0 {
		t.Fatal("victim access should evict at least one primed line on shared cache")
	}
	differ := false
	for i := range s0 {
		if s0[i] != s4[i] {
			differ = true
		}
	}
	if !differ {
		t.Error("eviction signature should depend on the secret index")
	}
}

// TestPrimeProbePartitionedSilent shows the paper's fix: with the §4.3
// partitioned design, the victim's fill goes to the confidential
// partition and the attacker's probes see nothing at all.
func TestPrimeProbePartitionedSilent(t *testing.T) {
	lat := lattice.TwoPoint()
	for _, h1 := range []int64{0, 4, 9} {
		env := hw.NewPartitioned(lat, hw.TinyConfig())
		sig := PrimeProbe(env, primeAddrs(), func(shared hw.Env) {
			runVictim(t, shared, lat, h1)
		})
		if n := evictedCount(sig); n != 0 {
			t.Errorf("h1=%d: partitioned hardware leaked %d evictions", h1, n)
		}
	}
}

// TestPrimeProbeNoFillSilent: the §4.2 no-fill design also resists —
// high-context accesses never fill the shared cache.
func TestPrimeProbeNoFillSilent(t *testing.T) {
	lat := lattice.TwoPoint()
	env := hw.NewNoFill(lat, hw.TinyConfig())
	sig := PrimeProbe(env, primeAddrs(), func(shared hw.Env) {
		runVictim(t, shared, lat, 7)
	})
	if n := evictedCount(sig); n != 0 {
		t.Errorf("no-fill hardware leaked %d evictions", n)
	}
}

// TestPrimeProbeFlushSignalsButUniformly: flush-on-high wipes ALL
// primed lines regardless of the secret — the attacker sees a massive
// but secret-independent signal (every probe misses for every secret).
func TestPrimeProbeFlushSignalsButUniformly(t *testing.T) {
	lat := lattice.TwoPoint()
	signature := func(h1 int64) []bool {
		env := hw.NewFlushOnHigh(lat, hw.TinyConfig())
		return PrimeProbe(env, primeAddrs(), func(shared hw.Env) {
			runVictim(t, shared, lat, h1)
		})
	}
	s0 := signature(0)
	s9 := signature(9)
	for i := range s0 {
		if s0[i] != s9[i] {
			t.Fatalf("flush design signature depends on secret at line %d", i)
		}
		if !s0[i] {
			t.Fatalf("flush design should evict every primed line (index %d survived)", i)
		}
	}
}

// arrayReadWorkload is the victim program as a mitigated certification
// workload: one secret-indexed high array read, whose cache fill lands
// at a secret-dependent set on shared hardware.
func arrayReadWorkload(t *testing.T, n int) *Workload {
	t.Helper()
	prog, err := parser.Parse(`
var h1 : H;
var h2 : H;
array m[16] : H;
mitigate (1, H) [L,L] {
    h2 := m[h1] [H,H];
}
`)
	if err != nil {
		t.Fatal(err)
	}
	lat := lattice.TwoPoint()
	res, err := types.Check(prog, lat)
	if err != nil {
		t.Fatal(err)
	}
	return &Workload{
		Name: "array-read",
		Prog: prog,
		Res:  res,
		Lat:  lat,
		N:    n,
		Set: func(secret int, m *mem.Memory) {
			m.Set("h1", int64(secret))
		},
		HW: hw.TinyConfig,
	}
}

// TestPrimeProbeAdversary mounts the cache attacker through the
// certification harness: on commodity (unpartitioned) hardware the
// eviction signature carries the secret; the paper's partitioned
// design silences it completely.
func TestPrimeProbeAdversary(t *testing.T) {
	ctx := context.Background()
	w := arrayReadWorkload(t, 8)

	unmit, err := NewEngineTarget(w, TargetConfig{Hardware: "unpartitioned", Mitigated: false})
	if err != nil {
		t.Fatal(err)
	}
	att, err := (&PrimeProbeAdversary{}).Mount(ctx, unmit, NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if att.Bits < 1 {
		t.Errorf("unpartitioned eviction signature should carry ≥ 1 bit, measured %.3f", att.Bits)
	}

	part, err := NewEngineTarget(w, TargetConfig{Hardware: "partitioned", Mitigated: false})
	if err != nil {
		t.Fatal(err)
	}
	att, err = (&PrimeProbeAdversary{}).Mount(ctx, part, NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if att.Bits != 0 {
		t.Errorf("partitioned hardware should silence the cache channel, measured %.3f bits", att.Bits)
	}
}

// TestPrimeProbeNotApplicableRemote: the pool and HTTP targets share no
// hardware with the adversary, so the cache attacker skips them and
// Certify mounts the other four attackers, in battery order.
func TestPrimeProbeNotApplicableRemote(t *testing.T) {
	ctx := context.Background()
	w := mustSleep(t)
	for _, bind := range []func(*Workload, TargetConfig) (Target, error){
		func(w *Workload, c TargetConfig) (Target, error) { return NewPoolTarget(w, c) },
		func(w *Workload, c TargetConfig) (Target, error) { return NewHTTPTarget(w, c) },
	} {
		tgt, err := bind(w, TargetConfig{Mitigated: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&PrimeProbeAdversary{}).Mount(ctx, tgt, NewRNG(1)); !errors.Is(err, ErrNotApplicable) {
			t.Errorf("%s: want ErrNotApplicable, got %v", tgt.Name(), err)
		}
		res, err := Certify(ctx, tgt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := attackNames(res), "exhaustive,binary-search,mi-estimator,branch-pair"; got != want {
			t.Errorf("%s: battery = %s, want %s", tgt.Name(), got, want)
		}
		if err := tgt.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestCertifyWithMicroarchAdversaries runs the whole battery, both
// microarchitectural attackers included, against the mitigated
// array-read workload on partitioned hardware — the complete threat
// model of the paper, and it still certifies.
func TestCertifyWithMicroarchAdversaries(t *testing.T) {
	w := arrayReadWorkload(t, 8)
	tgt, err := NewEngineTarget(w, TargetConfig{Hardware: "partitioned", Mitigated: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Certify(context.Background(), tgt, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attacks) != 5 {
		t.Fatalf("all 5 adversaries should mount on a coresident target, got %d", len(res.Attacks))
	}
	if !res.Certified {
		t.Errorf("mitigated partitioned array-read should survive the full battery: upper %.3f vs reported %.3f",
			res.UpperBits, res.ReportedBits)
	}
}
