package session

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/leakage"
	"repro/internal/mitigation"
	"repro/internal/obs"
)

// fakeClock is an injectable deterministic clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.Lat == nil {
		opts.Lat = lattice.TwoPoint()
	}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerValidates(t *testing.T) {
	if _, err := NewManager(Options{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("missing lattice: got %v, want ErrBadOptions", err)
	}
	if _, err := NewManager(Options{Lat: lattice.TwoPoint(), BudgetBits: -1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("negative budget: got %v, want ErrBadOptions", err)
	}
	if _, err := NewManager(Options{Lat: lattice.TwoPoint(), TTL: -time.Second}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("negative TTL: got %v, want ErrBadOptions", err)
	}
}

func TestAccountFollowsLeakageBound(t *testing.T) {
	m := newManager(t, Options{})
	closure := lattice.TwoPoint().Size() - 1

	var cumT uint64
	cumK := 0
	for epoch := 0; epoch < 5; epoch++ {
		tk, err := m.Begin("alice")
		if err != nil {
			t.Fatal(err)
		}
		if tk.Epoch() != epoch {
			t.Errorf("epoch = %d, want %d", tk.Epoch(), epoch)
		}
		info := tk.Commit(1000, 2)
		cumT += 1000
		cumK += 2
		want := leakage.Bound(closure, cumK, cumT)
		if info.SpentBits != want {
			t.Errorf("epoch %d: SpentBits = %v, want Bound(%d,%d,%d) = %v",
				epoch, info.SpentBits, closure, cumK, cumT, want)
		}
	}
}

func TestAbortLeavesAccountUntouched(t *testing.T) {
	m := newManager(t, Options{})
	tk, err := m.Begin("alice")
	if err != nil {
		t.Fatal(err)
	}
	tk.Commit(500, 1)

	tk, err = m.Begin("alice")
	if err != nil {
		t.Fatal(err)
	}
	tk.Abort()

	info, ok := m.Peek("alice")
	if !ok || info.Epoch != 1 || info.CumTime != 500 || info.CumMitigations != 1 {
		t.Errorf("abort must not advance the account: %+v (ok=%v)", info, ok)
	}
}

func TestTenantsAreIndependent(t *testing.T) {
	m := newManager(t, Options{})
	for i := 0; i < 3; i++ {
		tk, _ := m.Begin("alice")
		tk.Commit(1000, 1)
	}
	tk, err := m.Begin("bob")
	if err != nil {
		t.Fatal(err)
	}
	if tk.Epoch() != 0 || tk.SpentBits() != 0 {
		t.Errorf("bob must start fresh: epoch=%d spent=%v", tk.Epoch(), tk.SpentBits())
	}
	tk.Abort()
	if a, _ := m.Peek("alice"); a.Epoch != 3 {
		t.Errorf("alice's epochs must be untouched by bob: %+v", a)
	}
}

func TestBudgetDenialIsTypedAndCounted(t *testing.T) {
	met := obs.NewMetrics()
	m := newManager(t, Options{BudgetBits: 5, TTL: time.Minute, Metrics: met})

	// Spend past the budget: one big epoch.
	tk, err := m.Begin("bob")
	if err != nil {
		t.Fatal(err)
	}
	tk.Commit(1_000_000, 100) // bound ≫ 5 bits

	_, err = m.Begin("bob")
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-budget Begin = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error must be a *BudgetError, got %T", err)
	}
	if be.Tenant != "bob" || be.BudgetBits != 5 || be.SpentBits <= 5 {
		t.Errorf("budget error fields: %+v", be)
	}
	if be.RetryAfter != time.Minute {
		t.Errorf("RetryAfter = %v, want the TTL (%v)", be.RetryAfter, time.Minute)
	}
	if s := met.Snapshot(); s.BudgetDenials != 1 {
		t.Errorf("BudgetDenials = %d, want 1", s.BudgetDenials)
	}
	if info, _ := m.Peek("bob"); info.Denials != 1 {
		t.Errorf("session denial count = %d, want 1", info.Denials)
	}
}

func TestZeroBudgetDisablesEnforcement(t *testing.T) {
	m := newManager(t, Options{})
	tk, _ := m.Begin("alice")
	tk.Commit(1_000_000_000, 1_000_000)
	if _, err := m.Begin("alice"); err != nil {
		t.Errorf("unlimited budget must always admit: %v", err)
	}
}

func TestTTLExpiryResetsAccount(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	met := obs.NewMetrics()
	m := newManager(t, Options{BudgetBits: 5, TTL: time.Minute, Metrics: met, Now: clk.now})

	tk, _ := m.Begin("bob")
	tk.Commit(1_000_000, 100)
	if _, err := m.Begin("bob"); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want denial before expiry, got %v", err)
	}

	clk.advance(2 * time.Minute)
	tk, err := m.Begin("bob")
	if err != nil {
		t.Fatalf("expired session must reset the budget: %v", err)
	}
	if tk.Epoch() != 0 || tk.SpentBits() != 0 {
		t.Errorf("reset session must start fresh: epoch=%d spent=%v", tk.Epoch(), tk.SpentBits())
	}
	tk.Abort()
	if s := met.Snapshot(); s.SessionsEvictedTTL != 1 || s.SessionsCreated != 2 {
		t.Errorf("TTL eviction accounting: %+v", s)
	}
}

// TestRecycledSessionStartsFresh admits a tenant, moves its
// mitigation state away from NewState's, and then has the session
// evicted — by LRU for another tenant, by TTL for another tenant, and
// by TTL for the same tenant. The session object is recycled for the
// tenant admitted next, which must see exactly the state NewState
// would give it, for each policy, and an empty account.
func TestRecycledSessionStartsFresh(t *testing.T) {
	lat := lattice.TwoPoint()
	scheme := mitigation.SlowDoubling{}
	for _, policy := range []mitigation.Policy{mitigation.PerLevel, mitigation.PerSite, mitigation.Global} {
		for _, how := range []string{"lru", "ttl", "ttl-same-tenant"} {
			t.Run(fmt.Sprintf("%v/%s", policy, how), func(t *testing.T) {
				clk := &fakeClock{t: time.Unix(0, 0)}
				met := obs.NewMetrics()
				opts := Options{Lat: lat, Scheme: scheme, Policy: policy, MaxSessions: 1, Shards: 1, Metrics: met, Now: clk.now}
				if how != "lru" {
					opts.TTL = time.Minute
				}
				m := newManager(t, opts)
				tk, err := m.Begin("alice")
				if err != nil {
					t.Fatal(err)
				}
				used := tk.e
				tk.Mit().Penalize(1, lat.Top(), 3, 1000)
				tk.Mit().Penalize(1, lat.Bot(), 4, 10)
				fresh := mitigation.NewState(lat, scheme, policy)
				if tk.Mit().Equal(fresh) {
					t.Fatal("Penalize left the state as NewState made it")
				}
				tk.Commit(1000, 2)

				next := "bob"
				switch how {
				case "ttl":
					clk.advance(2 * time.Minute)
				case "ttl-same-tenant":
					clk.advance(2 * time.Minute)
					next = "alice"
				}
				tk, err = m.Begin(next)
				if err != nil {
					t.Fatal(err)
				}
				defer tk.Abort()
				if tk.e != used {
					t.Fatal("the evicted session was not recycled")
				}
				if s := met.Snapshot(); s.SessionsEvictedTTL+s.SessionsEvictedLRU != 1 || (s.SessionsEvictedTTL == 1) != (how != "lru") {
					t.Fatalf("evictions ttl=%d lru=%d, want one by %s", s.SessionsEvictedTTL, s.SessionsEvictedLRU, how)
				}
				if !tk.Mit().Equal(fresh) {
					t.Errorf("%s admitted with the evicted tenant's mitigation state", next)
				}
				if tk.Epoch() != 0 || tk.SpentBits() != 0 {
					t.Errorf("%s admitted with epoch %d and %v bits spent, want a fresh account", next, tk.Epoch(), tk.SpentBits())
				}
			})
		}
	}
}

func TestLRUCapEvictsOldest(t *testing.T) {
	met := obs.NewMetrics()
	m := newManager(t, Options{MaxSessions: 4, Shards: 1, Metrics: met})

	for i := 0; i < 6; i++ {
		tk, err := m.Begin(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		tk.Commit(1, 0)
	}
	if n := m.Len(); n > 4 {
		t.Errorf("live sessions = %d, want ≤ cap 4", n)
	}
	// t0 and t1 were least recently used and must be gone.
	if _, ok := m.Peek("t0"); ok {
		t.Error("t0 must have been LRU-evicted")
	}
	if _, ok := m.Peek("t5"); !ok {
		t.Error("t5 (most recent) must survive")
	}
	if s := met.Snapshot(); s.SessionsEvictedLRU == 0 {
		t.Error("LRU evictions must be counted")
	}
	if s := met.Snapshot(); s.SessionsActive != int64(m.Len()) {
		t.Errorf("gauge %d disagrees with Len %d", met.Snapshot().SessionsActive, m.Len())
	}
}

func TestBusySessionsSurviveEviction(t *testing.T) {
	m := newManager(t, Options{MaxSessions: 1, Shards: 1})
	tk, err := m.Begin("pinned")
	if err != nil {
		t.Fatal(err)
	}
	// Admitting a second tenant at cap 1 must not evict the busy one.
	tk2, err := m.Begin("other")
	if err != nil {
		t.Fatal(err)
	}
	tk2.Commit(1, 0)
	tk.Commit(1, 0)
	// The busy session must have survived the over-cap admission.
	if _, ok := m.Peek("pinned"); !ok {
		t.Error("busy session must never be evicted")
	}
}

func TestSameTenantRequestsSerialize(t *testing.T) {
	m := newManager(t, Options{})
	tk, err := m.Begin("alice")
	if err != nil {
		t.Fatal(err)
	}
	second := make(chan struct{})
	go func() {
		tk2, err := m.Begin("alice")
		if err == nil {
			tk2.Commit(1, 0)
		}
		close(second)
	}()
	select {
	case <-second:
		t.Fatal("second request must block until the first commits")
	case <-time.After(20 * time.Millisecond):
	}
	tk.Commit(1, 0)
	select {
	case <-second:
	case <-time.After(2 * time.Second):
		t.Fatal("second request must proceed after commit")
	}
}

func TestConcurrentTenantsRace(t *testing.T) {
	m := newManager(t, Options{MaxSessions: 32, Shards: 4, Metrics: obs.NewMetrics(), BudgetBits: 1e9})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tenant := fmt.Sprintf("t%d", (g*200+i)%48)
				tk, err := m.Begin(tenant)
				if err != nil {
					continue
				}
				if i%7 == 0 {
					tk.Abort()
				} else {
					tk.Commit(uint64(i), i%3)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n > 32 {
		t.Errorf("live sessions = %d, want ≤ 32", n)
	}
}

func TestEpochSequenceMatchesSerialReference(t *testing.T) {
	// Interleaving two tenants through one manager must give each the
	// same account it would get from a dedicated manager of its own —
	// the session layer's core independence property.
	shared := newManager(t, Options{})
	solo := newManager(t, Options{})

	runs := []struct {
		tenant  string
		elapsed uint64
		mits    int
	}{
		{"a", 100, 1}, {"b", 900, 3}, {"a", 200, 0}, {"b", 50, 1},
		{"a", 1000, 2}, {"b", 1, 0}, {"a", 5, 5},
	}
	for _, r := range runs {
		tk, err := shared.Begin(r.tenant)
		if err != nil {
			t.Fatal(err)
		}
		tk.Commit(r.elapsed, r.mits)
	}
	for _, r := range runs {
		if r.tenant != "a" {
			continue
		}
		tk, err := solo.Begin("a")
		if err != nil {
			t.Fatal(err)
		}
		tk.Commit(r.elapsed, r.mits)
	}
	got, _ := shared.Peek("a")
	want, _ := solo.Peek("a")
	if got != want {
		t.Errorf("interleaved account %+v != serial reference %+v", got, want)
	}
}
