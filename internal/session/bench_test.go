package session

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lattice"
)

// benchManager builds a manager sized for the benchmark at hand.
func benchManager(b *testing.B, opts Options) *Manager {
	b.Helper()
	if opts.Lat == nil {
		opts.Lat = lattice.TwoPoint()
	}
	m, err := NewManager(opts)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// tenantNames pre-renders n tenant IDs so the hot loop measures the
// manager, not fmt.
func tenantNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%05d", i)
	}
	return names
}

// BenchmarkSessionManager measures the admission hot path — Begin,
// budget check, Commit — across tenant working-set sizes: 1 (maximum
// per-session serialization), 100 (typical), and 10k (map- and
// LRU-heavy), with goroutines hitting the manager concurrently as
// transport handlers do, and single-goroutine eviction churn at caps
// of 1,024 and 65,536 sessions.
func BenchmarkSessionManager(b *testing.B) {
	for _, tenants := range []int{1, 100, 10_000} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			m := benchManager(b, Options{})
			names := tenantNames(tenants)
			var next atomic.Uint64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tk, err := m.Begin(names[next.Add(1)%uint64(len(names))])
					if err != nil {
						b.Fatal(err)
					}
					tk.Commit(1024, 1)
				}
			})
		})
	}

	// Eviction churn: the working set is far larger than the cap, so
	// nearly every Begin evicts an LRU victim first — the worst case
	// for the shard lists.
	b.Run("eviction-churn", func(b *testing.B) {
		m := benchManager(b, Options{MaxSessions: 64})
		names := tenantNames(8192)
		var next atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				tk, err := m.Begin(names[next.Add(1)%uint64(len(names))])
				if err != nil {
					b.Fatal(err)
				}
				tk.Commit(1024, 1)
			}
		})
	})

	// Admission churn at realistic caps: the table is filled to the
	// cap, then every Begin names a tenant out of four times the cap
	// in rotation, so every admission evicts the LRU victim and
	// recycles it. 65,536 is serve's default -session-max; with 4 per
	// shard the case above cannot show a cost that grows with the
	// shard's size, these can. The TTL cases keep the idle list and
	// its sweep on the path (nothing expires within an hour).
	for _, capacity := range []int{1024, 65536} {
		for _, ttl := range []time.Duration{0, time.Hour} {
			b.Run(fmt.Sprintf("churn/cap=%d/ttl=%v", capacity, ttl), func(b *testing.B) {
				m := benchManager(b, Options{MaxSessions: capacity, TTL: ttl})
				names := tenantNames(4 * capacity)
				admit := func(tenant string) {
					tk, err := m.Begin(tenant)
					if err != nil {
						b.Fatal(err)
					}
					tk.Commit(1024, 1)
				}
				for _, name := range names[:capacity] {
					admit(name)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					admit(names[(capacity+i)%len(names)])
				}
			})
		}
	}

	// Budget-checked admission: every Begin recomputes the §7 bound
	// against a budget high enough to always admit — the enforcement
	// arithmetic itself is on the hot path here.
	b.Run("budget-checked", func(b *testing.B) {
		m := benchManager(b, Options{BudgetBits: 1e12, TTL: time.Hour})
		names := tenantNames(100)
		var next atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				tk, err := m.Begin(names[next.Add(1)%uint64(len(names))])
				if err != nil {
					b.Fatal(err)
				}
				tk.Commit(1024, 1)
			}
		})
	})
}
