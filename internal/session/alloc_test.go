package session

import (
	"fmt"
	"testing"
	"time"
)

// TestAdmissionAllocs pins admission at zero allocations: Begin and
// Commit of a live tenant (a hit), and of a new tenant on a full table
// (churn: the LRU victim is recycled, mitigation state included, and
// the ticket is part of the session), with and without a TTL. Before
// recycling a hit allocated its ticket and churn 5 objects.
func TestAdmissionAllocs(t *testing.T) {
	for _, ttl := range []time.Duration{0, time.Hour} {
		const capacity = 64
		m := newManager(t, Options{MaxSessions: capacity, Shards: 4, TTL: ttl})
		names := make([]string, 4*capacity)
		for i := range names {
			names[i] = fmt.Sprintf("tenant-%d", i)
		}
		admit := func(tenant string) {
			tk, err := m.Begin(tenant)
			if err != nil {
				t.Fatal(err)
			}
			tk.Commit(1024, 1)
		}
		n := 0
		churn := func() {
			admit(names[n%len(names)])
			n++
		}
		for range 2 * len(names) {
			churn() // fill the table and grow its maps
		}
		if got := testing.AllocsPerRun(1000, churn); got != 0 {
			t.Errorf("TTL %v: churning Begin+Commit allocates %v per admission, want 0", ttl, got)
		}
		hit := func() { admit(names[(n-1)%len(names)]) }
		if got := testing.AllocsPerRun(1000, hit); got != 0 {
			t.Errorf("TTL %v: Begin+Commit of a live tenant allocates %v, want 0", ttl, got)
		}
	}
}
