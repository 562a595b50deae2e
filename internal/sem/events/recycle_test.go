package events

import "testing"

// TestRecyclerKeepsNothingUntilWanted pins the recycler's two modes on
// a fresh instance. Until a run asks for a buffer, put drops what it
// is given and allocates nothing, so a process whose engine builds
// fresh traces (the tree-walking semantics) neither keeps its
// responses' buffers alive nor pays for boxes to carry them. After the
// first get, a recycled buffer comes back emptied, and one over
// maxRecycled records is still dropped.
func TestRecyclerKeepsNothingUntilWanted(t *testing.T) {
	var r recycler[Event]
	buf := make([]Event, 3, 8)
	if n := testing.AllocsPerRun(100, func() { r.put(buf) }); n != 0 {
		t.Errorf("put before any get allocates %v, want 0", n)
	}
	if b := r.full.Get(); b != nil {
		t.Fatal("put kept a buffer before any get asked for one")
	}
	if got := r.get(); got != nil {
		t.Fatalf("first get = %d-record buffer, want nil", cap(got))
	}

	// sync.Pool may drop a Put (the race detector drops a quarter on
	// purpose, a collection empties it), so retry: one round trip must
	// succeed, and whatever comes back must be buf, emptied.
	kept := false
	for i := 0; i < 100 && !kept; i++ {
		r.put(buf)
		got := r.get()
		if got == nil {
			continue
		}
		if len(got) != 0 || cap(got) != cap(buf) || &got[:1][0] != &buf[0] {
			t.Fatalf("get = len %d cap %d, want buf emptied (cap %d)", len(got), cap(got), cap(buf))
		}
		kept = true
	}
	if !kept {
		t.Fatal("a wanted recycler never returned the buffer put into it")
	}
	r.put(make([]Event, 0, maxRecycled+1))
	if b := r.full.Get(); b != nil {
		t.Error("put kept a buffer over maxRecycled records")
	}
}
