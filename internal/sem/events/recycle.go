package events

import (
	"sync"
	"sync/atomic"
)

// Run buffers. A service that runs one program per request fills a
// Trace and a MitTrace on every run, and once it has encoded the
// response it has no further use for them. Recycle takes such buffers
// back and ReuseTrace/ReuseMitTrace hand them to a later run, so steady
// serving allocates no trace storage. Each buffer travels in a box
// drawn from a pool of empty boxes, so neither direction allocates
// once the pools are warm; a garbage collection may empty the pools,
// after which the next runs allocate afresh.

// maxRecycled bounds the capacity, in records, of a buffer kept for
// reuse; a larger one is left to the garbage collector.
const maxRecycled = 1 << 16

// box carries one buffer through a recycler.
type box[T any] struct{ s []T }

// recycler pools buffers of one element type.
type recycler[T any] struct {
	full  sync.Pool // *box[T] carrying a buffer
	empty sync.Pool // *box[T] carrying none, kept for the next put
	// wanted records that some run has asked for a buffer. Until then
	// put drops what it is given: in a process whose engine never
	// reuses buffers (the tree-walking semantics builds fresh ones)
	// keeping them would only hold them alive longer and allocate a
	// box for each.
	wanted atomic.Bool
}

func (r *recycler[T]) get() []T {
	if !r.wanted.Load() { // a load keeps the flag's cache line shared
		r.wanted.Store(true)
	}
	b, _ := r.full.Get().(*box[T])
	if b == nil {
		return nil
	}
	s := b.s
	b.s = nil
	r.empty.Put(b)
	return s
}

func (r *recycler[T]) put(s []T) {
	if !r.wanted.Load() || cap(s) == 0 || cap(s) > maxRecycled {
		return
	}
	b, _ := r.empty.Get().(*box[T])
	if b == nil {
		b = new(box[T])
	}
	b.s = s[:0]
	r.full.Put(b)
}

var (
	traces recycler[Event]
	mits   recycler[MitRecord]
)

// ReuseTrace returns an empty trace with recycled capacity, or nil
// when none is pooled. The caller owns the result.
func ReuseTrace() Trace { return traces.get() }

// ReuseMitTrace returns an empty mitigation trace with recycled
// capacity, or nil when none is pooled. The caller owns the result.
func ReuseMitTrace() MitTrace { return mits.get() }

// Recycle hands a finished run's buffers back for reuse by a later
// run. The caller must hold the only references to them and must not
// use them afterwards. Nil or empty-capacity buffers are ignored, and
// so is everything until some run has asked for a buffer of its kind.
// Safe for concurrent use.
func Recycle(t Trace, m MitTrace) {
	traces.put(t)
	mits.put(m)
}
