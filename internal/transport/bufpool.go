package transport

import (
	"sync"

	"repro/internal/transport/wire"
)

// Pooled batch-result slices; the byte buffers the handler reads
// bodies into and encodes responses out of come from wire.GetBuf.

// maxPooledResults bounds what putResults returns to the pool, as
// wire.MaxPooledBuf does for byte buffers.
const maxPooledResults = 4096

var resultsPool = sync.Pool{New: func() any {
	s := make([]wire.BatchResult, 0, 64)
	return &s
}}

// getResults returns a zeroed batch-result slice of length n backed by
// the pool.
func getResults(n int) *[]wire.BatchResult {
	sp := resultsPool.Get().(*[]wire.BatchResult)
	s := *sp
	if cap(s) < n {
		s = make([]wire.BatchResult, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = wire.BatchResult{}
		}
	}
	*sp = s
	return sp
}

// putResults clears the slice's pointer fields before pooling it, so a
// recycled slice can neither pin the previous batch's responses in
// memory nor leak a stale result into a future response.
func putResults(sp *[]wire.BatchResult) {
	s := *sp
	for i := range s {
		s[i] = wire.BatchResult{}
	}
	if cap(s) > maxPooledResults {
		return
	}
	*sp = s[:0]
	resultsPool.Put(sp)
}
