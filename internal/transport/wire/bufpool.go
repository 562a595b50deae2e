package wire

import "sync"

// Pooled byte buffers, shared by the server (internal/transport) and
// the client SDK: bodies are read into and encoded out of these, so the
// steady-state hot path on either side performs no per-request buffer
// allocation. Discipline: a buffer is put back only after its bytes
// have been handed off (an http.ResponseWriter copies on Write, a sent
// request is done with its body, and decode destinations copy or
// intern what they keep), never while still referenced.

// MaxPooledBuf bounds what PutBuf returns to the pool: one
// pathological multi-megabyte body must not pin its buffer forever.
const MaxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBuf returns an empty pooled byte buffer (pointer-to-slice, so
// puts do not allocate a slice header).
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a buffer to the pool, dropping oversized ones.
func PutBuf(b *[]byte) {
	if cap(*b) > MaxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
