package transport

import (
	"sync"

	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/transport/wire"
	"repro/internal/transport/wire/fastjson"
)

// item is one pooled request on the shared item path, from admission to
// its wire result: it owns all the storage the request needs on the way.
type item struct {
	req fastjson.SlotRequest
	// setup is apply, bound when the item is made, so submitting the
	// item's run allocates nothing.
	setup server.Request
	// tenant is the session the item runs in ("" for anonymous).
	tenant string
	// queued marks an anonymous item whose run is pending in fut;
	// resolve clears it. Otherwise res is the item's result.
	queued bool
	fut    server.Future
	// lost marks an item whose wait ended with its context while the
	// worker may still call setup: it is left to the garbage collector
	// rather than reused.
	lost bool
	resp wire.RunResponse
	res  wire.BatchResult
}

var itemPool = sync.Pool{New: func() any {
	it := new(item)
	it.setup = it.apply
	return it
}}

// getItem returns an empty item from the pool.
func getItem() *item { return itemPool.Get().(*item) }

// putItem empties an item, keeping its buffers, and pools it unless it
// is lost.
func putItem(it *item) {
	if it.lost {
		return
	}
	it.reset()
	itemPool.Put(it)
}

// maxItemRecords bounds the input pairs, trace events and mitigation
// records whose storage an item keeps for its next request.
const maxItemRecords = 1 << 16

// reset empties an item for its next request, keeping the capacity of
// its input pairs, trace and mitigation records up to maxItemRecords.
func (it *item) reset() {
	if cap(it.req.Slots)+cap(it.resp.Trace)+cap(it.resp.Mitigations) > maxItemRecords {
		*it = item{setup: it.setup}
	}
	it.req.Reset()
	it.tenant, it.queued, it.fut = "", false, server.Future{}
	it.resp = wire.RunResponse{Trace: it.resp.Trace[:0], Mitigations: it.resp.Mitigations[:0]}
	it.res = wire.BatchResult{}
}

// apply is the item's setup: it sets the request's inputs, resolved to
// scalar slots at decode, in the run's memory.
func (it *item) apply(m *mem.Memory) {
	for _, in := range it.req.Slots {
		m.SetSlot(in.Slot, in.Value)
	}
}

// fail makes werr the item's result.
func (it *item) fail(werr *wire.Error) { it.res = wire.BatchResult{Error: werr} }

// succeed makes the pool response the item's result, written into the
// item's own response, and releases it.
func (it *item) succeed(resp *server.Response) {
	fillRunResponse(&it.resp, resp, it.req.Trace, it.req.Mitigations)
	server.ReleaseResponse(resp)
	it.res = wire.BatchResult{Response: &it.resp}
}

// batch is one /v1/batch request's items and results, pooled whole, so
// a steady stream of batches reuses both.
type batch struct {
	// items[:used] are the items the decode touched.
	items    []*item
	used     int
	results  []wire.BatchResult
	overflow fastjson.SlotRequest // requests past DefaultMaxBatch
	elemFn   func(int) *fastjson.SlotRequest
}

var batchPool = sync.Pool{New: func() any {
	b := &batch{results: make([]wire.BatchResult, 0, 64)}
	b.elemFn = b.elem
	return b
}}

// getBatch returns an empty batch from the pool.
func getBatch() *batch { return batchPool.Get().(*batch) }

// putBatch empties a batch and pools it with its items, replacing lost
// ones. No result or item of the batch references the request after.
func putBatch(b *batch) {
	for i, it := range b.items[:b.used] {
		if it.lost {
			b.items[i] = getItem()
		} else {
			it.reset()
		}
	}
	clear(b.results)
	b.results = b.results[:0]
	b.overflow = fastjson.SlotRequest{}
	b.used = 0
	batchPool.Put(b)
}

// elem is the decode destination of request i. Requests past
// DefaultMaxBatch share one scratch destination, so an oversized batch
// costs no memory per request before it is refused.
func (b *batch) elem(i int) *fastjson.SlotRequest {
	if i >= DefaultMaxBatch {
		return &b.overflow
	}
	for len(b.items) <= i {
		b.items = append(b.items, getItem())
	}
	b.used = max(b.used, i+1)
	return &b.items[i].req
}
