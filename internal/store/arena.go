package store

import (
	"context"

	"stair/internal/core"
	"stair/internal/store/mem"
)

// This file is the store's zero-copy stripe memory: slab-backed stripes,
// pooled with their slabs for loads and write buffers alike, plus the
// flat-span detection that lets devices serve a vectored call over one
// contiguous region without a scratch flat.
//
// Layout: a stripe slab is core.SlabSize bytes, chunk-major — cell
// (col, row) lives at offset (col·r+row)·sectorSize — so the r sectors
// a device sees of one stripe are a single contiguous run. Cells are
// sliced from the slab without capacity caps (core.StripeOver), which
// is what makes the contiguity *detectable*: flatSpan can verify, with
// pure slice arithmetic, that a buffer vector tiles one backing region.
//
// Ownership: acquireStripe/acquireStripeBuf transfer a pooled stripe to
// the caller; the matching release returns it once no device operation
// can still reference it. An operation that ended with a context
// cancellation may leave an abandoned inner operation (a hedged read's
// primary, an in-flight HTTP body) holding the slab — such slabs
// are dropped to the GC instead of recycled (releaseStripeUnlessCancelled),
// because the GC keeps them alive for the straggler while a pool reuse
// would let it scribble over unrelated data.

// flatSpan reports whether bufs tiles one contiguous memory region and
// returns that region. It relies on the convention that slab-backed
// buffers are sliced without capacity caps, so the first buffer's
// capacity reaches to the end of its slab; per-buffer base pointers are
// then verified exactly, so a false positive is impossible.
func flatSpan(bufs [][]byte) ([]byte, bool) {
	if len(bufs) == 0 {
		return nil, false
	}
	if len(bufs) == 1 {
		return bufs[0], true
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if cap(bufs[0]) < total {
		return nil, false
	}
	flat := bufs[0][:total]
	off := len(bufs[0])
	for _, b := range bufs[1:] {
		if len(b) == 0 {
			continue
		}
		if &flat[off] != &b[0] {
			return nil, false
		}
		off += len(b)
	}
	return flat, true
}

// acquireStripe returns a pooled stripe whose cells tile one slab. It
// comes with its slab, so it costs neither an allocation nor slicing its
// cells: a planned load may read any cells of the stripe, and the
// degraded read, which reads n−m, cannot afford either. Contents are
// unspecified.
func (s *Store) acquireStripe() *core.Stripe {
	if st, ok := s.stripePool.Get().(*core.Stripe); ok {
		return st
	}
	st, err := s.code.StripeOver(make([]byte, s.slabLen), s.sectorSize)
	if err != nil {
		// Geometry and sector size were validated at Open.
		panic("store: acquireStripe: " + err.Error())
	}
	return st
}

// releaseStripe returns a stripe, slab and all, to the pool, poisoned as
// the buffer pool's are (mem.Poison). The stripe — and anything still
// referencing its cells — must not be used afterwards. Safe on nil.
func (s *Store) releaseStripe(st *core.Stripe) {
	if st != nil && len(st.Cells) > 0 && mem.Enabled() {
		mem.Poison(st.Cells[0][:s.slabLen])
		s.stripePool.Put(st)
	}
}

// releaseStripeUnlessCancelled releases st's slab unless the operation
// that used it ended by context cancellation — then the slab is dropped
// to the GC, since an abandoned device-side operation may still
// reference it (see the file comment).
func (s *Store) releaseStripeUnlessCancelled(ctx context.Context, st *core.Stripe) {
	if ctx.Err() == nil {
		s.releaseStripe(st)
	}
}

// acquireStripeBuf returns a write buffer whose rows are the data cells
// of a pooled stripe, filled as blocks arrive (see WriteBlock).
func (s *Store) acquireStripeBuf() *stripeBuf {
	buf, _ := s.bufPool.Get().(*stripeBuf)
	if buf == nil {
		buf = &stripeBuf{data: make([][]byte, s.perStripe)}
	}
	buf.st = s.acquireStripe()
	return buf
}

// releaseStripeBuf recycles a flushed buffer. The caller must already
// have removed it from the shard's dirty map, and must not call this
// when the flush ended by cancellation (the buffer stays dirty for
// retry in that case anyway).
func (s *Store) releaseStripeBuf(buf *stripeBuf) {
	s.releaseStripe(buf.st)
	buf.st = nil
	clear(buf.data)
	buf.count = 0
	buf.stuck, buf.queued = false, false
	buf.torn = nil
	s.bufPool.Put(buf)
}
