package store

import (
	"context"

	"stair/internal/core"
)

// repairReq is one queued repair request: risk is the stripe's lost
// sector count when it was queued (the repair queue serves
// highest-risk first); attempt counts retries after partial write-back
// failures.
type repairReq struct {
	stripe  int
	risk    int
	attempt int
}

// maxRepairAttempts bounds immediate retries of a stripe whose repair
// write-backs keep failing: a persistently unwritable (but not
// fail-stop) device must not spin the worker pool — past the cap the
// request is dropped like a queue overflow and a later scrub pass
// re-finds the stripe.
const maxRepairAttempts = 3

// enqueueRepairLocked queues a stripe for background repair with the
// given risk (its lost sector count — the repair queue serves
// highest-risk first); the caller holds the stripe's shard mutex. A
// full queue drops the request (a later scrub pass re-finds the
// stripe).
func (s *Store) enqueueRepairLocked(sh *lockShard, stripe, risk int) {
	s.enqueueAttemptLocked(sh, repairReq{stripe: stripe, risk: risk})
}

func (s *Store) enqueueAttemptLocked(sh *lockShard, req repairReq) {
	if s.closed.Load() || sh.pending[req.stripe] || sh.unrecoverable[req.stripe] {
		return
	}
	if req.attempt >= maxRepairAttempts {
		s.c.repairDrops.Add(1)
		return
	}
	if s.repairQ.push(req) {
		sh.pending[req.stripe] = true
		s.pendingCount.Add(1)
	} else {
		s.c.repairDrops.Add(1)
	}
}

// repairLoop is one repair worker: it drains the repair queue —
// highest-risk stripe first — until Close. Workers proceed in parallel
// on stripes in different shards. Repairs run under the store's own
// (background) context: they are not tied to any caller's deadline.
func (s *Store) repairLoop() {
	defer s.wg.Done()
	for {
		req, ok := s.repairQ.pop()
		if !ok {
			return
		}
		sh := s.shard(req.stripe)
		sh.mu.Lock()
		requeue := s.repairStripeLocked(context.Background(), sh, req.stripe)
		delete(sh.pending, req.stripe)
		if requeue {
			// Re-enqueue before dropping this request's pending count so
			// Quiesce never observes a spurious idle window.
			s.c.repairRequeues.Add(1)
			s.enqueueAttemptLocked(sh, repairReq{stripe: req.stripe, risk: req.risk, attempt: req.attempt + 1})
		}
		sh.mu.Unlock()
		if fn := s.testRepairObserve; fn != nil {
			fn(req.stripe)
		}
		s.pendingCount.Add(-1)
		s.stateMu.Lock()
		s.idle.Broadcast()
		s.stateMu.Unlock()
	}
}

// repairStripeLocked reconstructs a stripe's lost cells and writes them
// back to every device that will take the write; the caller holds the
// stripe's shard mutex. Lost cells on a wholly failed device are skipped
// — reconstruction would have nowhere to land — so the stripe stays
// (recoverably) degraded until the device is replaced. A stripe counts
// as repaired only when every lost cell landed; a partial write-back
// (some writes failed transiently, or the context was cancelled
// mid-sweep) reports requeue so the worker retries instead of silently
// leaving the stripe degraded.
func (s *Store) repairStripeLocked(ctx context.Context, sh *lockShard, stripe int) (requeue bool) {
	if sh.unrecoverable[stripe] {
		return false
	}
	st, ld, err := s.loadAll(ctx, stripe, true)
	return s.healLoadedLocked(ctx, sh, st, ld, err)
}

// healLoadedLocked is a repair past its stripe load, which ended with
// err: it writes back the lost cells the load found and decoded, those
// on devices that take writes, reporting requeue as repairStripeLocked
// does. A load that failed (and marked the stripe, if beyond coverage)
// heals nothing. It owns st.
func (s *Store) healLoadedLocked(ctx context.Context, sh *lockShard, st *core.Stripe, ld *stripeLoad, err error) (requeue bool) {
	// Whatever path exits below, the loaded stripe goes back to the
	// pool — unless the load or the write-back was cancelled mid-flight,
	// where an abandoned device operation may still reference the slab.
	defer func() { s.releaseStripeUnlessCancelled(ctx, st) }()
	stripe, lost := ld.stripe, ld.lost.Count()
	writable := s.writable(sh, ld.lost)
	if err != nil || len(writable) == 0 {
		return false
	}
	wrote, failed, err := s.writeStripeCells(ctx, stripe, st, writable, nil)
	if wrote > 0 {
		s.c.repairedSectors.Add(uint64(wrote))
		// The repaired sectors' fresh records (staged by the write) go
		// durable now, so a scrub right after the repair sees a clean
		// stripe instead of re-flagging it.
		sh.cols = appendCols(sh.cols[:0], writable)
		_ = s.flushStripeMeta(ctx, stripe, sh.cols)
	}
	if err != nil {
		// Cancelled mid-write-back: whatever landed is already counted;
		// retry the rest later.
		return true
	}
	if wrote == lost {
		// Fully healed: every lost cell is back on a device.
		s.c.repairedStripes.Add(1)
		return false
	}
	// Still degraded. Cells skipped on failed devices have nothing to
	// retry until a replacement arrives, but failed write-backs are
	// worth another attempt.
	return failed > 0
}

// RebuildDevice synchronously restores the given (replaced) device's
// chunk of every stripe, bypassing the bounded queue. It reads that chunk
// first, in one vectored call checked against its integrity records; a
// stripe where it reads whole has nothing to rebuild and costs that one
// read. Any other stripe gets the planned load of every cell, which reads
// the other columns only, and every loss found in it — on this device or
// any other that takes writes — is decoded and written back. So after m
// replacements the first rebuild restores them all, and each further one
// reads one chunk per stripe and writes nothing. A loss elsewhere in a
// stripe whose chunk reads whole is left to the next Scrub. Stripes with
// an interrupted write-back pending are loaded whole, as the repair queue
// loads them. It runs GOMAXPROCS stripes at once, each under its own
// shard lock, so reads, writes and repairs of other stripes interleave
// with it. Stripes whose write-backs fail transiently are left to the
// scrubber. A cancelled ctx stops the sweep and aborts in-flight device
// waits.
func (s *Store) RebuildDevice(ctx context.Context, dev int) error {
	if _, err := s.faultDevice(dev); err != nil {
		return err
	}
	return s.sweep(ctx, nil, func(sh *lockShard, stripe int) error {
		s.rebuildStripeLocked(ctx, sh, stripe, dev)
		return ctx.Err()
	})
}

// rebuildStripeLocked is one stripe of RebuildDevice(dev); the caller
// holds the stripe's shard mutex.
func (s *Store) rebuildStripeLocked(ctx context.Context, sh *lockShard, stripe, dev int) {
	if buf := sh.dirty[stripe]; sh.unrecoverable[stripe] || buf != nil && buf.torn != nil {
		// A torn update's cells are read from memory, so dev's chunk
		// reading whole says nothing of what its device holds.
		s.repairStripeLocked(ctx, sh, stripe)
		return
	}
	// The chunk joins need, so that it is verified and the planned load
	// of a stripe with a hole reads only the other columns.
	st, ld := s.acquireStripe(), s.startLoad(stripe, true)
	for row := range s.r {
		ld.need.Set(dev*s.r + row)
	}
	start, chunk := s.devSector(stripe, 0), st.Cells[dev*s.r:(dev+1)*s.r]
	if s.landChunk(ctx, ld, dev, start, chunk, s.devs[dev].ReadSectors(ctx, start, chunk)) != nil {
		return
	}
	if ld.lost.Count() == 0 {
		s.c.addVerdicts(ld.verified, 0)
		s.releaseStripe(st)
		return
	}
	ld.want.Union(s.every)
	s.healLoadedLocked(ctx, sh, st, ld, s.loadPlanned(ctx, ld, st))
}
