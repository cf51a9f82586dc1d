package store

import (
	"context"
	"fmt"

	"stair/internal/core"
	"stair/internal/store/journal"
)

// This file is the store's write-back engine: the per-stripe flush
// (full-stripe encode or §5.2 incremental read–modify–write) and the
// optional write-ahead journaling that makes a flush crash-consistent.
// A flush runs in the goroutine that asks for it — the writer that fills
// or evicts a stripe, or the caller of Flush, Sync or Close — so writers
// on different stripes flush in parallel, and a flush's error is
// returned to the call that triggered it.
//
// A write-back's calls go out in waves (see wave.go), each started once
// the one before has returned: unjournaled, the cells, then the sidecar
// records. The journaled write-back protocol per stripe is
//
//	1. append an intent (stripe, dirty ords, digests) — fsynced;
//	2. write the stripe's data sectors, one wave;
//	3. write its parity sectors, the next wave;
//	4. write its sidecar records, with integrity on, the last wave;
//	5. commit the intent.
//
// with a kill point between each two. A crash between 1 and 5 leaves the
// intent pending; Open replays it, re-verifying the stripe's parity and
// rolling forward if the write-back was interrupted (see recovery.go).
// Data sectors go first so that recovery's roll-forward — re-encoding
// parity from on-device data — converges on the *new* content whenever
// the data phase completed, and on a consistent mix otherwise.

// killPoint names a crash-injection site inside the journaled
// write-back. The crash tests arm testKill to abort a flush at each
// point in turn — simulating a crash with the journal, devices and
// buffers frozen mid-protocol — then reopen the volume and assert
// recovery restores parity consistency.
type killPoint string

const (
	killAfterJournalAppend killPoint = "after-journal-append"
	killAfterDataWrite     killPoint = "after-data-write"
	killAfterParityWrite   killPoint = "after-parity-write"
	killAfterMetaWrite     killPoint = "after-meta-write"
	killAfterCommit        killPoint = "after-commit"
)

// kill fires the crash-injection hook, if armed.
func (s *Store) kill(p killPoint) error {
	if s.testKill != nil {
		return s.testKill(p)
	}
	return nil
}

// flushStripeLocked lands one buffered stripe on the devices; the caller
// holds the stripe's shard mutex. A fully dirty stripe is encoded from
// scratch; a partial one goes through read–modify–write with §5.2
// incremental parity updates. On error the buffer is retained so the
// flush can be retried (e.g. after a device replacement and rebuild, or
// with a live context after a cancellation).
func (s *Store) flushStripeLocked(ctx context.Context, sh *lockShard, stripe int) (err error) {
	buf := sh.dirty[stripe]
	if buf == nil {
		return nil
	}
	defer func() {
		if err != nil {
			buf.stuck = true
		}
	}()
	if buf.torn != nil {
		if err := s.completeTornLocked(ctx, stripe, buf); err != nil {
			return err
		}
	}
	if buf.count == s.perStripe {
		return s.flushFullLocked(ctx, sh, stripe, buf)
	}
	return s.flushPartialLocked(ctx, sh, stripe, buf)
}

// flushFullLocked is the full-stripe path: encode every parity cell
// from the buffered data and write the whole stripe back. The buffer's
// rows are its stripe's data cells, so the encode computes parity in
// place and the write-back sends slab sub-slices — no copy between the
// write path's buffer and the devices.
func (s *Store) flushFullLocked(ctx context.Context, sh *lockShard, stripe int, buf *stripeBuf) error {
	st := buf.st
	// Nothing below looks at ctx before the journal append: a caller
	// that has already given up gets neither an encode nor an intent.
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.code.Encode(st); err != nil {
		return err
	}
	if s.journal != nil {
		if err := s.journaledWriteback(ctx, stripe, st, buf, s.allCells, s.allCols); err != nil {
			return err
		}
	} else {
		// One vectored write per device covers the whole chunk. A
		// cancelled context keeps the buffer (the retry re-encodes and
		// rewrites every cell, so a half-landed stripe is made whole);
		// per-device write failures are dropped — the stripe stays
		// degraded there until repair or replacement, which is exactly
		// what the code tolerates.
		if _, _, err := s.writeStripeCells(ctx, stripe, st, s.allCells, nil); err != nil {
			return err
		}
		if err := s.flushStripeMeta(ctx, stripe, s.allCols); err != nil {
			return err
		}
	}
	delete(sh.dirty, stripe)
	sh.buffered.Add(-1)
	s.dirtyCount.Add(-1)
	// A full rewrite resurrects a previously unrecoverable stripe.
	s.clearUnrecoverableLocked(sh, stripe)
	s.c.fullFlushes.Add(1)
	// The write-back completed without cancellation, so no device can
	// still reference the slab: recycle the buffer.
	s.releaseStripeBuf(buf)
	return nil
}

// flushPartialLocked is the §5.2 read–modify–write path. An update of a
// data cell changes that cell and the parity cells that depend on it —
// about ten of the stripe's cells — so that is what the flush wants of
// the stripe (every cell, if it is marked unrecoverable): loadPlanned
// reads and verifies them, one vectored read per touched column from its
// first to its last needed row; a sector between needed rows is a hole
// of that call, never read, verified or written back. Every loss the
// load finds joins want, so the load's final plan decodes it from cells
// the load read, and the flush writes it back, healing it in passing.
// A latent error under a hole is left to the scrub. The incremental parity
// relations, which touch the update set only, are applied in place.
func (s *Store) flushPartialLocked(ctx context.Context, sh *lockShard, stripe int, buf *stripeBuf) error {
	u := &sh.upd
	s.planUpdate(u, buf)
	st := s.acquireStripe()
	ld := s.startLoad(stripe, true)
	ld.heal = true
	if sh.unrecoverable[stripe] {
		ld.want.Union(s.every)
	} else {
		ld.want.Union(u.need)
	}
	err := s.loadPlanned(ctx, ld, st)
	if sh.unrecoverable[stripe] {
		s.c.subFallbacks.Add(1)
	}
	for ord, data := range buf.data {
		if err == nil && data != nil {
			err = s.code.UpdateWith(st, s.dataCells[ord], data, &u.codec)
		}
	}
	if err != nil {
		s.releaseStripeUnlessCancelled(ctx, st)
		return fmt.Errorf("store: flushing stripe %d: %w", stripe, err)
	}
	// Write back the dirty data cells and affected parity, plus any
	// cells just repaired (healing their bad sectors in passing).
	if ld.lost.Count() > 0 {
		u.need.Union(ld.lost)
		s.collectUpdate(u)
	}
	if s.journal != nil {
		err = s.journaledWriteback(ctx, stripe, st, buf, u.cells, u.cols)
	} else {
		_, _, err = s.writeStripeCells(ctx, stripe, st, u.cells, nil)
		if err == nil {
			err = s.flushStripeMeta(ctx, stripe, u.cols)
		}
	}
	if err != nil {
		// Interrupted mid-write-back: an unknown subset of the touched
		// cells landed, so the incremental delta against current device
		// state is no longer applicable — the retry must rewrite the
		// whole stripe, and until it has, nobody may decode through what
		// the devices hold. st, which has the touched cells as they were
		// being written, stays attached to the buffer for both.
		buf.torn = &tornUpdate{st: st, at: core.NewPattern(s.n, s.r)}
		buf.torn.at.Union(u.need)
		return err
	}
	delete(sh.dirty, stripe)
	sh.buffered.Add(-1)
	s.dirtyCount.Add(-1)
	s.c.subFlushes.Add(1)
	s.releaseStripeUnlessCancelled(ctx, st)
	// The buffer's own slab was never handed to a device (the write-back
	// went through st), so it can always be recycled on success.
	s.releaseStripeBuf(buf)
	return nil
}

// planUpdate fills u with the cells a flush of buf's dirty blocks
// touches: the union of updCells over the dirty ordinals.
func (s *Store) planUpdate(u *updateSet, buf *stripeBuf) {
	u.need.Clear()
	for ord, data := range buf.data {
		if data != nil {
			u.need.Union(s.updCells[ord])
		}
	}
	s.collectUpdate(u)
}

// collectUpdate rebuilds u's cell and column lists from need.
func (s *Store) collectUpdate(u *updateSet) {
	u.cells = u.need.AppendCells(u.cells[:0])
	u.cols = appendCols(u.cols[:0], u.cells)
}

// tornUpdate is what an interrupted sub-stripe write-back leaves
// attached to its stripe buffer: the cells it was writing — the pattern
// at — with their updated contents in st (whose other cells
// may be unspecified). On the devices each of those cells now holds its
// old or its new content, so the stripe's parity relations hold for
// neither mix, and a decode through them would solve contradictory
// equations into fabricated content. Until the retry has rewritten the
// stripe, every load therefore takes those cells from here; the cells
// the write-back did not touch are intact on the devices, and together
// they are the stripe exactly as the interrupted flush meant to leave
// it. st may still be referenced by the device operation the
// interruption abandoned: it goes to the GC, never back to the pool.
type tornUpdate struct {
	st *core.Stripe
	at core.Pattern
}

// has reports whether the cell at chunk-major index idx is one a torn
// update holds; a stripe without a torn update holds none.
func (t *tornUpdate) has(idx int) bool { return t != nil && t.at.Has(idx) }

// completeTornLocked prepares the retry of a buffer whose sub-stripe
// write-back was interrupted: it loads the stripe — through the torn
// update, so consistent, and a cell lost in the meantime decodes
// soundly — and promotes the buffer to a full stripe (blocks written
// since the interruption win), whose flush re-encodes every parity cell
// and rewrites every cell. A buffer the writer has filled in the
// meantime is that already.
func (s *Store) completeTornLocked(ctx context.Context, stripe int, buf *stripeBuf) error {
	if buf.count == s.perStripe {
		// Filled since: the full rewrite needs nothing of the old stripe,
		// and must land even where that is beyond coverage.
		buf.torn = nil
		return nil
	}
	st, _, err := s.loadAll(ctx, stripe, true)
	if err != nil {
		s.releaseStripeUnlessCancelled(ctx, st)
		return fmt.Errorf("store: flushing stripe %d: %w", stripe, err)
	}
	defer s.releaseStripe(st)
	s.promoteToFullLocked(buf, st)
	buf.torn = nil
	return nil
}

// journaledWriteback lands a flush under write-ahead protection: intent
// append (fsynced), data sectors, parity sectors, sidecar checksum
// records (when the integrity layer is on), in-memory commit — with
// the crash-injection hooks between the phases. cells is the write-back
// set sorted for contiguous vectored runs, written as two phases — its
// data cells, then its parity cells — and cols its distinct columns. The
// intent's on-disk record
// outlives the commit until the next Checkpoint barrier (see the
// journal package): the device writes made here are not yet durable.
// Each data cell written is digested once, with the salted CRC32C the
// sidecar keeps (epoch 0 with integrity off): the intent carries the
// dirty blocks' digests, and the sidecar stages the same values.
func (s *Store) journaledWriteback(ctx context.Context, stripe int, st *core.Stripe, buf *stripeBuf, cells []core.Cell, cols []int) error {
	u := &s.shard(stripe).upd
	data, parity := u.data[:0], u.parity[:0]
	for _, cell := range cells {
		if s.isData.Has(s.cellIdx(cell)) {
			data = append(data, cell)
		} else {
			parity = append(parity, cell)
		}
	}
	if u.sums == nil {
		u.sums = make([]uint32, s.n*s.r)
	}
	for _, cell := range data {
		u.sums[s.cellIdx(cell)] = s.digest(stripe, cell, st.Sector(cell.Col, cell.Row))
	}
	ords, digests := u.ords[:0], u.digests[:0]
	for ord, block := range buf.data {
		if block != nil {
			ords = append(ords, ord)
			digests = append(digests, u.sums[s.cellIdx(s.dataCells[ord])])
		}
	}
	u.data, u.parity, u.ords, u.digests = data, parity, ords, digests
	seq, err := s.journal.Append(stripe, ords, nil, digests)
	if err != nil {
		return fmt.Errorf("store: journaling intent for stripe %d: %w", stripe, err)
	}
	s.c.journaledFlushes.Add(1)
	if err := s.kill(killAfterJournalAppend); err != nil {
		return err
	}
	if _, _, err := s.writeStripeCells(ctx, stripe, st, data, u.sums); err != nil {
		return err
	}
	if err := s.kill(killAfterDataWrite); err != nil {
		return err
	}
	if _, _, err := s.writeStripeCells(ctx, stripe, st, parity, nil); err != nil {
		return err
	}
	if err := s.kill(killAfterParityWrite); err != nil {
		return err
	}
	if s.integ != nil {
		if err := s.flushStripeMeta(ctx, stripe, cols); err != nil {
			return err
		}
		if err := s.kill(killAfterMetaWrite); err != nil {
			return err
		}
	}
	if err := s.journal.Commit(seq); err != nil {
		return fmt.Errorf("store: committing intent for stripe %d: %w", stripe, err)
	}
	return s.kill(killAfterCommit)
}

// promoteToFullLocked fills a partial stripe buffer with every data
// cell of st — which must hold every cell of the stripe — so its next
// flush takes the full-stripe path. Callers hold the stripe's shard
// mutex.
func (s *Store) promoteToFullLocked(buf *stripeBuf, st *core.Stripe) {
	for ord, cell := range s.dataCells {
		if buf.data[ord] == nil {
			buf.data[ord] = buf.st.Sector(cell.Col, cell.Row)
			copy(buf.data[ord], st.Sector(cell.Col, cell.Row))
			buf.count++
		}
	}
}

// writeStripeCells writes the given cells (sorted by Col, Row) of one
// stripe back, one vectored call per contiguous per-device run, those on
// remote columns one wave (see wave.go). It reports how many sectors
// landed and how many failed; a run whose device answers ErrDeviceFailed
// is neither but skipped, since a wholly failed device has no write to
// retry until it is replaced. Only context cancellation aborts with an error.
// sums, when non-nil, holds the cells' digests by chunk-major index, and
// the sidecar stages those instead of digesting the cells again.
func (s *Store) writeStripeCells(ctx context.Context, stripe int, st *core.Stripe, cells []core.Cell, sums []uint32) (wrote, failed int, err error) {
	sh := s.shard(stripe)
	for i, j := 0, 1; s.anyRemote && i < len(cells); i, j = j, j+1 {
		for j < len(cells) && cells[j].Col == cells[i].Col && cells[j].Row == cells[j-1].Row+1 {
			j++
		}
		if at := s.cellIdx(cells[i]); s.remote[cells[i].Col] {
			bufs := s.vecFor(sh, cells[i].Col, at, at+j-i)
			copy(bufs, st.Cells[at:]) // a run's cells are consecutive there
			s.issue(ctx, sh, callWrite, cells[i].Col, s.devSector(stripe, cells[i].Row), bufs)
		}
	}
	calls := s.finishWave(sh)
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && cells[j].Col == cells[i].Col && cells[j].Row == cells[j-1].Row+1 {
			j++
		}
		run := cells[i:j]
		werr, bufs := error(nil), sh.rowvec(len(run))
		if s.remote[run[0].Col] {
			werr, bufs, calls = calls[0].err, calls[0].bufs, calls[1:]
		} else {
			for k, cell := range run {
				bufs[k] = st.Sector(cell.Col, cell.Row)
			}
			werr = s.devs[run[0].Col].WriteSectors(ctx, s.devSector(stripe, run[0].Row), bufs)
		}
		if cerr := ctx.Err(); cerr != nil {
			sh.dropScratchOnCancel()
			return wrote, failed, cerr
		}
		switch se, ok := AsSectorErrors(werr); {
		case werr == nil:
			wrote += len(run)
			s.stageRecords(stripe, run, bufs, sums)
		case ok:
			failed += len(se)
			wrote += len(run) - len(se)
			// The sectors that failed keep their old records.
			for k, cell := range run {
				if se.has(s.devSector(stripe, cell.Row)) {
					bufs[k] = nil
				}
			}
			s.stageRecords(stripe, run, bufs, sums)
		case !isDown(werr):
			failed += len(run)
		}
		i = j
	}
	return wrote, failed, nil
}

// overDirtyBound reports whether more stripes are buffered than the
// MaxDirtyStripes bound allows. Stuck buffers count, but eviction skips
// them, so a writer over the bound with only stuck buffers besides its
// own evicts nothing.
func (s *Store) overDirtyBound() bool { return s.dirtyCount.Load() > int64(s.maxDirty) }

// Sync is the store's durability barrier: it lands every buffered
// stripe (Flush), syncs every device offering the Syncer
// capability, and then — only then — checkpoints the journal,
// reclaiming the intents whose device writes the barrier provably
// covered (the pre-barrier Mark keeps a flush racing the barrier from
// having its intent reclaimed while its sectors are still volatile).
// When Sync returns nil, every write acknowledged before the call is
// on stable storage — for backends that have any (MemDevice, having
// none, syncs trivially).
func (s *Store) Sync(ctx context.Context) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.Flush(ctx); err != nil {
		return err
	}
	var mark journal.Mark
	if s.journal != nil {
		mark = s.journal.Mark()
	}
	if err := s.syncDevices(ctx); err != nil {
		return err
	}
	if s.journal != nil {
		if err := s.journal.Checkpoint(mark); err != nil {
			return err
		}
	}
	return nil
}

// syncDevices fsyncs every Syncer device. A device whose Sync answers
// ErrDeviceFailed is skipped: it is wholly failed and holds nothing worth
// making durable. The answer is the barrier's own, so a device that fails
// just before its Sync is skipped the same way, not reported.
func (s *Store) syncDevices(ctx context.Context) error {
	for i, d := range s.devs {
		if err := SyncDevice(ctx, d); err != nil && !isDown(err) {
			return fmt.Errorf("store: syncing device %d: %w", i, err)
		}
	}
	return nil
}
