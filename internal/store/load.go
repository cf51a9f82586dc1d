package store

import (
	"context"
	"slices"

	"stair/internal/core"
	"stair/internal/store/integrity"
	"stair/internal/store/mem"
)

// This file is the store's read seam: the stripe loads every
// stripe-granular path goes through, and the row-local read of one cell.

// loadStripe reads one stripe off the devices into a pooled stripe — one
// vectored call per device; unreadable cells are listed in lost, and
// their contents are unspecified (the stripe is pooled, not zeroed) until
// the caller's decode reconstructs them. With
// verify set (and the integrity layer on), sectors that read fine but
// fail their checksum are *also* listed in lost — and counted in
// mismatches — turning silent corruption into located erasures the
// caller's decode repairs. Recovery passes verify=false: right after a
// crash, a sidecar record can legitimately lag the data it covers
// (the crash hit between the data write and the sidecar write), and
// replay must resolve that from the journal, not report corruption.
//
// While an interrupted sub-stripe write-back is pending its retry (see
// tornUpdate), the cells it was writing are taken from memory, whatever
// the devices hold or fail to return of them: never lost, never
// verified. Every caller — degraded read, repair, scrub, the retry —
// thus sees the stripe as that flush meant to leave it, the only view of
// it whose parity relations hold and that a decode may go through.
//
// It also records the columns that answered ErrDeviceFailed in sh.down.
//
// The stripe is the caller's to release (releaseStripeUnlessCancelled)
// once no device operation can still reference its cells; on
// cancellation the partly filled stripe is dropped to the GC, since an
// abandoned device-side operation may still be writing into it. lost is
// shard scratch (see stripeLoad). The returned error is non-nil only for
// context cancellation. The caller holds the stripe's shard mutex, so the
// snapshot cannot interleave with a same-stripe writer.
func (s *Store) loadStripe(ctx context.Context, stripe int, verify bool) (st *core.Stripe, lost []core.Cell, mismatches int, err error) {
	st, sh := s.acquireStripe(), s.shard(stripe)
	ld := s.startLoad(stripe, verify)
	for col := 0; col < s.n; col++ {
		if err := s.loadChunk(ctx, ld, col, 0, sh.chunkVec(st, col, 0, s.r)); err != nil {
			return nil, nil, 0, err
		}
	}
	s.c.addVerdicts(ld.verified, uint64(ld.mismatches))
	return st, ld.lost, ld.mismatches, nil
}

// stripeLoad is a load of cells of one stripe in progress, filled one row
// span of one column at a time by loadChunk: the whole stripe (loadStripe;
// RebuildDevice, which reads the replaced chunk first and stops there when
// it reads whole), a sub-stripe flush's update set, or one row for the
// row-local read. It is shard scratch (lockShard.load), reset by
// startLoad, so that a load allocates nothing: it and its lost list stay
// valid only under the shard mutex and until the next load of the shard.
// Every caller — degraded read, flush, repair, rebuild, scrub, replay —
// is done with them before either happens.
type stripeLoad struct {
	stripe int
	// need flags, chunk-major (col·r + row), the cells that get a
	// checksum verdict; nil flags every cell. A row of a span outside it
	// is still read, and lost when its read fails.
	need []bool
	// lost lists the cells found unreadable or checksum-mismatched, in
	// the order found; mismatches counts the latter.
	lost       []core.Cell
	mismatches int
	torn       *tornUpdate
	verify     bool
	// verified counts checksum passes, added to the shared counters once
	// per load: an atomic add per sector is a cache line every concurrent
	// sweep worker fights over.
	verified uint64
}

// startLoad begins a load of stripe, verifying as loadStripe's verify
// says, and returns the shard's load scratch. The caller holds the
// stripe's shard mutex.
func (s *Store) startLoad(stripe int, verify bool) *stripeLoad {
	sh := s.shard(stripe)
	if cap(sh.down) < s.n {
		sh.down = make([]bool, s.n)
	}
	ld := &sh.load
	*ld = stripeLoad{stripe: stripe, lost: ld.lost[:0], verify: verify && s.integ != nil && s.integVerify}
	if buf := sh.dirty[stripe]; buf != nil {
		ld.torn = buf.torn
	}
	return ld
}

// chunkVec points the shard's buffer-vector scratch at rows [lo, hi) of
// column col of st.
func (sh *lockShard) chunkVec(st *core.Stripe, col, lo, hi int) [][]byte {
	bufs := sh.rowvec(hi - lo)
	for i := range bufs {
		bufs[i] = st.Sector(col, lo+i)
	}
	return bufs
}

// loadChunk reads rows lo, lo+1, … of column col of ld's stripe into
// bufs, one sector each, in one vectored call, and adds what it finds to
// ld: the lost and checksum-mismatched cells, the torn update's cells
// taken from memory, and in sh.down whether the device answered
// ErrDeviceFailed. The error is non-nil only for context cancellation,
// which ends the load; the verdicts found so far are counted.
func (s *Store) loadChunk(ctx context.Context, ld *stripeLoad, col, lo int, bufs [][]byte) error {
	sh, torn, at := s.shard(ld.stripe), ld.torn, col*s.r+lo
	start := s.devSector(ld.stripe, lo)
	rerr := s.devs[col].ReadSectors(ctx, start, bufs)
	sh.down[col] = rerr != nil && isDown(rerr)
	// The span's lost cells are ld.lost[had:]. A cell the torn update
	// holds is never lost.
	had, whole := len(ld.lost), false
	if rerr != nil {
		se, partial := SectorErrors(nil), false
		if !sh.down[col] {
			// A failed device's answer names no sectors, and asking
			// costs an allocation a degraded read would pay per load.
			se, partial = AsSectorErrors(rerr)
		}
		if partial {
			// The vectored read names exactly the lost sectors; the rest
			// of the span is good and stays.
			for _, e := range se {
				cell := core.Cell{Col: col, Row: lo + e.Index - start}
				if !torn.has(at+e.Index-start) && !slices.Contains(ld.lost[had:], cell) {
					ld.lost = append(ld.lost, cell)
				}
			}
		} else if cerr := ctx.Err(); cerr != nil {
			sh.dropScratchOnCancel()
			s.c.addVerdicts(ld.verified, uint64(ld.mismatches))
			return cerr
		} else {
			// Whole-call failure (failed device, transport down): every
			// cell of this span is lost.
			whole = true
			for i := range bufs {
				if !torn.has(at + i) {
					ld.lost = append(ld.lost, core.Cell{Col: col, Row: lo + i})
				}
			}
		}
	}
	if torn != nil {
		for i := range bufs {
			if torn.has(at + i) {
				copy(bufs[i], torn.st.Sector(col, lo+i))
			}
		}
	}
	if !ld.verify || whole {
		return nil
	}
	for i := range bufs {
		// Lost, held by the torn update, or not needed: no verdict.
		if torn.has(at+i) || ld.need != nil && !ld.need[at+i] ||
			slices.Contains(ld.lost[had:], core.Cell{Col: col, Row: lo + i}) {
			continue
		}
		// A mismatch read fine and is not what was written: a located
		// erasure. A sector without a record is unverifiable and passes.
		switch s.integ.Verify(col, start+i, bufs[i]) {
		case integrity.OK:
			ld.verified++
		case integrity.Mismatch:
			ld.lost = append(ld.lost, core.Cell{Col: col, Row: lo + i})
			ld.mismatches++
		}
	}
	return nil
}

// readRowLocked solves one cell from its own row, the local step of the
// paper's practical decoding (§4.3) — the degraded read's fast path and
// the hedge's racer: it loads the wanted cell's row off the other
// columns — one sector each, lowest column first, until n−m of them
// have been read and verified — and solves the cell from those with
// core.RepairRow, straight into dst. The load names the row's losses;
// nothing is solved from a cell this call did not read and verify. A
// served cell counts as a read, and its load's checksum verdicts; the
// caller counts what kind of read.
//
// It reports served=false, having touched neither dst nor any counter,
// when the row cannot decide the cell — more than m of its columns are
// lost, or an interrupted sub-stripe write-back is pending on the stripe
// (the devices then hold a mix no decode may go through, see tornUpdate)
// — and the caller takes the whole-stripe path, which alone marks a
// stripe unrecoverable. down says the wanted cell's own device answered
// ErrDeviceFailed; with the siblings' answers it decides risk, the row's
// lost count when a repair could land one of its losses and 0 when none
// could. The error is non-nil only for context cancellation. The caller
// holds the shard mutex.
func (s *Store) readRowLocked(ctx context.Context, sh *lockShard, stripe int, cell core.Cell, dst []byte, down bool) (served bool, risk int, err error) {
	ld := s.startLoad(stripe, true)
	if ld.torn != nil {
		return false, 0, nil
	}
	m, kappa := s.code.M(), s.n-s.code.M()
	if cap(sh.row) < s.n {
		sh.row = make([][]byte, s.n)
	}
	cells, lost := sh.row[:s.n], append(sh.rowLost[:0], cell.Col)
	// One pooled slab holds the n−m sectors the solve reads; a sector that
	// turns out lost leaves its slot to the next column.
	slab := mem.Acquire(kappa * s.sectorSize)
	good := 0
	heal := !down // some loss of the row sits on a device that takes writes
	vec := sh.rowvec(1)
	for col := 0; col < s.n && good < kappa && len(lost) <= m; col++ {
		if col == cell.Col {
			continue
		}
		vec[0] = slab[good*s.sectorSize:][:s.sectorSize]
		had := len(ld.lost)
		if err := s.loadChunk(ctx, ld, col, cell.Row, vec); err != nil {
			// As in loadStripe: the slab is dropped, not recycled.
			clear(cells)
			return false, 0, err
		}
		if len(ld.lost) > had {
			heal = heal || !sh.down[col]
			lost = append(lost, col)
			continue
		}
		cells[col] = vec[0]
		good++
	}
	vec[0] = nil
	sh.rowLost = lost[:0]
	if good == kappa {
		cells[cell.Col] = dst
		served = s.code.RepairRow(cells, lost, cell.Col) == nil
	}
	clear(cells)
	mem.Release(slab)
	if !served {
		return false, 0, nil
	}
	s.c.addVerdicts(ld.verified, uint64(ld.mismatches))
	s.c.reads.Add(1)
	if heal {
		risk = len(lost)
	}
	return true, risk, nil
}
