package store

import (
	"context"
	"errors"
	"slices"

	"stair/internal/core"
	"stair/internal/store/integrity"
)

// This file is the store's read seam. Every stripe read but a client's
// read of its own block and the rebuild's first read of its chunk is a
// planned load: loadPlanned reads what core.PlanRead says a want needs —
// one cell, an update set, or every cell — and decodes it, landing only
// the plan's sources: a column's run of them is one vectored call whose
// rows in between are holes (see Device). A load's cell sets are
// core.Patterns (indexed by cellIdx), the form PlanRead takes.

// stripeLoad is a load of cells of one stripe in progress, filled one row
// span of one column at a time by landChunk. It is shard scratch
// (lockShard.load), reset by startLoad, so that a load allocates nothing;
// it stays valid under the shard mutex until the next load.
type stripeLoad struct {
	stripe int
	// need holds the cells read or found lost so far, and so the cells
	// that get a checksum verdict: a row of a span that is not in it is
	// a hole, not read, and lost only when the whole call fails.
	need core.Pattern
	// lost holds the cells found unreadable or checksum-mismatched, and
	// any the caller knew of; mismatches counts the second kind.
	lost       core.Pattern
	mismatches int
	torn       *tornUpdate
	verify     bool
	// verified counts checksum passes, added to the shared counters once
	// per load: an atomic add per sector is a cache line every concurrent
	// sweep worker fights over.
	verified uint64
	// The planned load's state (see loadPlanned). seeded says lost
	// started with cells of known-down columns (see solveLocked).
	want                core.Pattern
	heal, local, seeded bool
	plan                core.ReadPlan
}

// errBeyondRow ends a hedge's planned load whose plan leaves the row.
var errBeyondRow = errors.New("store: plan reads beyond the row")

// errSeeded ends a seeded load whose plan fails: a known-down bit may be
// stale, so the stripe is not marked and the caller reads again unseeded.
var errSeeded = errors.New("store: plan from the known-down columns failed")

// startLoad begins a load of stripe, no cell yet read, and returns the
// shard's load scratch. With verify (and the integrity layer on), a
// sector that reads fine but fails its checksum is lost too, and counted
// in mismatches; recovery loads without, as right after a crash a sidecar
// record can lag its data. The cells an interrupted sub-stripe write-back
// was writing (see tornUpdate) come from memory, never lost or verified:
// the load sees the stripe as that flush meant to leave it, the only view
// whose parity relations hold.
func (s *Store) startLoad(stripe int, verify bool) *stripeLoad {
	sh := s.shard(stripe)
	ld := &sh.load
	*ld = stripeLoad{stripe: stripe, need: ld.need, lost: ld.lost, want: ld.want, plan: ld.plan,
		verify: verify && s.integ != nil}
	ld.need.Clear()
	ld.lost.Clear()
	ld.want.Clear()
	if buf := sh.dirty[stripe]; buf != nil {
		ld.torn = buf.torn
	}
	return ld
}

// landChunk adds to ld what rerr, col's answer to a read of bufs from
// sector start (a nil buffer a hole), found: the lost and checksum-failed
// cells, and the torn update's cells from memory; s.down gets the answer.
// The error is non-nil only for context cancellation, which ends the
// load; the verdicts found so far are counted.
func (s *Store) landChunk(ctx context.Context, ld *stripeLoad, col, start int, bufs [][]byte, rerr error) error {
	lo := start - s.devSector(ld.stripe, 0)
	sh, torn, at := s.shard(ld.stripe), ld.torn, col*s.r+lo
	down := s.noteRead(ctx, col, rerr)
	// A cell the torn update holds is never lost.
	whole := false
	if rerr != nil {
		se, partial := SectorErrors(nil), false
		if !down {
			// A failed device's answer names no sectors, and asking
			// costs an allocation a degraded read would pay per load.
			se, partial = AsSectorErrors(rerr)
		}
		if partial {
			// The vectored read names exactly the lost sectors; the rest
			// of the span is good and stays.
			for _, e := range se {
				if i := at + e.Index - start; !torn.has(i) {
					ld.lost.Set(i)
				}
			}
		} else if cerr := ctx.Err(); cerr != nil {
			sh.dropScratchOnCancel()
			s.c.addVerdicts(ld.verified, uint64(ld.mismatches))
			return cerr
		} else {
			// Whole-call failure (failed device, transport down): every
			// cell of this span is lost, holes too.
			whole = true
			for i := range bufs {
				if !torn.has(at + i) {
					ld.lost.Set(at + i)
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
	// One hold of the column's record lock covers the span's verdicts.
	v := s.integ.VerifySpan(col)
	for i := range bufs {
		// Lost, held by the torn update, or not needed: no verdict.
		if torn.has(at+i) || !ld.need.Has(at+i) || ld.lost.Has(at+i) {
			continue
		}
		// A mismatch read fine and is not what was written: a located
		// erasure. A sector without a record is unverifiable and passes.
		switch v.Verify(start+i, bufs[i]) {
		case integrity.OK:
			ld.verified++
		case integrity.Mismatch:
			ld.lost.Set(at + i)
			ld.mismatches++
		}
	}
	v.Done()
	return nil
}

// noteRead records column col's read answer in s.down (an error after
// ctx ended says nothing) and reports whether it was ErrDeviceFailed.
func (s *Store) noteRead(ctx context.Context, col int, err error) bool {
	down := err != nil && isDown(err)
	if (down || err == nil || ctx.Err() == nil) && s.down[col].Load() != down {
		s.down[col].Store(down)
	}
	return down
}

// loadPlanned loads into st what ld.want needs of ld's stripe, the cells
// in ld.lost being lost, as core.PlanRead says: each source not read yet,
// a column's run of them in one vectored read (rows between two sources
// holes, neither read nor written), then the same again with the losses
// those reads found, until a plan meets none. That plan, ld.plan, then
// decodes want into st from what was read: the store's one decode. With
// ld.heal every loss found joins want. Only sources are read and get
// checksum verdicts.
//
// A plan that cannot reach want ends the load with ErrUnrecoverable and
// marks the stripe — sound, since a peel that stalls on a loss set stalls
// on every larger one. A hedge's load (ld.local) marks and counts
// nothing: it ends with errBeyondRow once a plan leaves its cell's row or
// fails. Nor does a seeded load (ld.seeded), as a stale known-down bit
// may fail its plan: it ends with errSeeded, and the caller reads again
// unseeded. The caller holds the shard mutex.
func (s *Store) loadPlanned(ctx context.Context, ld *stripeLoad, st *core.Stripe) error {
	// A span never reaches a cell read or found lost, and a source joins
	// need as its span is read.
	sh := s.shard(ld.stripe)
	for {
		ld.need.Union(ld.lost)
		err := s.code.PlanRead(&ld.plan, ld.lost, ld.want)
		srcs := ld.plan.Sources
		if ld.local && (err != nil || slices.ContainsFunc(srcs, func(c core.Cell) bool { return c.Row != ld.want.Next(0)%s.r })) {
			return errBeyondRow
		}
		if err != nil {
			if ld.seeded && errors.Is(err, ErrUnrecoverable) {
				return errSeeded
			}
			if errors.Is(err, ErrUnrecoverable) {
				s.markUnrecoverableLocked(sh, ld.stripe)
			}
			s.c.addVerdicts(ld.verified, uint64(ld.mismatches))
			return err
		}
		had := ld.lost.Count()
		for i := 0; i < len(srcs); {
			src := srcs[i]
			lo, j := s.cellIdx(src), i+1
			if ld.need.Has(lo) {
				i++
				continue
			}
			// The span runs down the column to the last source before
			// the next cell read or lost, adding its sources to need.
			ld.need.Set(lo)
			hi := lo + 1
			for ; j < len(srcs) && srcs[j].Col == src.Col; j++ {
				at := s.cellIdx(srcs[j])
				if next := ld.need.Next(hi); next >= 0 && next <= at {
					break
				}
				ld.need.Set(at)
				hi = at + 1
			}
			bufs := s.vecFor(sh, src.Col, lo, hi)
			for i := range bufs {
				if bufs[i] = st.Cells[lo+i]; !ld.need.Has(lo + i) {
					bufs[i] = nil
				}
			}
			if start := s.devSector(ld.stripe, src.Row); s.remote[src.Col] {
				s.issue(ctx, sh, callRead, src.Col, start, bufs)
			} else if err := s.landChunk(ctx, ld, src.Col, start, bufs, s.devs[src.Col].ReadSectors(ctx, start, bufs)); err != nil {
				s.finishWave(sh)
				return err
			}
			i = j
		}
		for _, c := range s.finishWave(sh) {
			if err := s.landChunk(ctx, ld, c.col, c.start, c.bufs, c.err); err != nil {
				return err
			}
		}
		if ld.lost.Count() == had {
			s.c.addVerdicts(ld.verified, uint64(ld.mismatches))
			return s.code.Decode(st, &ld.plan)
		}
		if ld.heal {
			ld.want.Union(ld.lost)
		}
	}
}

// loadAll is the planned load of every cell of stripe into a pooled
// stripe, which the caller releases whatever the error: one call per
// column, then ld.lost holds every loss, decoded in st unless the load
// ends with ErrUnrecoverable. The caller holds the shard mutex.
func (s *Store) loadAll(ctx context.Context, stripe int, verify bool) (*core.Stripe, *stripeLoad, error) {
	st, ld := s.acquireStripe(), s.startLoad(stripe, verify)
	ld.want.Union(s.every)
	return st, ld, s.loadPlanned(ctx, ld, st)
}

// solveLocked serves a lost cell of stripe into dst — the degraded read,
// and with hedge set the hedge's racer: loadPlanned loads what the cell
// needs into a pooled stripe, with dst standing in for the cell, and the
// plan decodes it there. With seed, the load starts with the cell's row
// lost on every known-down column (see Store.down), so that with m
// devices down one plan names the n−m live sources; such a load ends
// with errSeeded rather than marking the stripe. A served cell counts as
// a read; risk is the number of losses the load found when a repair can
// land one of them, else 0. Otherwise the error is ErrUnrecoverable (the
// stripe is now marked), errSeeded, errBeyondRow (a hedge only) or the
// context's. The caller holds the shard mutex.
func (s *Store) solveLocked(ctx context.Context, sh *lockShard, stripe int, cell core.Cell, dst []byte, seed, hedge bool) (risk int, err error) {
	ld, at := s.startLoad(stripe, true), s.cellIdx(cell)
	ld.want.Set(at)
	ld.lost.Set(at)
	ld.local = hedge
	for col := 0; seed && col < s.n; col++ {
		if s.down[col].Load() {
			ld.lost.Set(col*s.r + cell.Row)
			ld.seeded = true
		}
	}
	st := s.acquireStripe()
	own := st.Cells[at]
	st.Cells[at] = dst
	err = s.loadPlanned(ctx, ld, st)
	st.Cells[at] = own
	s.releaseStripeUnlessCancelled(ctx, st)
	if err != nil {
		return 0, err
	}
	s.c.reads.Add(1)
	if len(s.writable(sh, ld.lost)) > 0 {
		risk = ld.lost.Count()
	}
	return risk, nil
}
