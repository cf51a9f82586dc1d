package store

import (
	"context"
	"sort"

	"stair/internal/core"
	"stair/internal/store/journal"
)

// RecoveryReport summarises the journal replay Open performs when a
// journal with pending intents is mounted — the crash-recovery half of
// the write-ahead protocol in flush.go.
type RecoveryReport struct {
	// Intents counts the pending (uncommitted) intent records found.
	Intents int
	// Stripes counts the distinct stripes those intents cover — the
	// stripes that were mid-write-back when the previous process died.
	Stripes int
	// Consistent counts replayed stripes whose parity already matched
	// their data: the write-back either completed (just missing its
	// commit record) or never touched the devices.
	Consistent int
	// DataComplete counts replayed stripes where every intended block's
	// digest matched the on-device content — the data phase of the
	// interrupted write-back had fully landed. An intent in the V1
	// layout of earlier versions carries no digests and is never
	// counted; its replay is otherwise the same.
	DataComplete int
	// RolledForward counts stripes whose parity was re-encoded from the
	// on-device data and rewritten (including healing any latent sector
	// losses found in passing). On-device data is authoritative: a
	// write-back that died between its data and parity phases converges
	// on the new content, one that died mid-data on a block-level mix —
	// either way the stripe ends parity-consistent.
	RolledForward int
	// Unrecoverable counts intent-marked stripes whose damage fell
	// outside the code's coverage; they are left marked, and the
	// journal is retained so a later mount (after device replacement)
	// retries the replay.
	Unrecoverable int
}

// Replayed reports whether the replay had anything to do.
func (r RecoveryReport) Replayed() bool { return r.Intents > 0 }

// Recovery returns the report of the journal replay this store's Open
// performed (the zero report when the journal was empty or absent).
func (s *Store) Recovery() RecoveryReport { return s.recovery }

// recoverJournal replays pending intents: for every intent-marked
// stripe, re-verify parity against data and roll forward if they
// disagree. Runs once, from Open, before the store accepts traffic.
// Replay is idempotent — a crash during recovery leaves the intents
// pending and the next open simply re-runs it — so the journal is
// truncated only after the roll-forwards are durably on the devices.
func (s *Store) recoverJournal() error {
	pending := s.journal.Pending()
	if len(pending) == 0 {
		return nil
	}
	rep := RecoveryReport{Intents: len(pending)}
	// The newest intent per stripe wins: its ords/digests describe
	// the last write-back attempt. An intent naming a stripe this
	// volume does not have (a stale or foreign journal mounted by
	// mistake, or a volume re-created smaller) cannot be re-verified;
	// it counts as unrecoverable so the journal is retained rather
	// than silently erased.
	latest := map[int]journal.Record{}
	outOfRange := map[int]bool{}
	for _, rec := range pending {
		if rec.Stripe >= 0 && rec.Stripe < s.stripes {
			latest[rec.Stripe] = rec
		} else {
			outOfRange[rec.Stripe] = true
		}
	}
	stripes := make([]int, 0, len(latest))
	for stripe := range latest {
		stripes = append(stripes, stripe)
	}
	sort.Ints(stripes)
	rep.Stripes = len(stripes) + len(outOfRange)
	rep.Unrecoverable += len(outOfRange)
	ctx := context.Background()
	for _, stripe := range stripes {
		sh := s.shard(stripe)
		sh.mu.Lock()
		s.recoverStripeLocked(ctx, sh, stripe, latest[stripe], &rep)
		sh.mu.Unlock()
	}
	s.recovery = rep
	if rep.Unrecoverable > 0 {
		// Keep the intents: these stripes could not be re-verified, and
		// a mount after the missing devices are replaced should retry.
		return nil
	}
	if err := s.syncDevices(ctx); err != nil {
		return err
	}
	return s.journal.Truncate()
}

// recoverStripeLocked replays one intent; the caller holds the stripe's
// shard mutex.
//
// The soundness rules differ by what was lost. Data cells on disk are
// individually intact (each sector holds its old or new content whole),
// so re-encoding parity *from data* is always sound. Reconstructing a
// lost cell *through the parity relations* is not: the crash may have
// broken exactly those relations, and a decode over a new-data/old-
// parity mix solves contradictory equations into fabricated content.
// A repair is therefore accepted only when the repaired stripe verifies
// in full — Verify passing means the stored stripe was consistent, which
// is the precondition that makes reconstruction sound. Anything else is
// reported unrecoverable (and the journal retained) rather than
// persisted as data.
func (s *Store) recoverStripeLocked(ctx context.Context, sh *lockShard, stripe int, rec journal.Record, rep *RecoveryReport) {
	// The load is deliberately raw (verify=false): right after a crash a
	// sidecar checksum can legitimately lag the data it covers — the
	// kill window between the data/parity writes and the sidecar write.
	// Verifying here would misread that stale record as silent
	// corruption and "repair" good data; instead, every successful
	// replay outcome below re-stages fresh records for the whole stripe,
	// resolving the lag from the journal.
	// A plan that fails (and marks the stripe) has data lost: with every
	// data cell known, the peel is an encode.
	st, ld, err := s.loadAll(ctx, stripe, false)
	// Replay runs before the store accepts traffic, under a background
	// context, but the guard costs nothing and keeps the rule uniform.
	defer func() { s.releaseStripeUnlessCancelled(ctx, st) }()
	if err != nil {
		rep.Unrecoverable++
		return
	}
	lost, lostData := ld.lost.Count(), 0
	for i := ld.lost.Next(0); i >= 0; i = ld.lost.Next(i + 1) {
		if s.isData.Has(i) {
			lostData++
		}
	}
	rollForward := func() {
		// Unlike a foreground flush — where a dropped device write just
		// leaves the stripe degraded for repair to heal — a roll-forward
		// that does not fully land must NOT count as recovered: the
		// journal would be truncated over a stripe still inconsistent on
		// disk. Cells on wholly failed devices are exempt (nothing can
		// land there and the device's state is loudly visible): their
		// runs answer ErrDeviceFailed, which writeStripeCells counts as
		// skipped. Any other write failure keeps the intent pending for
		// the next mount and marks the stripe so degraded reads refuse it.
		_, failed, err := s.writeStripeCells(ctx, stripe, st, s.allCells, nil)
		if err != nil || failed > 0 {
			s.markUnrecoverableLocked(sh, stripe)
			rep.Unrecoverable++
			return
		}
		rep.RolledForward++
		s.c.recoveredStripes.Add(1)
		s.clearUnrecoverableLocked(sh, stripe)
		s.restageStripeMeta(ctx, stripe, st)
	}
	if lostData > 0 {
		// Lost data can only come back through the (possibly broken)
		// parity relations: the load decoded it, and only a fully
		// verified result is accepted.
		if ok, err := s.code.Verify(st); err != nil || !ok {
			s.markUnrecoverableLocked(sh, stripe)
			rep.Unrecoverable++
			return
		}
		if s.intentDataLanded(st, rec) {
			rep.DataComplete++
		}
		rollForward() // heals the lost sectors in passing
		return
	}
	if s.intentDataLanded(st, rec) {
		rep.DataComplete++
	}
	if lost == 0 {
		ok, err := s.code.Verify(st)
		if err != nil {
			rep.Unrecoverable++
			return
		}
		if ok {
			rep.Consistent++
			// The stripe's content is proven good; its sidecar records
			// may still predate the final (landed) writes — e.g. a crash
			// right after the parity phase. Refresh them so the first
			// verified read after reopen sees no false mismatch.
			s.restageStripeMeta(ctx, stripe, st)
			return
		}
	}
	// Parity sectors lost, or parity disagreeing with data: on-device
	// data is authoritative, so re-encode every parity cell from it and
	// rewrite the stripe.
	if err := s.code.Encode(st); err != nil {
		rep.Unrecoverable++
		return
	}
	rollForward()
}

// restageStripeMeta re-stages fresh sidecar records for every cell of
// a stripe that replay just proved (or made) consistent, computed from
// the stripe's (now authoritative) content — for a block whose write
// landed, the digest its intent carried — and persists them. Cells on
// the devices the stripe's load found wholly failed (Store.down) are
// skipped — their records refresh on rebuild, like their data. The
// caller holds the stripe's shard mutex.
func (s *Store) restageStripeMeta(ctx context.Context, stripe int, st *core.Stripe) {
	if s.integ == nil {
		return
	}
	for col := 0; col < s.n; col++ {
		if s.down[col].Load() {
			continue
		}
		for row := 0; row < s.r; row++ {
			s.integ.Update(col, s.devSector(stripe, row), st.Sector(col, row))
		}
	}
	_ = s.flushStripeMeta(ctx, stripe, s.allCols)
}

// intentDataLanded reports whether every block the intent meant to
// write matches the stripe's current content — i.e. the interrupted
// write-back's data phase had fully completed. An intent without
// digests (V1) proves nothing.
func (s *Store) intentDataLanded(st *core.Stripe, rec journal.Record) bool {
	if len(rec.Ords) == 0 || len(rec.Digests) != len(rec.Ords) {
		return false
	}
	for i, ord := range rec.Ords {
		if ord < 0 || ord >= s.perStripe {
			return false
		}
		cell := s.dataCells[ord]
		if s.digest(rec.Stripe, cell, st.Sector(cell.Col, cell.Row)) != rec.Digests[i] {
			return false
		}
	}
	return true
}
