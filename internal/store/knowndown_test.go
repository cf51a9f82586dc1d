package store

import (
	"bytes"
	"testing"
)

// Tests of the store's record of known-down columns (Store.down): a
// client read skips a column whose last read answered ErrDeviceFailed
// and starts its plan from every such column, and the record refreshes
// from answers, ReplaceDevice and maintenance reads.

// readCalls counts the reads logged since the last take, in all and on
// the given columns.
func readCalls(v *deltaVolume, cols ...int) (all, on int) {
	for col, reads := range v.takeReads() {
		all += len(reads)
		for _, c := range cols {
			if c == col {
				on += len(reads)
			}
		}
	}
	return all, on
}

// readBlockOK reads block b of v and requires its bytes.
func readBlockOK(t *testing.T, v *deltaVolume, b int) {
	t.Helper()
	dst := make([]byte, v.s.BlockSize())
	if err := v.s.ReadBlockInto(bg, b, dst); err != nil {
		t.Fatalf("block %d: %v", b, err)
	}
	if !bytes.Equal(dst, v.want[b]) {
		t.Fatalf("block %d: wrong bytes", b)
	}
}

// With m devices down, the first degraded read learns both from their
// answers; every later row-local read makes exactly n−m device calls,
// none of them to a failed device, and plans once.
func TestDegradedReadKnownDownReadsNMinusM(t *testing.T) {
	v := newDeltaVolume(t, benchGeometry, 2, 64, deltaOpts{integrity: true})
	s := v.s
	n, m := s.n, s.code.M()
	for _, dev := range []int{1, 2} {
		if err := s.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	first := firstOrdOn(t, s, 1)
	readBlockOK(t, v, first)
	if all, on := readCalls(v, 1, 2); all != n || on != 2 {
		t.Fatalf("first degraded read: %d calls, %d to failed devices; want n = %d and 2 (the primary, n−m row sources one of which is down, one more)", all, on, n)
	}
	reads := 1
	for b := 0; b < s.Blocks(); b++ {
		if col := s.dataCells[b%s.perStripe].Col; col != 1 && col != 2 {
			continue
		}
		readBlockOK(t, v, b)
		reads++
		if all, on := readCalls(v, 1, 2); all != n-m || on != 0 {
			t.Fatalf("block %d: %d calls, %d to failed devices; want n−m = %d and 0", b, all, on, n-m)
		}
	}
	st := s.Stats()
	if st.DegradedReads != uint64(reads) || st.DegradedReadFallbacks != 0 || len(s.UnrecoverableStripes()) != 0 {
		t.Fatalf("%d reads: %d degraded, %d fallbacks, unrecoverable %v", reads, st.DegradedReads, st.DegradedReadFallbacks, s.UnrecoverableStripes())
	}
}

// ReplaceDevice clears the column's bit, so the next client read asks
// the new device. A device replaced outside the store keeps its bit
// until a maintenance read answers: a scrub reads every column, finds
// the new device's lost sectors and heals them.
func TestDegradedReadAfterReplaceDevice(t *testing.T) {
	v := newDeltaVolume(t, benchGeometry, 2, 64, deltaOpts{integrity: true})
	s := v.s
	b := firstOrdOn(t, s, 1)
	if err := s.FailDevice(1); err != nil {
		t.Fatal(err)
	}
	readBlockOK(t, v, b)
	readCalls(v)
	readBlockOK(t, v, b)
	if _, on := readCalls(v, 1); on != 0 {
		t.Fatalf("%d reads of a known-down device", on)
	}
	if err := s.ReplaceDevice(1); err != nil {
		t.Fatal(err)
	}
	readBlockOK(t, v, b)
	if _, on := readCalls(v, 1); on != 1 {
		t.Fatalf("%d reads of the replaced device, want the primary", on)
	}
	if err := s.RebuildDevice(bg, 1); err != nil {
		t.Fatal(err)
	}
	// The read of the replaced device queued a repair, whose load reads
	// every column: let it finish before counting reads again.
	s.Quiesce()

	// Fail and replace device 2 behind the store's back.
	b = firstOrdOn(t, s, 2)
	if err := v.devs[2].Fail(); err != nil {
		t.Fatal(err)
	}
	readBlockOK(t, v, b)
	if err := v.devs[2].Replace(); err != nil {
		t.Fatal(err)
	}
	readCalls(v)
	readBlockOK(t, v, b)
	if _, on := readCalls(v, 2); on != 0 {
		t.Fatalf("%d client reads of a device whose last answer was ErrDeviceFailed", on)
	}
	if _, err := s.Scrub(bg); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	if s.down[2].Load() {
		t.Fatal("a scrub that read the replaced device left its bit set")
	}
	if bad := s.TotalBadSectors(); bad != 0 {
		t.Fatalf("%d bad sectors left after the scrub's repairs", bad)
	}
	readCalls(v)
	readBlockOK(t, v, b)
	if all, on := readCalls(v, 2); all != 1 || on != 1 {
		t.Fatalf("healed device: %d calls, %d to it; want one read of it", all, on)
	}
}

// The record holds answers, not polls: an answerDevice whose Failed()
// says healthy is skipped once its read has answered ErrDeviceFailed,
// and not before.
func TestDeviceStateKnownDownFromAnswer(t *testing.T) {
	s, ad := openAnswerStore(t)
	if err := ad.Fail(); err != nil {
		t.Fatal(err)
	}
	b := firstOrdOn(t, s, 2)
	if s.down[2].Load() {
		t.Fatal("device known down before any read answered")
	}
	for i, want := range []int64{1, 0, 0} {
		reads := ad.reads.Load()
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blockData(b, s.BlockSize())) {
			t.Fatalf("read %d: wrong bytes", i)
		}
		if d := ad.reads.Load() - reads; d != want {
			t.Fatalf("read %d: %d calls to the failed device, want %d", i, d, want)
		}
	}
	if st := s.Stats(); st.DegradedReads != 3 {
		t.Fatalf("DegradedReads=%d, want 3", st.DegradedReads)
	}
}

// A stale bit — a column that answered ErrDeviceFailed and has since
// come back — can make a seeded plan fail where the real losses are
// covered. The seeded solve then ends with errSeeded and marks nothing,
// and the read falls back unseeded: it serves the block, marks no stripe
// and counts no fallback, as the read that knew nothing would.
func TestDegradedReadSeededFallback(t *testing.T) {
	v := newDeltaVolume(t, smallGeometry, 4, 64, deltaOpts{})
	s := v.s
	const stripe = 1
	ord := firstOrdOn(t, s, 0)
	cell := s.dataCells[ord]
	b := stripe*s.perStripe + ord
	for _, dev := range []int{0, 1} {
		if err := s.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	// Learn devices 0 and 1 from a read of another stripe.
	readBlockOK(t, v, 3*s.perStripe+ord)
	if !s.down[0].Load() || !s.down[1].Load() {
		t.Fatal("the learning read left devices 0 and 1 unknown")
	}
	// Two whole columns plus sector losses on two more, 2 and 1: the
	// code's coverage (m = 2, e = 1,2) exactly. A third partial column,
	// (2, cell.Row), puts it beyond.
	for _, at := range []struct{ col, row int }{{3, cell.Row}, {3, (cell.Row + 1) % s.r}, {4, (cell.Row + 2) % s.r}} {
		if err := s.InjectSectorError(at.col, s.devSector(stripe, at.row)); err != nil {
			t.Fatal(err)
		}
	}
	s.down[2].Store(true)

	sh := s.shard(stripe)
	dst := make([]byte, s.BlockSize())
	sh.mu.Lock()
	_, err := s.solveLocked(bg, sh, stripe, cell, dst, true, false)
	sh.mu.Unlock()
	if err != errSeeded {
		t.Fatalf("seeded solve with a stale bit: %v, want errSeeded", err)
	}
	if got := s.UnrecoverableStripes(); len(got) != 0 {
		t.Fatalf("a failed seeded plan marked stripes %v", got)
	}

	s.down[2].Store(true)
	readBlockOK(t, v, b)
	if got := s.UnrecoverableStripes(); len(got) != 0 {
		t.Fatalf("unrecoverable stripes %v after the fallback", got)
	}
	if st := s.Stats(); st.DegradedReadFallbacks != 0 {
		t.Fatalf("DegradedReadFallbacks=%d, want 0", st.DegradedReadFallbacks)
	}
	if s.down[2].Load() {
		t.Fatal("the unseeded read left the stale bit set")
	}
}
