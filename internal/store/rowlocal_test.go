package store

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"stair/internal/core"
)

// White-box tests of the degraded read (solveLocked): what it reads, and
// that every pattern the wanted block's row cannot decide is re-planned
// over the stripe, with the right bytes.

// siblingReads sums, over every device but the wanted cell's, the reads
// logged since the last take, requiring each to be the one sector of the
// wanted cell's row.
func siblingReads(t *testing.T, v *deltaVolume, stripe int, cell core.Cell) (calls int) {
	t.Helper()
	for col, reads := range v.takeReads() {
		if col == cell.Col {
			continue
		}
		for _, e := range reads {
			if e.n != 1 || e.start != v.s.devSector(stripe, cell.Row) {
				t.Fatalf("device %d read sectors [%d,+%d), want only sector %d (row %d of stripe %d)",
					col, e.start, e.n, v.s.devSector(stripe, cell.Row), cell.Row, stripe)
			}
			calls++
		}
	}
	return calls
}

// TestRowLocalReadTouchesOneRow: on the benchmark geometry, a degraded
// read reads single sectors of the wanted block's row and nothing else —
// n−m of them when only the block's own device is down, at most n−1 with
// a second device down — and never falls back; every block of the dead
// devices reads back right.
func TestRowLocalReadTouchesOneRow(t *testing.T) {
	for _, o := range []deltaOpts{{}, {integrity: true}} {
		t.Run(o.String(), func(t *testing.T) {
			v := newDeltaVolume(t, benchGeometry, 2, 64, o)
			s := v.s
			n, m := s.n, s.code.M()
			if err := s.FailDevice(1); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, s.BlockSize())
			read := func(b int) (calls int) {
				t.Helper()
				v.takeReads()
				verified := s.Stats().VerifiedSectors
				if err := s.ReadBlockInto(bg, b, dst); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst, v.want[b]) {
					t.Fatalf("block %d: wrong bytes off the row-local path", b)
				}
				// The solve verifies the n−m sectors it reads whole, and
				// nothing else.
				if got := s.Stats().VerifiedSectors - verified; o.integrity && got != uint64(n-m) {
					t.Fatalf("block %d: %d sectors verified, want n−m = %d", b, got, n-m)
				}
				return siblingReads(t, v, b/s.perStripe, s.dataCells[b%s.perStripe])
			}
			b := s.perStripe + firstOrdOn(t, s, 1)
			if calls := read(b); calls != n-m {
				t.Errorf("one dead device: %d sibling sectors read, want n−m = %d", calls, n-m)
			}
			if err := s.FailDevice(2); err != nil {
				t.Fatal(err)
			}
			if calls := read(b); calls > n-1 {
				t.Errorf("two dead devices: %d sibling calls, want ≤ n−1 = %d", calls, n-1)
			}
			reads := 2
			for b := 0; b < s.Blocks(); b++ {
				if col := s.dataCells[b%s.perStripe].Col; col == 1 || col == 2 {
					read(b)
					reads++
				}
			}
			st := s.Stats()
			if st.DegradedReads != uint64(reads) || st.DegradedReadFallbacks != 0 {
				t.Errorf("%d degraded reads: stats %d degraded, %d fallbacks; want all row-local",
					reads, st.DegradedReads, st.DegradedReadFallbacks)
			}
			if o.integrity && st.ChecksumMismatches != 0 {
				t.Errorf("ChecksumMismatches=%d on clean survivors", st.ChecksumMismatches)
			}
			if got := s.UnrecoverableStripes(); len(got) != 0 {
				t.Errorf("unrecoverable stripes %v", got)
			}
		})
	}
}

// parkRepairs queues a repair of the healthy stripe and returns once the
// store's only repair worker has finished it and is parked, so that a
// repair queued later cannot run (or read a device) before unpark is
// called. Cleanup unparks it too.
func parkRepairs(t *testing.T, s *Store, stripe int) (unpark func()) {
	t.Helper()
	parked, release := make(chan struct{}), make(chan struct{})
	var parkOnce, unparkOnce sync.Once
	s.testRepairObserve = func(int) {
		parkOnce.Do(func() { close(parked) })
		<-release
	}
	unpark = func() { unparkOnce.Do(func() { close(release) }) }
	t.Cleanup(unpark)
	sh := s.shard(stripe)
	sh.mu.Lock()
	s.enqueueRepairLocked(sh, stripe, 1)
	sh.mu.Unlock()
	<-parked
	return unpark
}

// TestRowLocalReadFallbacks: each thing that takes a degraded read off
// its row — the row holding m+1 losses by a sector error or by a
// sibling's checksum mismatch — makes it re-plan over the stripe and read
// only what it has not read yet, with the right bytes and no fallback; a
// stripe already marked unrecoverable is refused before any sibling is
// read.
func TestRowLocalReadFallbacks(t *testing.T) {
	const stripe = 1
	for _, tc := range []struct {
		name string
		// fault damages the stripe beyond the two dead devices, given
		// the wanted cell and a live column.
		fault      func(t *testing.T, s *Store, cell core.Cell, live int)
		mismatches uint64 // after the queued repair has run
		wantErr    error
	}{
		{name: "sector-error-in-row",
			fault: func(t *testing.T, s *Store, cell core.Cell, live int) {
				if err := s.InjectSectorError(live, s.devSector(stripe, cell.Row)); err != nil {
					t.Fatal(err)
				}
			}},
		// The read's load counts the mismatch once, and the repair it
		// queues meets it once more.
		{name: "sibling-checksum-mismatch", mismatches: 2,
			fault: func(t *testing.T, s *Store, cell core.Cell, live int) {
				if err := s.CorruptSectorSilently(live, s.devSector(stripe, cell.Row)); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "marked-unrecoverable", wantErr: ErrUnrecoverable,
			fault: func(_ *testing.T, s *Store, _ core.Cell, _ int) { forceWholeStripe(s, stripe) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := newDeltaVolume(t, benchGeometry, 2, 64, deltaOpts{integrity: true})
			s := v.s
			// The repair the read queues must not load the stripe before
			// the read's own device reads are taken below.
			unpark := parkRepairs(t, s, 0)
			dead := []int{1, 2}
			for _, dev := range dead {
				if err := s.FailDevice(dev); err != nil {
					t.Fatal(err)
				}
			}
			b := stripe*s.perStripe + firstOrdOn(t, s, 1)
			cell := s.dataCells[b%s.perStripe]
			tc.fault(t, s, cell, 5)
			v.takeReads()
			verified := s.Stats().VerifiedSectors
			got, err := s.ReadBlock(bg, b)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("ReadBlock: err=%v, want %v", err, tc.wantErr)
			}
			if err == nil && !bytes.Equal(got, v.want[b]) {
				t.Fatal("wrong bytes off the re-planned read")
			}
			// Past the block's own read (one sector of the wanted column):
			// the row's siblings, one sector each, then, re-planned with
			// the row's m+1 losses, every sector of the stripe the row read
			// did not, on every live column, a column's rows in at most
			// two calls. The dead column the row read met answers one
			// refused call. A marked stripe reads no sibling.
			for col, reads := range v.takeReads() {
				sectors := 0
				for _, e := range reads {
					sectors += e.n
				}
				want, calls := s.r, 2
				switch {
				case col == cell.Col:
					want, calls = 1, 1
				case tc.wantErr != nil:
					want, calls = 0, 0
				case slices.Contains(dead, col):
					want, calls = 1, 1
				}
				if sectors != want || len(reads) > calls {
					t.Errorf("device %d read %v: %d sectors, want %d in at most %d calls", col, reads, sectors, want, calls)
				}
			}
			unpark()
			s.Quiesce()
			st := s.Stats()
			if st.DegradedReadFallbacks != 0 {
				t.Errorf("DegradedReadFallbacks=%d, want 0", st.DegradedReadFallbacks)
			}
			if st.ChecksumMismatches != tc.mismatches {
				t.Errorf("ChecksumMismatches=%d, want %d", st.ChecksumMismatches, tc.mismatches)
			}
			// The read's load verifies every sector it reads whole, as does
			// the queued repair's: every sector but the two dead chunks and
			// the faulted one.
			wantVerified := 2 * uint64((s.n-2)*s.r-1)
			if tc.wantErr != nil {
				wantVerified = 0
			}
			if got := st.VerifiedSectors - verified; got != wantVerified {
				t.Errorf("%d sectors verified, want %d", got, wantVerified)
			}
			if tc.wantErr == nil {
				// The live sector the read found lost was repaired.
				if bad := s.TotalBadSectors(); bad != 0 {
					t.Errorf("%d bad sectors left on live devices", bad)
				}
				if got := s.UnrecoverableStripes(); len(got) != 0 {
					t.Errorf("unrecoverable stripes %v", got)
				}
			}
		})
	}
}

// TestRowLocalAfterFallbackRepair: the repair a re-planned degraded read
// queues is what makes the stripe's next degraded read cheap. With m
// devices dead and a sector error in a row, the first read of a lost
// block there re-plans over the stripe; once the queued repair has
// healed the sector error, the row's other dead-column block is a row
// solve again — n−m live sibling sectors, nothing else of the stripe —
// with the right bytes. Neither read falls back.
func TestRowLocalAfterFallbackRepair(t *testing.T) {
	const stripe = 1
	v := newDeltaVolume(t, benchGeometry, 2, 64, deltaOpts{integrity: true})
	s := v.s
	n, m := s.n, s.code.M()
	dead := []int{1, 2}
	for _, dev := range dead {
		if err := s.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	first := firstOrdOn(t, s, dead[0])
	row := s.dataCells[first].Row
	second := -1
	for ord, c := range s.dataCells {
		if c == (core.Cell{Col: dead[1], Row: row}) {
			second = ord
		}
	}
	if second < 0 {
		t.Fatalf("row %d holds no data cell on device %d", row, dead[1])
	}
	if err := s.InjectSectorError(5, s.devSector(stripe, row)); err != nil {
		t.Fatal(err)
	}
	b := stripe*s.perStripe + first
	if got, err := s.ReadBlock(bg, b); err != nil || !bytes.Equal(got, v.want[b]) {
		t.Fatalf("first read (re-planned): err=%v or wrong bytes", err)
	}
	if got := s.Stats().DegradedReadFallbacks; got != 0 {
		t.Fatalf("DegradedReadFallbacks=%d after the first read, want 0", got)
	}
	s.Quiesce()
	if bad := s.TotalBadSectors(); bad != 0 {
		t.Fatalf("%d bad sectors on live devices after the queued repair", bad)
	}

	b = stripe*s.perStripe + second
	cell := s.dataCells[second]
	v.takeReads()
	got, err := s.ReadBlock(bg, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v.want[b]) {
		t.Fatal("wrong bytes off the row-local read after the repair")
	}
	if got := s.Stats().DegradedReadFallbacks; got != 0 {
		t.Errorf("DegradedReadFallbacks=%d, want 0", got)
	}
	// The log also holds the one refused call to the other dead device,
	// which the row read meets on its way through the columns.
	live, refused := 0, 0
	for col, reads := range v.takeReads() {
		if col == cell.Col {
			continue
		}
		for _, e := range reads {
			if e.n != 1 || e.start != s.devSector(stripe, row) {
				t.Fatalf("device %d read sectors [%d,+%d), want only sector %d", col, e.start, e.n, s.devSector(stripe, row))
			}
			if slices.Contains(dead, col) {
				refused++
			} else {
				live++
			}
		}
	}
	if live != n-m || refused > 1 {
		t.Errorf("%d live sibling sectors read (+%d refused), want exactly n−m = %d (+ at most 1)", live, refused, n-m)
	}
}

// TestRowLocalReadCountsMismatchOnce: a silently corrupted block within
// m row losses is served row-locally, and its checksum mismatch is
// counted by that read exactly once — the repair it queues then meets
// the sector once more on its own load, and heals it.
func TestRowLocalReadCountsMismatchOnce(t *testing.T) {
	v := newDeltaVolume(t, benchGeometry, 2, 64, deltaOpts{integrity: true})
	s := v.s
	if err := s.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	b := firstOrdOn(t, s, 1)
	corruptBlockSilently(t, s, b)
	got, err := s.ReadBlock(bg, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v.want[b]) {
		t.Fatal("read returned the rotten bytes")
	}
	s.Quiesce()
	st := s.Stats()
	if st.DegradedReads != 1 || st.DegradedReadFallbacks != 0 {
		t.Errorf("%d degraded reads, %d fallbacks; want one row-local read", st.DegradedReads, st.DegradedReadFallbacks)
	}
	if st.ChecksumMismatches != 2 {
		t.Errorf("ChecksumMismatches=%d, want 2 (the read, then the repair's load)", st.ChecksumMismatches)
	}
	if st.RepairedSectors != 1 {
		t.Errorf("RepairedSectors=%d, want the one corrupted sector written back", st.RepairedSectors)
	}
	degraded := st.DegradedReads
	if got, err := s.ReadBlock(bg, b); err != nil || !bytes.Equal(got, v.want[b]) {
		t.Fatalf("read after the repair: %v", err)
	}
	if s.Stats().DegradedReads != degraded {
		t.Error("the block still reads degraded after its repair")
	}
}
