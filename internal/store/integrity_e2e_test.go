package store

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"stair/internal/core"
	"stair/internal/store/integrity"
)

// openIntegrityStore opens a MemDevice-backed store with the end-to-end
// checksum layer on (devices auto-sized to include the sidecar region).
func openIntegrityStore(t *testing.T, code *core.Code, stripes, sectorSize int, opts IntegrityOptions) *Store {
	t.Helper()
	s, err := Open(Config{
		Code: code, SectorSize: sectorSize, Stripes: stripes,
		Integrity: &opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corruptBlockSilently flips one payload bit of block b's on-device
// sector without registering any fault — silent corruption.
func corruptBlockSilently(t *testing.T, s *Store, b int) {
	t.Helper()
	stripe, ord := b/s.perStripe, b%s.perStripe
	cell := s.dataCells[ord]
	if err := s.CorruptSectorSilently(cell.Col, s.devSector(stripe, cell.Row)); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrityDetectsSilentCorruptionOnRead is the tentpole's e2e
// property: a silently flipped bit is caught by the checksum on the next
// read, converted into a located erasure, repaired on the fly (the read
// returns the ORIGINAL bytes), written back, and a subsequent scrub
// finds nothing wrong.
func TestIntegrityDetectsSilentCorruptionOnRead(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s := openIntegrityStore(t, code, 3, 128, IntegrityOptions{Epoch: 7})
	defer s.Close()
	fillStore(t, s)

	const victim = 5
	corruptBlockSilently(t, s, victim)

	got, err := s.ReadBlock(bg, victim)
	if err != nil {
		t.Fatalf("read of a silently corrupted block: %v", err)
	}
	if !bytes.Equal(got, blockData(victim, s.BlockSize())) {
		t.Fatal("read returned the rotten bytes — the checksum layer is not load-bearing")
	}
	st := s.Stats()
	if st.ChecksumMismatches == 0 {
		t.Error("ChecksumMismatches=0 after detecting silent corruption")
	}
	if st.DegradedReads == 0 {
		t.Error("DegradedReads=0 — the mismatch did not route through reconstruction")
	}
	if st.VerifiedSectors == 0 {
		t.Error("VerifiedSectors=0 — nothing was verified")
	}

	// The degraded read queued a repair; once it lands, the sector holds
	// fresh content under a fresh record and the volume scrubs clean.
	s.Quiesce()
	rep, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StripesDamaged != 0 || rep.ChecksumMismatches != 0 || rep.StripesInconsistent != 0 {
		t.Fatalf("scrub after repair %+v, want clean", rep)
	}
	if s.Stats().RepairedStripes == 0 {
		t.Error("RepairedStripes=0 — the located erasure was never written back")
	}
	checkAllBlocks(t, s)
}

// TestIntegrityDetectsSilentCorruptionOnScrub: a scrub pass must
// identify the lying sector — here a PARITY sector, which no foreground
// read would ever touch — count it as a checksum mismatch (not a
// fail-stop loss), queue the repair, and come back clean on the next
// pass.
func TestIntegrityDetectsSilentCorruptionOnScrub(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s := openIntegrityStore(t, code, 3, 128, IntegrityOptions{Epoch: 7})
	defer s.Close()
	fillStore(t, s)

	parity := code.ParityCells()[0]
	if err := s.CorruptSectorSilently(parity.Col, s.devSector(1, parity.Row)); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChecksumMismatches != 1 || rep.StripesDamaged != 1 || rep.StripesQueued != 1 {
		t.Fatalf("scrub %+v, want exactly one checksum-located mismatch queued", rep)
	}
	if rep.SectorsLost != 0 {
		t.Errorf("SectorsLost=%d — a checksum-located liar was miscounted as a fail-stop loss", rep.SectorsLost)
	}
	if rep.StripesInconsistent != 0 || rep.StripesUnrecoverable != 0 {
		t.Errorf("scrub %+v marked a repairable stripe beyond coverage", rep)
	}

	s.Quiesce()
	rep2, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.StripesDamaged != 0 || rep2.ChecksumMismatches != 0 || rep2.StripesInconsistent != 0 {
		t.Fatalf("second scrub %+v, want clean after the repair landed", rep2)
	}
	checkStripesConsistent(t, s)
}

// TestIntegrityOffServesRottenBytes is the negative control proving the
// layer is load-bearing: without it the same silent flip sails through
// reads undetected.
func TestIntegrityOffServesRottenBytes(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	t.Run("NoIntegrity", func(t *testing.T) {
		s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 3, Integrity: nil})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fillStore(t, s)
		const victim = 5
		corruptBlockSilently(t, s, victim)
		got, err := s.ReadBlock(bg, victim)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, blockData(victim, s.BlockSize())) {
			t.Fatal("read returned correct data without the integrity layer — the corruption did not land")
		}
		if st := s.Stats(); st.ChecksumMismatches != 0 || st.DegradedReads != 0 {
			t.Fatalf("stats %+v: a store without the integrity layer verified the read", st)
		}
	})
}

// TestIntegrityLocatedVsUnlocatable is the coverage regression the
// scrubber's accounting must keep straight. Under an M=0, E=[1] code
// (coverage: one sector erasure), ONE silent flip is checksum-located
// and repaired; TWO flips in the same stripe are located but beyond
// coverage, so the stripe is marked unrecoverable — never decoded into
// fabricated content — and reads of it refuse.
func TestIntegrityLocatedVsUnlocatable(t *testing.T) {
	code := testCode(t, core.Config{N: 4, R: 2, M: 0, E: []int{1}})

	t.Run("OneFlipRepairs", func(t *testing.T) {
		s := openIntegrityStore(t, code, 2, 128, IntegrityOptions{Epoch: 1})
		defer s.Close()
		fillStore(t, s)
		corruptBlockSilently(t, s, 0)
		rep, err := s.Scrub(bg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ChecksumMismatches != 1 || rep.StripesQueued != 1 || rep.StripesUnrecoverable != 0 {
			t.Fatalf("scrub %+v, want one located mismatch queued for repair", rep)
		}
		s.Quiesce()
		rep2, err := s.Scrub(bg)
		if err != nil {
			t.Fatal(err)
		}
		if rep2.StripesDamaged != 0 || rep2.ChecksumMismatches != 0 {
			t.Fatalf("second scrub %+v, want clean", rep2)
		}
		if got := s.Stats().UnrecoverableStripes; got != 0 {
			t.Fatalf("UnrecoverableStripes=%d after a repairable flip", got)
		}
		checkAllBlocks(t, s)
	})

	t.Run("TwoFlipsSameStripeRefuse", func(t *testing.T) {
		s := openIntegrityStore(t, code, 2, 128, IntegrityOptions{Epoch: 1})
		defer s.Close()
		fillStore(t, s)
		// Two liars in stripe 0, different columns: both located, jointly
		// beyond E=[1] coverage.
		corruptBlockSilently(t, s, 0)
		corruptBlockSilently(t, s, 1)
		rep, err := s.Scrub(bg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ChecksumMismatches != 2 {
			t.Fatalf("scrub located %d mismatches, want 2", rep.ChecksumMismatches)
		}
		if rep.StripesUnrecoverable != 1 || rep.StripesQueued != 0 {
			t.Fatalf("scrub %+v, want the stripe marked unrecoverable, not queued", rep)
		}
		if got := s.Stats().UnrecoverableStripes; got != 1 {
			t.Fatalf("UnrecoverableStripes=%d, want 1", got)
		}
		// A read of a lying block must refuse rather than fabricate.
		if _, err := s.ReadBlock(bg, 0); !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("read of an unrecoverable stripe returned %v, want ErrUnrecoverable", err)
		}
		// The untouched stripe still reads fine.
		for b := s.perStripe; b < 2*s.perStripe; b++ {
			got, err := s.ReadBlock(bg, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, blockData(b, s.BlockSize())) {
				t.Fatalf("block %d in the healthy stripe corrupt", b)
			}
		}
	})
}

// TestIntegrityFailStopAndChecksumMix: a fail-stop sector loss and a
// checksum-located liar in the same stripe are both located erasures —
// the decoder repairs the pair in one pass and the accounting keeps the
// two kinds separate.
func TestIntegrityFailStopAndChecksumMix(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s := openIntegrityStore(t, code, 3, 128, IntegrityOptions{Epoch: 7})
	defer s.Close()
	fillStore(t, s)

	corruptBlockSilently(t, s, 0)
	lost := s.dataCells[1]
	if err := s.InjectSectorError(lost.Col, s.devSector(0, lost.Row)); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChecksumMismatches != 1 || rep.SectorsLost != 1 || rep.StripesDamaged != 1 {
		t.Fatalf("scrub %+v, want one mismatch plus one fail-stop loss in one stripe", rep)
	}
	s.Quiesce()
	rep2, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.StripesDamaged != 0 || rep2.ChecksumMismatches != 0 {
		t.Fatalf("second scrub %+v, want clean", rep2)
	}
	checkAllBlocks(t, s)
}

// TestIntegrityRecordsRefreshOnScrub: records absent from the sidecar
// (here: a volume written with the layer maintaining records, then the
// sidecar region zeroed out-of-band, as for a volume predating the
// layer) heal over a scrub pass — the stripe's content is proven good by
// parity first.
func TestIntegrityRecordsRefreshOnScrub(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	stripes, sector := 3, 128
	devs := make([]Device, code.N())
	want := stripes*code.R() + IntegrityMetaSectors(stripes, code.R(), sector)
	for i := range devs {
		devs[i] = NewMemDevice(want, sector)
	}
	s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs,
		Integrity: &IntegrityOptions{Epoch: 7}})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero every sidecar region out-of-band: all records become Absent.
	zero := make([]byte, sector)
	for _, d := range devs {
		md := d.(*MemDevice)
		for sec := stripes * code.R(); sec < want; sec++ {
			copy(md.data[sec*sector:(sec+1)*sector], zero)
		}
	}

	s2, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs,
		Integrity: &IntegrityOptions{Epoch: 7}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Absent records are no claim: reads still serve (and cannot verify).
	checkAllBlocks(t, s2)
	if got := s2.Stats().VerifiedSectors; got != 0 {
		t.Fatalf("VerifiedSectors=%d with every record absent", got)
	}
	rep, err := s2.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if want := stripes * code.N() * code.R(); rep.RecordsRefreshed != want {
		t.Fatalf("RecordsRefreshed=%d, want %d (every sector)", rep.RecordsRefreshed, want)
	}
	// With the sidecars healed, reads verify again.
	checkAllBlocks(t, s2)
	if got := s2.Stats().VerifiedSectors; got == 0 {
		t.Fatal("VerifiedSectors=0 after the scrub refreshed every record")
	}
	rep2, err := s2.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RecordsRefreshed != 0 {
		t.Fatalf("second scrub refreshed %d records, want 0", rep2.RecordsRefreshed)
	}
}

// TestCleanScrubWritesNothing: a scrub of a clean volume whose every
// sector has its record writes nothing to any device. With one record
// dropped out-of-band, the next scrub refreshes exactly that record, in
// one sidecar write to its device.
func TestCleanScrubWritesNothing(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	stripes, sector := 3, 128
	total := stripes*code.R() + IntegrityMetaSectors(stripes, code.R(), sector)
	counters := make([]*countingDevice, code.N())
	devs := make([]Device, code.N())
	for i := range devs {
		counters[i] = &countingDevice{MemDevice: NewMemDevice(total, sector)}
		devs[i] = counters[i]
	}
	open := func() *Store {
		s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs,
			Integrity: &IntegrityOptions{Epoch: 7}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	scrub := func(s *Store) (ScrubReport, []int64) {
		t.Helper()
		for _, c := range counters {
			c.writes.Store(0)
		}
		rep, err := s.Scrub(bg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.StripesChecked != stripes || rep.StripesDamaged+rep.StripesInconsistent != 0 {
			t.Fatalf("scrub of a clean volume: %+v", rep)
		}
		writes := make([]int64, len(counters))
		for i, c := range counters {
			writes[i] = c.writes.Load()
		}
		return rep, writes
	}

	s := open()
	fillStore(t, s)
	if rep, writes := scrub(s); rep.RecordsRefreshed != 0 || slices.ContainsFunc(writes, func(n int64) bool { return n != 0 }) {
		t.Fatalf("clean scrub: RecordsRefreshed=%d, device writes %v; want 0 and none", rep.RecordsRefreshed, writes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Drop the record of column 2, device sector 5: with 8 records per
	// 128-byte sidecar sector it is the sixth of the first one.
	const col, sec = 2, 5
	md := counters[col].MemDevice
	off := (stripes*code.R()+sec/8)*sector + sec%8*integrity.RecordSize
	clear(md.data[off : off+integrity.RecordSize])
	s = open()
	defer s.Close()
	rep, writes := scrub(s)
	if rep.RecordsRefreshed != 1 {
		t.Fatalf("RecordsRefreshed=%d with one record dropped, want 1", rep.RecordsRefreshed)
	}
	for i, n := range writes {
		want := int64(0)
		if i == col {
			want = 1
		}
		if n != want {
			t.Fatalf("device writes %v, want one on device %d only", writes, col)
		}
	}
	if _, ok := integrity.Decode(md.data[off : off+integrity.RecordSize]); !ok {
		t.Fatal("the refreshed record did not reach the sidecar")
	}
	if rep, writes := scrub(s); rep.RecordsRefreshed != 0 || slices.ContainsFunc(writes, func(n int64) bool { return n != 0 }) {
		t.Fatalf("scrub after the refresh: RecordsRefreshed=%d, device writes %v; want 0 and none", rep.RecordsRefreshed, writes)
	}
}

// TestIntegrityEpochCatchesStaleSidecar: records written under an older
// volume epoch fail verification — the stale-write half of the threat
// model. With EVERY record stale the located damage exceeds any
// coverage, so reads refuse rather than vouch for content the new
// volume identity disowns.
func TestIntegrityEpochCatchesStaleSidecar(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	stripes, sector := 2, 128
	devs := make([]Device, code.N())
	want := stripes*code.R() + IntegrityMetaSectors(stripes, code.R(), sector)
	for i := range devs {
		devs[i] = NewMemDevice(want, sector)
	}
	open := func(epoch uint32) *Store {
		s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs,
			Integrity: &IntegrityOptions{Epoch: epoch}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open(1)
	fillStore(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under a new epoch: every old record is now a mismatch, the
	// exact semantics wanted when a volume identity changes.
	s2 := open(2)
	defer s2.Close()
	if _, err := s2.ReadBlock(bg, 0); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("read under a new epoch returned %v, want ErrUnrecoverable (old records must not vouch)", err)
	}
	if s2.Stats().ChecksumMismatches == 0 {
		t.Fatal("ChecksumMismatches=0 — old-epoch records verified under the new epoch")
	}
}
