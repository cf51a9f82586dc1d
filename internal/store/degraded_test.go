package store

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"stair/internal/core"
)

// TestDegradedReadDeviceFailure: after m whole-device failures every
// block still reads back correctly through on-the-fly reconstruction.
func TestDegradedReadDeviceFailure(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	for _, dev := range []int{1, 4} {
		if err := s.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	checkAllBlocks(t, s)
	st := s.Stats()
	if st.DegradedReads == 0 {
		t.Fatal("no degraded reads recorded with two failed devices")
	}
	if st.UnrecoverableStripes != 0 {
		t.Fatalf("UnrecoverableStripes=%d within coverage", st.UnrecoverableStripes)
	}
}

// TestDegradedReadSectorErrors: latent sector errors within the coverage
// vector are reconstructed on read.
func TestDegradedReadSectorErrors(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	// Stripe 1: a 2-sector burst in chunk 0 and a single in chunk 3 —
	// exactly the e=[1,2] coverage.
	if err := s.InjectBurst(0, s.devSector(1, 1), 2); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectSectorError(3, s.devSector(1, 2)); err != nil {
		t.Fatal(err)
	}
	checkAllBlocks(t, s)
	if st := s.Stats(); st.DegradedReads == 0 {
		t.Fatal("no degraded reads recorded")
	}
}

// TestScrubRepairConverges: the scrubber finds injected latent errors and
// the repair queue heals every one of them.
func TestScrubRepairConverges(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	// Damage every stripe within coverage: one burst of 2 plus a single.
	for stripe := 0; stripe < s.stripes; stripe++ {
		chunk := stripe % s.n
		other := (stripe + 3) % s.n
		if err := s.InjectBurst(chunk, s.devSector(stripe, 0), 2); err != nil {
			t.Fatal(err)
		}
		if err := s.InjectSectorError(other, s.devSector(stripe, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.TotalBadSectors(); got != 3*s.stripes {
		t.Fatalf("TotalBadSectors=%d, want %d", got, 3*s.stripes)
	}
	rep, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StripesChecked != s.stripes || rep.StripesDamaged != s.stripes {
		t.Fatalf("scrub report %+v, want all %d stripes damaged", rep, s.stripes)
	}
	s.Quiesce()
	if got := s.TotalBadSectors(); got != 0 {
		t.Fatalf("TotalBadSectors=%d after scrub+repair, want 0", got)
	}
	st := s.Stats()
	if st.ScrubHits != uint64(s.stripes) {
		t.Errorf("ScrubHits=%d, want %d", st.ScrubHits, s.stripes)
	}
	if st.RepairedSectors != uint64(3*s.stripes) {
		t.Errorf("RepairedSectors=%d, want %d", st.RepairedSectors, 3*s.stripes)
	}
	checkAllBlocks(t, s)
	checkStripesConsistent(t, s)
	if st := s.Stats(); st.DegradedReads != 0 {
		t.Errorf("DegradedReads=%d after full repair, want 0", st.DegradedReads)
	}
}

// TestBackgroundScrubber: a running scrubber heals injected damage
// without any explicit Scrub call.
func TestBackgroundScrubber(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	if err := s.StartScrubber(ScrubberOptions{Interval: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := s.StartScrubber(ScrubberOptions{Interval: time.Millisecond}); err == nil {
		t.Fatal("second scrubber accepted")
	}
	if err := s.InjectBurst(2, s.devSector(1, 1), 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.TotalBadSectors() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("background scrubber did not heal the burst in time")
		}
		time.Sleep(time.Millisecond)
	}
	s.StopScrubber()
	s.Quiesce()
	checkAllBlocks(t, s)
}

// TestReplaceRebuild: a failed device replaced with a fresh one is
// rebuilt sector by sector, after which reads are no longer degraded.
func TestReplaceRebuild(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	if err := s.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	checkAllBlocks(t, s) // degraded but correct
	if err := s.ReplaceDevice(2); err != nil {
		t.Fatal(err)
	}
	if err := s.RebuildDevice(bg, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalBadSectors(); got != 0 {
		t.Fatalf("TotalBadSectors=%d after rebuild, want 0", got)
	}
	base := s.Stats().DegradedReads
	checkAllBlocks(t, s)
	if got := s.Stats().DegradedReads; got != base {
		t.Fatalf("reads still degraded after rebuild (%d → %d)", base, got)
	}
	checkStripesConsistent(t, s)
}

// TestUnrecoverablePattern: a failure pattern outside coverage surfaces
// ErrUnrecoverable and the counter — never corrupt data — while blocks
// on surviving devices stay readable.
func TestUnrecoverablePattern(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	// m+1 = 3 failed devices exceed the coverage.
	for _, dev := range []int{0, 1, 2} {
		if err := s.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	sawUnrecoverable := false
	for b := 0; b < s.Blocks(); b++ {
		_, _, cell, _ := s.blockOf(b)
		got, err := s.ReadBlock(bg, b)
		if cell.Col <= 2 {
			if !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("block %d on failed device: err=%v, want ErrUnrecoverable", b, err)
			}
			sawUnrecoverable = true
			continue
		}
		if err != nil {
			t.Fatalf("block %d on live device: %v", b, err)
		}
		if !bytes.Equal(got, blockData(b, s.BlockSize())) {
			t.Fatalf("block %d corrupt", b)
		}
	}
	if !sawUnrecoverable {
		t.Fatal("no unrecoverable blocks seen")
	}
	st := s.Stats()
	if st.UnrecoverableStripes != uint64(s.stripes) {
		t.Errorf("UnrecoverableStripes=%d, want %d", st.UnrecoverableStripes, s.stripes)
	}
	if got := s.UnrecoverableStripes(); len(got) != s.stripes {
		t.Errorf("UnrecoverableStripes()=%v, want all %d stripes", got, s.stripes)
	}
	// Scrub must not queue unrecoverable stripes forever, and a full
	// rewrite resurrects one.
	if _, err := s.Scrub(bg); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	for b := 0; b < s.perStripe; b++ {
		if err := s.WriteBlock(bg, b, blockData(b, s.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.UnrecoverableStripes(); len(got) != s.stripes-1 {
		t.Errorf("after full-stripe rewrite: unrecoverable=%v, want %d stripes", got, s.stripes-1)
	}
}

// TestRepairQueueBound: more damaged stripes than queue slots drops the
// overflow (counted), and a later scrub pass converges anyway. The only
// repair worker is parked after its first repair, so the first scrub
// fills the queue and has to drop the rest.
func TestRepairQueueBound(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: repairQueueLen + 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark()
	s.testRepairObserve = func(int) { <-release }
	fillStore(t, s)
	for stripe := 0; stripe < s.stripes; stripe++ {
		if err := s.InjectSectorError(1, s.devSector(stripe, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Scrub(bg); err != nil {
		t.Fatal(err)
	}
	if drops := s.Stats().RepairDrops; drops == 0 {
		t.Fatalf("%d damaged stripes behind a %d-slot queue dropped no repair", s.stripes, repairQueueLen)
	}
	unpark()
	s.Quiesce()
	deadline := time.Now().Add(5 * time.Second)
	for s.TotalBadSectors() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repairs did not converge; %d bad sectors left", s.TotalBadSectors())
		}
		if _, err := s.Scrub(bg); err != nil {
			t.Fatal(err)
		}
		s.Quiesce()
	}
	checkAllBlocks(t, s)
}
