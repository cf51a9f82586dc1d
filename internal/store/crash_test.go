package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"stair/internal/core"
	"stair/internal/store/journal"
)

// errKilled is the sentinel a kill-point hook aborts a flush with — the
// in-process stand-in for the process dying at that instant: the
// journal, devices and buffers are left exactly as the protocol had
// them.
var errKilled = errors.New("killed at injection point")

// crashVolume is a volume whose devices survive a simulated crash: the
// MemDevices play the role of persistent media (their content outlives
// the Store object, as disks outlive a process), and the journal file
// lives in a temp dir.
type crashVolume struct {
	code        *core.Code
	devs        []Device
	journalPath string
	stripes     int
	sector      int
}

func newCrashVolume(t *testing.T, code *core.Code, stripes, sector int) *crashVolume {
	t.Helper()
	v := &crashVolume{
		code:        code,
		journalPath: filepath.Join(t.TempDir(), "journal.wal"),
		stripes:     stripes,
		sector:      sector,
	}
	v.devs = make([]Device, code.N())
	for i := range v.devs {
		v.devs[i] = NewMemDevice(stripes*code.R(), sector)
	}
	return v
}

// open mounts the volume; recovery runs automatically when the journal
// holds pending intents.
func (v *crashVolume) open(t *testing.T) (*Store, *journal.Journal) {
	t.Helper()
	j, err := journal.Open(v.journalPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{
		Code: v.code, SectorSize: v.sector, Stripes: v.stripes,
		Devices: v.devs, Journal: j,
	})
	if err != nil {
		j.Close()
		t.Fatal(err)
	}
	return s, j
}

// abandon simulates the crash: stop the store's goroutines without
// flushing anything — buffered writes die with the process, devices and
// journal keep whatever the kill point left behind.
func abandonStore(s *Store, j *journal.Journal) {
	s.closed.Store(true)
	close(s.quit)
	s.repairQ.close()
	s.wg.Wait()
	j.Close()
}

// killPoints is the injection matrix of the journaled write-back
// protocol (flush.go).
var killPoints = []killPoint{
	killAfterJournalAppend,
	killAfterDataWrite,
	killAfterParityWrite,
	killAfterCommit,
}

// TestCrashRecoveryFullStripeMatrix kills a full-stripe flush at every
// protocol point, reopens the volume, and asserts the crash-consistency
// property: recovery leaves zero parity-inconsistent stripes, and the
// surviving content is either wholly old or wholly new per the kill
// point.
func TestCrashRecoveryFullStripeMatrix(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	for _, kp := range killPoints {
		t.Run(string(kp), func(t *testing.T) {
			v := newCrashVolume(t, code, 3, 128)
			s, j := v.open(t)
			fillStore(t, s) // round 0, cleanly committed
			if got := j.PendingCount(); got != 0 {
				t.Fatalf("%d pending intents after a clean flush, want 0", got)
			}
			// Checkpoint round 0 so the crash's replay set is exactly
			// round 1's intents.
			if err := s.Sync(bg); err != nil {
				t.Fatal(err)
			}

			// Round 1 overwrites every block; with the kill armed, each
			// stripe's flush dies at the target point.
			s.testKill = func(p killPoint) error {
				if p == kp {
					return errKilled
				}
				return nil
			}
			kills := 0
			for b := 0; b < s.Blocks(); b++ {
				err := s.WriteBlock(bg, b, blockData(b+1000, s.BlockSize()))
				if err != nil {
					if !errors.Is(err, errKilled) {
						t.Fatalf("write block %d: %v", b, err)
					}
					kills++
				}
			}
			if kills != v.stripes {
				t.Fatalf("%d flushes killed, want one per stripe (%d)", kills, v.stripes)
			}
			abandonStore(s, j)

			// Reboot. Open replays the journal; the store must come back
			// with every stripe parity-consistent.
			s2, j2 := v.open(t)
			defer func() { s2.Close(); j2.Close() }()
			checkStripesConsistent(t, s2)
			rep := s2.Recovery()
			switch kp {
			case killAfterJournalAppend:
				// No device write happened: the old stripes are intact and
				// consistent; nothing to roll forward.
				if rep.Stripes != v.stripes || rep.Consistent != v.stripes || rep.RolledForward != 0 {
					t.Fatalf("recovery %+v, want %d consistent stripes", rep, v.stripes)
				}
				checkAllBlocks(t, s2) // round-0 content
			case killAfterDataWrite:
				// New data, stale parity: every stripe must be rolled
				// forward onto the new content.
				if rep.RolledForward != v.stripes || rep.DataComplete != v.stripes {
					t.Fatalf("recovery %+v, want %d rolled forward with complete data", rep, v.stripes)
				}
				checkRound1(t, s2)
			case killAfterParityWrite:
				// The write-back completed; only the commit is missing.
				if rep.Consistent != v.stripes || rep.DataComplete != v.stripes || rep.RolledForward != 0 {
					t.Fatalf("recovery %+v, want %d consistent stripes with complete data", rep, v.stripes)
				}
				checkRound1(t, s2)
			case killAfterCommit:
				// The commit is in-memory only; the intents stay on disk
				// until a Sync/Close checkpoint (which the crash
				// precluded), so the reopen re-verifies them — all
				// consistent, with the intended data fully landed.
				if rep.Consistent != v.stripes || rep.DataComplete != v.stripes || rep.RolledForward != 0 {
					t.Fatalf("recovery %+v, want %d consistent stripes replayed", rep, v.stripes)
				}
				checkRound1(t, s2)
			}
			if got := j2.PendingCount(); got != 0 {
				t.Fatalf("%d intents still pending after recovery, want 0", got)
			}
			if kp == killAfterDataWrite && s2.Stats().RecoveredStripes != uint64(v.stripes) {
				t.Fatalf("RecoveredStripes=%d, want %d", s2.Stats().RecoveredStripes, v.stripes)
			}
		})
	}
}

// checkRound1 asserts every block holds its round-1 overwrite.
func checkRound1(t *testing.T, s *Store) {
	t.Helper()
	for b := 0; b < s.Blocks(); b++ {
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatalf("read block %d: %v", b, err)
		}
		if !bytes.Equal(got, blockData(b+1000, s.BlockSize())) {
			t.Fatalf("block %d does not hold the rolled-forward content", b)
		}
	}
}

// TestCrashRecoverySubStripeMatrix kills a §5.2 read–modify–write at
// every protocol point. This is the scenario the journal exists for:
// the RMW touches a handful of data sectors plus their uneven parity
// dependencies, and a crash between those writes leaves parity silently
// disagreeing with data.
func TestCrashRecoverySubStripeMatrix(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	for _, kp := range killPoints {
		t.Run(string(kp), func(t *testing.T) {
			v := newCrashVolume(t, code, 3, 128)
			s, j := v.open(t)
			fillStore(t, s)
			// Checkpoint the fill so the crash's replay set is exactly
			// the interrupted RMW.
			if err := s.Sync(bg); err != nil {
				t.Fatal(err)
			}

			// Dirty two blocks of stripe 1 and flush: a sub-stripe RMW.
			dirty := []int{s.perStripe, s.perStripe + 3}
			for _, b := range dirty {
				if err := s.WriteBlock(bg, b, blockData(b+1000, s.BlockSize())); err != nil {
					t.Fatal(err)
				}
			}
			s.testKill = func(p killPoint) error {
				if p == kp {
					return errKilled
				}
				return nil
			}
			if err := s.Flush(bg); !errors.Is(err, errKilled) {
				t.Fatalf("killed flush returned %v, want errKilled", err)
			}
			abandonStore(s, j)

			s2, j2 := v.open(t)
			defer func() { s2.Close(); j2.Close() }()
			// The property under test: no kill point leaves any stripe
			// parity-inconsistent after recovery.
			checkStripesConsistent(t, s2)
			rep := s2.Recovery()
			newContent := kp == killAfterDataWrite || kp == killAfterParityWrite || kp == killAfterCommit
			for b := 0; b < s2.Blocks(); b++ {
				want := blockData(b, s2.BlockSize())
				if newContent && (b == dirty[0] || b == dirty[1]) {
					want = blockData(b+1000, s2.BlockSize())
				}
				got, err := s2.ReadBlock(bg, b)
				if err != nil {
					t.Fatalf("read block %d: %v", b, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("block %d holds neither old nor rolled-forward content", b)
				}
			}
			switch kp {
			case killAfterDataWrite:
				if rep.RolledForward != 1 || rep.DataComplete != 1 {
					t.Fatalf("recovery %+v, want 1 stripe rolled forward with complete data", rep)
				}
			case killAfterJournalAppend:
				if rep.Consistent != 1 || rep.DataComplete != 0 {
					t.Fatalf("recovery %+v, want 1 consistent stripe with no data landed", rep)
				}
			case killAfterParityWrite, killAfterCommit:
				// Identical on disk: the write-back completed; only the
				// (in-memory) commit and/or the checkpoint are missing, so
				// the replay re-verifies a consistent stripe.
				if rep.Consistent != 1 || rep.DataComplete != 1 {
					t.Fatalf("recovery %+v, want 1 consistent stripe with complete data", rep)
				}
			}
			if got := j2.PendingCount(); got != 0 {
				t.Fatalf("%d intents still pending after recovery, want 0", got)
			}
		})
	}
}

// crashSubStripe fills a journaled volume, dirties two blocks of
// stripe 1 and kills the RMW flush at kp, returning the dirty block
// ids. The caller owns the reopen.
func crashSubStripe(t *testing.T, v *crashVolume, kp killPoint) []int {
	t.Helper()
	s, j := v.open(t)
	fillStore(t, s)
	// The barrier checkpoints the fill's intents, so the crash leaves
	// exactly the interrupted RMW pending.
	if err := s.Sync(bg); err != nil {
		t.Fatal(err)
	}
	dirty := []int{s.perStripe, s.perStripe + 3}
	for _, b := range dirty {
		if err := s.WriteBlock(bg, b, blockData(b+1000, s.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	s.testKill = func(p killPoint) error {
		if p == kp {
			return errKilled
		}
		return nil
	}
	if err := s.Flush(bg); !errors.Is(err, errKilled) {
		t.Fatalf("killed flush returned %v, want errKilled", err)
	}
	abandonStore(s, j)
	return dirty
}

// TestRecoveryRefusesUntrustedRepair: a latent data-sector loss on a
// stripe whose crash broke the parity relations must NOT be
// "repaired" — the reconstruction would solve contradictory equations
// into fabricated content. Recovery must report the stripe
// unrecoverable, keep the journal, and reads of the lost block must
// error rather than return invented bytes.
func TestRecoveryRefusesUntrustedRepair(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	v := newCrashVolume(t, code, 3, 128)
	// Crash between the data and parity phases: stripe 1 now holds new
	// data under old parity.
	crashSubStripe(t, v, killAfterDataWrite)

	// The disk then develops a latent error on an *untouched* data cell
	// of the same stripe before the reboot.
	lostOrd := 10
	lostCell := code.DataCells()[lostOrd]
	fd := v.devs[lostCell.Col].(*MemDevice)
	if err := fd.InjectSectorError(1*code.R() + lostCell.Row); err != nil {
		t.Fatal(err)
	}

	s2, j2 := v.open(t)
	defer func() { s2.Close(); j2.Close() }()
	rep := s2.Recovery()
	if rep.Unrecoverable != 1 || rep.RolledForward != 0 {
		t.Fatalf("recovery %+v, want exactly the damaged stripe reported unrecoverable", rep)
	}
	if got := j2.PendingCount(); got == 0 {
		t.Fatal("journal truncated although a stripe could not be re-verified")
	}
	if got := s2.UnrecoverableStripes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("unrecoverable stripes %v, want [1]", got)
	}
	// The lost block must error — fabricated content would be silent
	// corruption, the exact failure mode the journal exists to prevent.
	if _, err := s2.ReadBlock(bg, s2.perStripe+lostOrd); err == nil {
		t.Fatal("read of an unverifiable lost block returned data")
	}
}

// TestRecoveryLostParityRollsForward: losing only parity sectors never
// blocks recovery — parity is re-encoded from the (authoritative) data
// cells regardless of what the crash tore.
func TestRecoveryLostParityRollsForward(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	v := newCrashVolume(t, code, 3, 128)
	dirty := crashSubStripe(t, v, killAfterDataWrite)

	parity := code.ParityCells()[0]
	fd := v.devs[parity.Col].(*MemDevice)
	if err := fd.InjectSectorError(1*code.R() + parity.Row); err != nil {
		t.Fatal(err)
	}

	s2, j2 := v.open(t)
	defer func() { s2.Close(); j2.Close() }()
	rep := s2.Recovery()
	if rep.RolledForward != 1 || rep.Unrecoverable != 0 {
		t.Fatalf("recovery %+v, want the stripe rolled forward", rep)
	}
	if got := j2.PendingCount(); got != 0 {
		t.Fatalf("%d intents pending after a clean roll-forward", got)
	}
	checkStripesConsistent(t, s2)
	for _, b := range dirty {
		got, err := s2.ReadBlock(bg, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blockData(b+1000, s2.BlockSize())) {
			t.Fatalf("block %d lost its rolled-forward content", b)
		}
	}
}

// TestRecoveryAcceptsVerifiedRepair: a data-sector loss on a stripe
// whose write-back actually completed (crash after the parity phase)
// repairs soundly — the repaired stripe verifies, so recovery heals it
// and moves on.
func TestRecoveryAcceptsVerifiedRepair(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	v := newCrashVolume(t, code, 3, 128)
	crashSubStripe(t, v, killAfterParityWrite)

	lostOrd := 10
	lostCell := code.DataCells()[lostOrd]
	fd := v.devs[lostCell.Col].(*MemDevice)
	if err := fd.InjectSectorError(1*code.R() + lostCell.Row); err != nil {
		t.Fatal(err)
	}

	s2, j2 := v.open(t)
	defer func() { s2.Close(); j2.Close() }()
	rep := s2.Recovery()
	if rep.RolledForward != 1 || rep.Unrecoverable != 0 {
		t.Fatalf("recovery %+v, want the verified repair accepted and healed", rep)
	}
	checkStripesConsistent(t, s2)
	got, err := s2.ReadBlock(bg, s2.perStripe+lostOrd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blockData(s2.perStripe+lostOrd, s2.BlockSize())) {
		t.Fatal("repaired block does not hold its original content")
	}
	if bad := s2.TotalBadSectors(); bad != 0 {
		t.Fatalf("%d bad sectors left after recovery healed the stripe", bad)
	}
}

// TestRecoveryRetainsJournalOnWriteFailure: a roll-forward whose
// write-back fails transiently must not count as recovered — the
// journal keeps the intent for the next mount, and the stripe is
// marked so degraded reads refuse it instead of decoding over the
// still-inconsistent parity.
func TestRecoveryRetainsJournalOnWriteFailure(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	v := newCrashVolume(t, code, 3, 128)
	dirty := crashSubStripe(t, v, killAfterDataWrite)

	// First reboot lands on a device whose writes fail transiently.
	flaky := &flakyDevice{MemDevice: v.devs[2].(*MemDevice)}
	v.devs[2] = flaky
	flaky.failWrites.Store(1)
	s2, j2 := v.open(t)
	rep := s2.Recovery()
	if rep.Unrecoverable != 1 || rep.RolledForward != 0 {
		t.Fatalf("recovery %+v, want the failed roll-forward reported unrecoverable", rep)
	}
	if got := j2.PendingCount(); got == 0 {
		t.Fatal("journal truncated although the roll-forward did not land")
	}
	if got := s2.UnrecoverableStripes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("unrecoverable stripes %v, want [1]", got)
	}
	abandonStore(s2, j2)

	// Second reboot: the device behaves, the retained intent replays,
	// and the stripe converges on the rolled-forward content.
	s3, j3 := v.open(t)
	defer func() { s3.Close(); j3.Close() }()
	rep = s3.Recovery()
	if rep.RolledForward != 1 || rep.Unrecoverable != 0 {
		t.Fatalf("second recovery %+v, want the retried roll-forward to land", rep)
	}
	checkStripesConsistent(t, s3)
	for _, b := range dirty {
		got, err := s3.ReadBlock(bg, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blockData(b+1000, s3.BlockSize())) {
			t.Fatalf("block %d lost its rolled-forward content after the retry", b)
		}
	}
}

// gatedWriteDevice blocks every WriteSectors call until release closes
// — it wedges the writer's own eviction so the backpressure path is
// observable.
type gatedWriteDevice struct {
	*MemDevice
	release chan struct{}
}

func (d *gatedWriteDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	<-d.release
	return d.MemDevice.WriteSectors(ctx, start, data)
}

// TestEvictionBackpressure: with write-back wedged, a writer
// spraying partial stripes must block in its eviction once
// MaxDirtyStripes is exceeded instead of buffering the whole volume.
func TestEvictionBackpressure(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const (
		stripes  = 8
		maxDirty = 2
	)
	release := make(chan struct{})
	devs := make([]Device, code.N())
	for i := range devs {
		devs[i] = &gatedWriteDevice{MemDevice: NewMemDevice(stripes*code.R(), 128), release: release}
	}
	s, err := Open(Config{
		Code: code, SectorSize: 128, Stripes: stripes, Devices: devs,
		MaxDirtyStripes: maxDirty,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan error, 1)
	var progress atomic.Int32
	go func() {
		for stripe := 0; stripe < stripes; stripe++ {
			if err := s.WriteBlock(bg, stripe*s.perStripe, blockData(stripe, s.BlockSize())); err != nil {
				done <- err
				return
			}
			progress.Add(1)
		}
		done <- nil
	}()
	// The writer must stall in the wedged eviction with the buffer bound
	// held — not race ahead buffering all 8 stripes.
	deadline := time.Now().Add(2 * time.Second)
	for progress.Load() < maxDirty+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // give an unbounded writer time to misbehave
	if got := progress.Load(); got > maxDirty+1 {
		t.Fatalf("writer completed %d writes against a wedged eviction, want ≤ %d (backpressure)", got, maxDirty+1)
	}
	if got := int(s.dirtyCount.Load()); got > maxDirty+1 {
		t.Fatalf("dirtyCount=%d with the eviction wedged, bound is %d(+1 hot)", got, maxDirty)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	for stripe := 0; stripe < stripes; stripe++ {
		got, err := s.ReadBlock(bg, stripe*s.perStripe)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blockData(stripe, s.BlockSize())) {
			t.Fatalf("stripe %d's write lost under backpressure", stripe)
		}
	}
	checkStripesConsistent(t, s)
}

// TestJournaledFlushBookkeeping: a cleanly flushed journaled store
// commits every intent (empty journal, no recovery on reopen) and
// counts its journaled flushes.
func TestJournaledFlushBookkeeping(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	v := newCrashVolume(t, code, 3, 128)
	s, j := v.open(t)
	fillStore(t, s)
	if err := s.WriteBlock(bg, 1, blockData(2001, s.BlockSize())); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if want := uint64(v.stripes + 1); st.JournaledFlushes != want {
		t.Errorf("JournaledFlushes=%d, want %d", st.JournaledFlushes, want)
	}
	if got := j.PendingCount(); got != 0 {
		t.Errorf("%d pending intents after clean flushes", got)
	}
	// Committed intents stay ON DISK until a durability barrier — the
	// covered device writes could still be volatile — and the barrier
	// reclaims the log.
	if info, err := os.Stat(v.journalPath); err != nil || info.Size() == 0 {
		t.Errorf("journal file empty before any durability barrier (err=%v)", err)
	}
	if err := s.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(v.journalPath); err != nil || info.Size() != 0 {
		t.Errorf("journal holds data after the Sync barrier (err=%v)", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	s2, j2 := v.open(t)
	defer func() { s2.Close(); j2.Close() }()
	if s2.Recovery().Replayed() {
		t.Errorf("recovery %+v ran on a cleanly closed volume", s2.Recovery())
	}
	checkStripesConsistent(t, s2)
}

// TestSyncDurabilityBarrier: Sync drains buffers and leaves the journal
// empty; on file devices the content survives a reopen.
func TestSyncDurabilityBarrier(t *testing.T) {
	code := testCode(t, core.Config{N: 5, R: 3, M: 1, E: []int{2}})
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	open := func() (*Store, *journal.Journal) {
		devs := make([]Device, code.N())
		for i := range devs {
			d, err := OpenFileDevice(filepath.Join(dir, fmt.Sprintf("dev%d.img", i)), 4*code.R(), 64)
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = d
		}
		j, err := journal.Open(jpath)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Code: code, SectorSize: 64, Stripes: 4, Devices: devs, Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		return s, j
	}
	s, j := open()
	for b := 0; b < s.Blocks(); b++ {
		if err := s.WriteBlock(bg, b, blockData(b, s.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(bg); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := int(s.dirtyCount.Load()); got != 0 {
		t.Fatalf("%d dirty stripes after Sync, want 0", got)
	}
	if got := j.PendingCount(); got != 0 {
		t.Fatalf("%d pending intents after Sync, want 0", got)
	}
	// Simulate the process dying right after the barrier: no Close.
	abandonStore(s, j)
	s2, j2 := open()
	defer func() { s2.Close(); j2.Close() }()
	checkAllBlocks(t, s2)
	checkStripesConsistent(t, s2)
}
