package store

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"stair/internal/core"
)

// The store learns device state from the answers to the I/O it does,
// never by asking a device whether it has failed. answerDevice is the
// device that makes the difference visible: its Failed() says healthy
// whatever happens — as a status poll that raced the failure would — so
// a store that skipped failed devices on the poll's word gets every case
// below wrong.
type answerDevice struct {
	*MemDevice
	// syncErr is Sync's answer; writeDown makes writes answer
	// ErrDeviceFailed while reads still work.
	syncErr   error
	writeDown atomic.Bool
	writes    atomic.Int64
	reads     atomic.Int64
}

func (d *answerDevice) Failed() bool { return false }

func (d *answerDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	d.reads.Add(1)
	return d.MemDevice.ReadSectors(ctx, start, bufs)
}

func (d *answerDevice) Sync(ctx context.Context) error { return d.syncErr }

func (d *answerDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	d.writes.Add(1)
	if d.writeDown.Load() {
		return ErrDeviceFailed
	}
	return d.MemDevice.WriteSectors(ctx, start, data)
}

// openAnswerStore opens a filled store whose device 2 is an answerDevice.
func openAnswerStore(t *testing.T) (*Store, *answerDevice) {
	t.Helper()
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const stripes, sectorSize = 4, 64
	devs := make([]Device, code.N())
	for i := range devs {
		devs[i] = NewMemDevice(stripes*code.R(), sectorSize)
	}
	ad := &answerDevice{MemDevice: NewMemDevice(stripes*code.R(), sectorSize)}
	devs[2] = ad
	s, err := Open(Config{Code: code, SectorSize: sectorSize, Stripes: stripes, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	fillStore(t, s)
	return s, ad
}

// A device that fails between its last status poll and the barrier
// answers Sync with ErrDeviceFailed: the barrier skips it, as it would
// have skipped it on the poll. Any other answer still fails the Sync.
func TestDeviceStateSyncSkipsFailedAnswer(t *testing.T) {
	s, ad := openAnswerStore(t)
	ad.syncErr = fmt.Errorf("remote: %w", ErrDeviceFailed)
	if err := s.Sync(bg); err != nil {
		t.Fatalf("Sync over a device answering ErrDeviceFailed: %v", err)
	}
	ad.syncErr = errors.New("fsync: input/output error")
	if err := s.Sync(bg); err == nil || !strings.Contains(err.Error(), "syncing device 2") {
		t.Fatalf("Sync over a device whose fsync failed: %v, want the device named", err)
	}
	ad.syncErr = nil
}

// A repair whose write-back the device refuses with ErrDeviceFailed is
// not retried: the device is wholly failed and nothing can land there
// until it is replaced. Other write failures are
// (TestPartialRepairRequeuedAndCountedOnce).
func TestDeviceStateRepairSkipsFailedWrite(t *testing.T) {
	s, ad := openAnswerStore(t)
	if err := s.InjectSectorError(2, s.devSector(1, 0)); err != nil {
		t.Fatal(err)
	}
	ad.writeDown.Store(true)
	writes := ad.writes.Load()
	rep, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	if rep.StripesQueued != 1 {
		t.Fatalf("scrub report %+v, want the damaged stripe queued", rep)
	}
	st := s.Stats()
	if st.RepairRequeues != 0 || st.RepairedStripes != 0 {
		t.Fatalf("RepairRequeues=%d RepairedStripes=%d, want 0 and 0: a write answering ErrDeviceFailed is skipped, not retried or counted healed",
			st.RepairRequeues, st.RepairedStripes)
	}
	if got := ad.writes.Load() - writes; got != 1 {
		t.Fatalf("%d write-backs to the refusing device, want exactly the one that learned it", got)
	}
	checkAllBlocks(t, s)
}

// A wholly failed device's reads answer ErrDeviceFailed, and that is how
// repair and rebuild learn to write nothing to it: every stripe the scrub
// queues loads, records the device as down and heals what it can
// elsewhere — with not one write sent its way and no retry.
func TestDeviceStateRepairLearnsDownFromLoad(t *testing.T) {
	s, ad := openAnswerStore(t)
	// One healable loss besides the failed device, so that some repair
	// has somewhere to land.
	if err := s.InjectSectorError(3, s.devSector(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ad.Fail(); err != nil {
		t.Fatal(err)
	}
	writes := ad.writes.Load()
	if _, err := s.Scrub(bg); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	if err := s.RebuildDevice(bg, 2); err != nil {
		t.Fatal(err)
	}
	if got := ad.writes.Load() - writes; got != 0 {
		t.Fatalf("%d write-backs sent to a device whose reads answer ErrDeviceFailed", got)
	}
	st := s.Stats()
	if st.RepairRequeues != 0 {
		t.Fatalf("RepairRequeues=%d, want 0", st.RepairRequeues)
	}
	if st.RepairedSectors != 1 {
		t.Fatalf("RepairedSectors=%d, want the one loss on a live device", st.RepairedSectors)
	}
	if bad := s.TotalBadSectors(); bad != 0 {
		t.Fatalf("%d bad sectors left on live devices", bad)
	}
	checkAllBlocks(t, s)
}
