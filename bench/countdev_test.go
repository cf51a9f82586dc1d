package main

import (
	"context"
	"path/filepath"
	"testing"

	"stair/internal/core"
	"stair/internal/store"
)

func TestCountDevPassesCapabilitiesThrough(t *testing.T) {
	ctx := context.Background()
	var c devCounters
	memDev := newCountDev(store.NewMemDevice(8, 512), &c, nil)
	var dev store.Device = memDev
	fd, ok := dev.(store.FaultDevice)
	if !ok {
		t.Fatal("wrapper hides FaultDevice")
	}
	if err := fd.InjectSectorError(3); err != nil || fd.BadSectors() != 1 {
		t.Errorf("InjectSectorError: err %v, %d bad sectors", err, fd.BadSectors())
	}
	if err := fd.Fail(); err != nil || !fd.Failed() {
		t.Errorf("Fail: err %v, failed %v", err, fd.Failed())
	}
	if err := fd.Replace(); err != nil || fd.Failed() || fd.BadSectors() != 8 {
		t.Errorf("Replace: err %v, failed %v, %d bad sectors", err, fd.Failed(), fd.BadSectors())
	}
	// MemDevice has no durability barrier: Sync succeeds and is not counted.
	if err := store.SyncDevice(ctx, dev); err != nil || c[dcSyncCalls].Load() != 0 {
		t.Errorf("Sync over MemDevice: err %v, %d calls counted", err, c[dcSyncCalls].Load())
	}

	file, err := store.OpenFileDevice(filepath.Join(t.TempDir(), "dev.img"), 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	fileDev := newCountDev(file, &c, nil)
	defer fileDev.Close()
	if err := store.SyncDevice(ctx, fileDev); err != nil || c[dcSyncCalls].Load() != 1 {
		t.Errorf("Sync over FileDevice: err %v, %d calls counted", err, c[dcSyncCalls].Load())
	}
	bufs := [][]byte{make([]byte, 512), make([]byte, 512)}
	if err := fileDev.WriteSectors(ctx, 2, bufs); err != nil {
		t.Fatal(err)
	}
	if err := fileDev.ReadSectors(ctx, 2, bufs[:1]); err != nil {
		t.Fatal(err)
	}
	got := c.snapshot()
	want := devSnapshot{dcReadCalls: 1, dcWriteCalls: 1, dcSyncCalls: 1, dcReadSectors: 1, dcWriteSectors: 2, dcReadBytes: 512, dcWriteBytes: 1024}
	if got != want {
		t.Errorf("counters %v, want %v", got, want)
	}
}

// TestCountDevKeepsZeroCopy drives healthy store traffic over wrapped
// FileDevices: the wrapper must hand the store's slab-backed vectors to
// the backend untouched, so no call falls back to a scratch flat.
func TestCountDevKeepsZeroCopy(t *testing.T) {
	ctx := context.Background()
	code, err := core.New(codeConfig)
	if err != nil {
		t.Fatal(err)
	}
	const sector, stripes = 512, 4
	sectors := stripes*codeR + store.IntegrityMetaSectors(stripes, codeR, sector)
	var c devCounters
	var wrapped []*countDev
	devs := make([]store.Device, codeN)
	for i := range devs {
		fd, err := store.OpenFileDevice(filepath.Join(t.TempDir(), "dev.img"), sectors, sector)
		if err != nil {
			t.Fatal(err)
		}
		wrapped = append(wrapped, newCountDev(fd, &c, nil))
		devs[i] = wrapped[i]
	}
	st, err := store.Open(store.Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs,
		Integrity: &store.IntegrityOptions{Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	block := make([]byte, sector)
	for b := 0; b < st.Blocks(); b++ {
		fillContent(block, 1, b, 0)
		if err := st.WriteBlock(ctx, b, block); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	fillContent(block, 1, 5, 1)
	if err := st.WriteBlock(ctx, 5, block); err != nil { // sub-stripe read-modify-write
		t.Fatal(err)
	}
	if err := st.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadBlockInto(ctx, 5, block); err != nil {
		t.Fatal(err)
	}
	if rep, err := st.Scrub(ctx); err != nil || rep.StripesDamaged != 0 {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
	for i, d := range wrapped {
		if n := d.ScratchFlats(); n != 0 {
			t.Errorf("device %d: %d calls fell back to a scratch flat", i, n)
		}
	}
	if got := c.snapshot(); got[dcWriteCalls] == 0 || got[dcReadCalls] == 0 || got[dcSyncCalls] != codeN {
		t.Errorf("counters %v: want reads, writes and one sync per device", got)
	}
}
