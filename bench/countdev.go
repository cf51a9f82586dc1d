package main

import (
	"context"
	"sync/atomic"

	"stair/internal/store"
)

// Indices into devCounters / devSnapshot.
const (
	dcReadCalls = iota
	dcWriteCalls
	dcSyncCalls
	dcReadSectors
	dcWriteSectors
	dcReadBytes
	dcWriteBytes
	numDevCounters
)

// devCounters is what the counting wrappers of one volume add up; the
// counts are exact.
type devCounters [numDevCounters]atomic.Int64

// devSnapshot is a point-in-time copy of devCounters.
type devSnapshot [numDevCounters]int64

func (c *devCounters) snapshot() (s devSnapshot) {
	for i := range c {
		s[i] = c[i].Load()
	}
	return s
}

func (a devSnapshot) sub(b devSnapshot) devSnapshot {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a devSnapshot) add(b devSnapshot) devSnapshot {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// countDev is the benchmark's device wrapper: it sits directly on the
// backend (MemDevice, FileDevice, NetDevice) under everything the store
// or cluster layers stack on top, counts calls, sectors and bytes, and —
// when a recorder is on — records one span per call. It hands the
// caller's buffers to the backend untouched, so the zero-copy contiguous
// path (ScratchFlats stays 0) is preserved; the embedded FaultDevice
// forwards geometry, Close and the fault plane, and Sync forwards the
// optional Syncer capability.
type countDev struct {
	store.FaultDevice
	c   *devCounters
	rec *recorder
}

var _ store.Syncer = (*countDev)(nil)

func newCountDev(inner store.FaultDevice, c *devCounters, rec *recorder) *countDev {
	return &countDev{FaultDevice: inner, c: c, rec: rec}
}

func (d *countDev) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	d.c[dcReadCalls].Add(1)
	d.c[dcReadSectors].Add(int64(len(bufs)))
	d.c[dcReadBytes].Add(int64(len(bufs) * d.SectorSize()))
	if !d.rec.enabled() {
		return d.FaultDevice.ReadSectors(ctx, start, bufs)
	}
	t0 := d.rec.now()
	err := d.FaultDevice.ReadSectors(ctx, start, bufs)
	d.rec.device(spDevRead, t0, d.rec.now())
	return err
}

func (d *countDev) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	d.c[dcWriteCalls].Add(1)
	d.c[dcWriteSectors].Add(int64(len(data)))
	d.c[dcWriteBytes].Add(int64(len(data) * d.SectorSize()))
	if !d.rec.enabled() {
		return d.FaultDevice.WriteSectors(ctx, start, data)
	}
	t0 := d.rec.now()
	err := d.FaultDevice.WriteSectors(ctx, start, data)
	d.rec.device(spDevWrite, t0, d.rec.now())
	return err
}

// Sync forwards the durability barrier; a backend without one (MemDevice)
// syncs trivially and is not counted.
func (d *countDev) Sync(ctx context.Context) error {
	if _, ok := d.FaultDevice.(store.Syncer); !ok {
		return ctx.Err()
	}
	d.c[dcSyncCalls].Add(1)
	if !d.rec.enabled() {
		return store.SyncDevice(ctx, d.FaultDevice)
	}
	t0 := d.rec.now()
	err := store.SyncDevice(ctx, d.FaultDevice)
	d.rec.device(spDevSync, t0, d.rec.now())
	return err
}

// ScratchFlats forwards the backend's copy-elision fallback counter.
func (d *countDev) ScratchFlats() uint64 {
	if sf, ok := d.FaultDevice.(interface{ ScratchFlats() uint64 }); ok {
		return sf.ScratchFlats()
	}
	return 0
}
