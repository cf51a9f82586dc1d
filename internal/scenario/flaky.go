package scenario

import (
	"context"
	"errors"
	"sync"
	"time"

	"stair/internal/store"
)

// FlakyDevice wraps a device with a stall switch: while stalled, every
// liveness probe fails and every data call pays a fixed extra delay.
// That is the grey-failure shape the cluster's failure detector and
// hedged reads are designed around — the device is not dead (I/O still
// completes, slowly), but probes time out. It implements the cluster
// Pinger contract and, through the embedded store.Forwarder, passes
// geometry, Close and the fault plane to the wrapped device, so it can
// stand in for a fleet device under store- and cluster-level scenarios
// alike.
type FlakyDevice struct {
	store.Forwarder

	mu         sync.Mutex
	stallUntil time.Time
	perCall    time.Duration
}

// NewFlakyDevice wraps inner.
func NewFlakyDevice(inner store.Device) *FlakyDevice {
	return &FlakyDevice{Forwarder: store.Forwarder{Inner: inner}}
}

// StallFor makes the device stall for dur starting now: probes fail
// and each data call is delayed by perCall.
func (f *FlakyDevice) StallFor(dur, perCall time.Duration) {
	f.mu.Lock()
	f.stallUntil = time.Now().Add(dur)
	f.perCall = perCall
	f.mu.Unlock()
}

// stalled reports the current stall state and the per-call delay.
func (f *FlakyDevice) stalled() (bool, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if time.Now().Before(f.stallUntil) {
		return true, f.perCall
	}
	return false, 0
}

// Ping implements the cluster liveness probe: authoritative failure
// while stalled, healthy otherwise.
func (f *FlakyDevice) Ping(ctx context.Context) error {
	if s, _ := f.stalled(); s {
		return errors.New("scenario: device stalled")
	}
	return ctx.Err()
}

// pause charges the stall delay, honoring cancellation.
func (f *FlakyDevice) pause(ctx context.Context) error {
	s, d := f.stalled()
	if !s || d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ReadSectors pays the stall delay, then forwards.
func (f *FlakyDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if err := f.pause(ctx); err != nil {
		return err
	}
	return f.Inner.ReadSectors(ctx, start, bufs)
}

// WriteSectors pays the stall delay, then forwards.
func (f *FlakyDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if err := f.pause(ctx); err != nil {
		return err
	}
	return f.Inner.WriteSectors(ctx, start, data)
}

// Sync pays the stall delay, then forwards the durability barrier.
func (f *FlakyDevice) Sync(ctx context.Context) error {
	if err := f.pause(ctx); err != nil {
		return err
	}
	return f.Forwarder.Sync(ctx)
}
