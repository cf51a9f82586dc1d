package store

import (
	"context"
	"fmt"
)

// Forwarder is the pass-through part of a Device wrapper, meant to be
// embedded: geometry, Close, the Sync durability barrier and the
// FaultDevice hooks all go to Inner, so a wrapper (LatencyDevice,
// scenario.FlakyDevice) writes only ReadSectors and WriteSectors plus
// whatever it changes, and stays transparent to fault injection
// whenever Inner supports it.
type Forwarder struct {
	Inner Device
}

// Sectors returns the wrapped device's capacity.
func (w Forwarder) Sectors() int { return w.Inner.Sectors() }

// SectorSize returns the wrapped device's sector size.
func (w Forwarder) SectorSize() int { return w.Inner.SectorSize() }

// Close closes the wrapped device.
func (w Forwarder) Close() error { return w.Inner.Close() }

// Sync forwards the durability barrier to the wrapped device (a no-op
// when it has no Syncer capability).
func (w Forwarder) Sync(ctx context.Context) error { return SyncDevice(ctx, w.Inner) }

func (w Forwarder) faultInner() (FaultDevice, error) {
	if fd, ok := w.Inner.(FaultDevice); ok {
		return fd, nil
	}
	return nil, fmt.Errorf("store: wrapped device %T does not support fault injection", w.Inner)
}

// Fail forwards to the wrapped device's Fail.
func (w Forwarder) Fail() error {
	fd, err := w.faultInner()
	if err != nil {
		return err
	}
	return fd.Fail()
}

// Failed reports the wrapped device's failure state (false when the
// wrapped device has no fault support).
func (w Forwarder) Failed() bool {
	fd, err := w.faultInner()
	if err != nil {
		return false
	}
	return fd.Failed()
}

// Replace forwards to the wrapped device's Replace.
func (w Forwarder) Replace() error {
	fd, err := w.faultInner()
	if err != nil {
		return err
	}
	return fd.Replace()
}

// InjectSectorError forwards to the wrapped device's InjectSectorError.
func (w Forwarder) InjectSectorError(idx int) error {
	fd, err := w.faultInner()
	if err != nil {
		return err
	}
	return fd.InjectSectorError(idx)
}

// BadSectors reports the wrapped device's latent-sector-error count
// (zero when the wrapped device has no fault support).
func (w Forwarder) BadSectors() int {
	fd, err := w.faultInner()
	if err != nil {
		return 0
	}
	return fd.BadSectors()
}
