package cluster

import (
	"context"
	"errors"
	"sync"

	"stair/internal/store"
)

// column is one stripe column's swappable backend: the device the
// store talks to, the server it currently lives on, and the dead flag
// the failure detector flips. A dead column fails every data operation
// fast with store.ErrDeviceFailed — the same answer a locally failed
// device gives — so the store's degraded-read path takes over without
// burning a transport timeout per request. Failover swaps a freshly
// dialled spare in with adopt, and store.ReplaceDevice revives the column
// once the spare's sectors are marked lost; RebuildDevice then runs its
// usual course.
//
// column implements store.FaultDevice and store.Syncer; fault-plane
// calls forward to the current device (over the wire for NetDevice).
type column struct {
	idx int
	// onSuspect reports a transport-level error on live I/O to the
	// failure detector. Typed results — SectorErrors, ErrDeviceFailed —
	// are device states, not transport blips, and are not reported.
	onSuspect func(col int, err error)

	mu     sync.RWMutex
	dev    store.Device
	server Server
	dead   bool

	sectors    int
	sectorSize int
}

func newColumn(idx int, server Server, dev store.Device) *column {
	return &column{
		idx:        idx,
		dev:        dev,
		server:     server,
		sectors:    dev.Sectors(),
		sectorSize: dev.SectorSize(),
	}
}

// snapshot returns the current device, or ErrDeviceFailed when dead or
// closed: a hedged read's primary can reach its column after the volume
// closed.
func (c *column) snapshot() (store.Device, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.dead || c.dev == nil {
		return nil, store.ErrDeviceFailed
	}
	return c.dev, nil
}

// markDead flips the column to fast-failing degraded state and drops
// the dead transport. In-flight calls holding the old device surface
// their own transport errors; new calls never touch the network.
func (c *column) markDead() {
	c.mu.Lock()
	dev := c.dev
	c.dead = true
	c.dev = nil
	c.mu.Unlock()
	if dev != nil {
		dev.Close()
	}
}

// adopt swaps in a freshly dialled replacement. The column stays dead
// until Replace: a read must not take the spare's blank sectors for data.
func (c *column) adopt(dev store.Device, server Server) {
	c.mu.Lock()
	old := c.dev
	c.dev = dev
	c.server = server
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// state reports the column's current endpoint and liveness.
func (c *column) state() (Server, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.server, !c.dead
}

// observe classifies an I/O error: anything that is not a typed device
// answer (partial-loss SectorErrors, ErrDeviceFailed) and not the
// caller's own cancellation looks like transport trouble and is
// reported to the failure detector.
func (c *column) observe(ctx context.Context, err error) {
	if err == nil || c.onSuspect == nil {
		return
	}
	if _, ok := store.AsSectorErrors(err); ok {
		return
	}
	if errors.Is(err, store.ErrDeviceFailed) || ctx.Err() != nil {
		return
	}
	c.onSuspect(c.idx, err)
}

// Sectors returns the column's capacity (stable across swaps: every
// fleet member serves the same geometry).
func (c *column) Sectors() int { return c.sectors }

// SectorSize returns the column's sector size.
func (c *column) SectorSize() int { return c.sectorSize }

// ReadSectors forwards the vectored read to the current device.
func (c *column) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	dev, err := c.snapshot()
	if err != nil {
		return err
	}
	err = dev.ReadSectors(ctx, start, bufs)
	c.observe(ctx, err)
	return err
}

// WriteSectors forwards the vectored write to the current device.
func (c *column) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	dev, err := c.snapshot()
	if err != nil {
		return err
	}
	err = dev.WriteSectors(ctx, start, data)
	c.observe(ctx, err)
	return err
}

// Sync forwards the durability barrier. A dead column answers
// ErrDeviceFailed without touching the transport, as its reads and
// writes do, and the store's barrier skips it on that answer.
func (c *column) Sync(ctx context.Context) error {
	dev, err := c.snapshot()
	if err != nil {
		return err
	}
	err = store.SyncDevice(ctx, dev)
	c.observe(ctx, err)
	return err
}

// Close closes the current device.
func (c *column) Close() error {
	c.mu.Lock()
	dev := c.dev
	c.dev = nil
	c.mu.Unlock()
	if dev == nil {
		return nil
	}
	return dev.Close()
}

// faultDev returns the current device's fault plane: a dead column's
// too, once failover has adopted a spare (see Replace).
func (c *column) faultDev() (store.FaultDevice, error) {
	c.mu.RLock()
	dev := c.dev
	c.mu.RUnlock()
	if dev == nil {
		return nil, store.ErrDeviceFailed
	}
	if fd, ok := dev.(store.FaultDevice); ok {
		return fd, nil
	}
	return nil, errors.New("cluster: column device does not support fault injection")
}

// Fail forwards to the current device's fault plane.
func (c *column) Fail() error {
	fd, err := c.faultDev()
	if err != nil {
		return err
	}
	return fd.Fail()
}

// Failed reports whether the column is dead or its device has failed.
func (c *column) Failed() bool {
	dev, err := c.snapshot()
	if err != nil {
		return true // dead column
	}
	if fd, ok := dev.(store.FaultDevice); ok {
		return fd.Failed()
	}
	return false
}

// Replace forwards to the current device's fault plane and then revives
// the column. After a failover swap the device is the fresh spare, which
// so goes live with every sector marked lost (the store's
// replace-comes-back-bad semantics).
func (c *column) Replace() error {
	fd, err := c.faultDev()
	if err != nil {
		return err
	}
	if err := fd.Replace(); err != nil {
		return err
	}
	c.mu.Lock()
	c.dead = c.dev == nil
	c.mu.Unlock()
	return nil
}

// InjectSectorError forwards to the current device's fault plane.
func (c *column) InjectSectorError(idx int) error {
	fd, err := c.faultDev()
	if err != nil {
		return err
	}
	return fd.InjectSectorError(idx)
}

// BadSectors reports the current device's latent-error count (zero
// when the column is dead: there is no device to ask).
func (c *column) BadSectors() int {
	fd, err := c.faultDev()
	if err != nil {
		return 0
	}
	return fd.BadSectors()
}
