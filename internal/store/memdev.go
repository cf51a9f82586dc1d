package store

import "context"

// MemDevice is an in-memory Device with fault injection, the default
// backend for tests, benchmarks and the simulator adapters.
type MemDevice struct {
	sectors    int
	sectorSize int
	data       []byte
	*faultState
}

// NewMemDevice allocates a zeroed in-memory device.
func NewMemDevice(sectors, sectorSize int) *MemDevice {
	return &MemDevice{
		sectors:    sectors,
		sectorSize: sectorSize,
		data:       make([]byte, sectors*sectorSize),
		faultState: newFaultState(sectors),
	}
}

// Sectors returns the device capacity in sectors.
func (d *MemDevice) Sectors() int { return d.sectors }

// SectorSize returns the sector payload size.
func (d *MemDevice) SectorSize() int { return d.sectorSize }

// ReadSectors fills bufs with the extent starting at start, holes
// skipped. Bad sectors are reported as SectorErrors while the readable
// ones are still copied out.
func (d *MemDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := checkExtent(d.sectors, start, len(bufs)); err != nil {
		return err
	}
	if err := checkBufs(d.sectorSize, bufs, true); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	lost := d.lostLocked(start, bufs)
	if flat, ok := flatSpan(bufs); ok && len(lost) == 0 {
		// Single memmove for a contiguous destination over a wholly
		// good extent (lost buffers must stay untouched).
		copy(flat, d.data[start*d.sectorSize:])
		return nil
	}
	for i, buf := range bufs {
		idx := start + i
		if buf == nil || d.bad[idx] {
			continue
		}
		copy(buf, d.data[idx*d.sectorSize:(idx+1)*d.sectorSize])
	}
	if len(lost) > 0 {
		return lost
	}
	return nil
}

// WriteSectors stores data at the extent starting at start, healing any
// bad sectors it covers.
func (d *MemDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := checkExtent(d.sectors, start, len(data)); err != nil {
		return err
	}
	if err := checkBufs(d.sectorSize, data, false); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if flat, ok := flatSpan(data); ok {
		copy(d.data[start*d.sectorSize:], flat)
		for i := range data {
			d.healLocked(start + i)
		}
		return nil
	}
	for i, buf := range data {
		idx := start + i
		d.healLocked(idx)
		copy(d.data[idx*d.sectorSize:], buf)
	}
	return nil
}

// Fail marks the device wholly failed and destroys its contents.
func (d *MemDevice) Fail() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
	for i := range d.data {
		d.data[i] = 0
	}
	return nil
}

// Failed reports whole-device failure.
func (d *MemDevice) Failed() bool { return d.isFailed() }

// Replace swaps in a fresh zeroed device; every sector starts bad.
func (d *MemDevice) Replace() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.replaceLocked()
	for i := range d.data {
		d.data[i] = 0
	}
	return nil
}

// InjectSectorError marks one sector lost and zeroes its payload.
func (d *MemDevice) InjectSectorError(idx int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.injectLocked(idx); err != nil {
		return err
	}
	for i := idx * d.sectorSize; i < (idx+1)*d.sectorSize; i++ {
		d.data[i] = 0
	}
	return nil
}

// CorruptSector flips one payload bit of a sector WITHOUT marking it
// bad — silent corruption: reads keep succeeding and serve the rotten
// bytes (the Corrupter capability).
func (d *MemDevice) CorruptSector(idx int) error {
	if err := checkExtent(d.sectors, idx, 1); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	d.data[idx*d.sectorSize] ^= 0x01
	return nil
}

// BadSectors returns the latent-sector-error count.
func (d *MemDevice) BadSectors() int { return d.badCount() }

// Close is a no-op for the in-memory backend.
func (d *MemDevice) Close() error { return nil }
