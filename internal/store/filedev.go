package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"stair/internal/store/mem"
)

// FileDevice is a file-per-device backend: one flat file of
// sectors × sectorSize bytes, plus a JSON sidecar (<path>.faults)
// persisting failure metadata so injected faults survive across process
// boundaries (the cmd/stairstore CLI relies on this). Vectored calls
// land as one pread/pwrite per extent, not one per sector — and when
// the caller's buffer vector tiles one contiguous region (a stripe
// slab's per-device extent), the pread/pwrite targets it directly with
// no scratch flat at all.
type FileDevice struct {
	path       string
	f          *os.File
	sectors    int
	sectorSize int
	// zero is a shared, read-only all-zeros sector used to destroy the
	// payload of an injected bad sector — allocated once at open
	// instead of per injection.
	zero []byte
	// scratchFlats counts vectored calls that could not use the
	// zero-copy contiguous path and fell back to a scratch flat; the
	// copy-elision tests assert it stays zero for slab-backed extents.
	scratchFlats atomic.Uint64
	*faultState
}

type faultSidecar struct {
	Failed bool  `json:"failed"`
	Bad    []int `json:"bad,omitempty"`
}

// OpenFileDevice opens a file-backed device and loads its fault
// sidecar. An absent or empty file is created and sized; an existing
// image of any other size is refused, never resized — truncating it to
// a mistaken geometry would cut off the data and the integrity records
// alike.
func OpenFileDevice(path string, sectors, sectorSize int) (*FileDevice, error) {
	if sectors < 1 || sectorSize < 1 {
		return nil, fmt.Errorf("store: device geometry %d×%d must be positive", sectors, sectorSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	size := int64(sectors) * int64(sectorSize)
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	switch info.Size() {
	case size:
	case 0:
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, err
		}
	default:
		f.Close()
		return nil, fmt.Errorf("store: device image %s holds %d bytes, want %d×%d = %d",
			path, info.Size(), sectors, sectorSize, size)
	}
	d := &FileDevice{path: path, f: f, sectors: sectors, sectorSize: sectorSize,
		zero: make([]byte, sectorSize), faultState: newFaultState(sectors)}
	if err := d.loadSidecar(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

func (d *FileDevice) sidecarPath() string { return d.path + ".faults" }

// loadSidecar reads the fault sidecar. A leftover <sidecar>.tmp from a
// crash mid-save is removed unread — only the renamed-into-place file
// is ever trusted.
func (d *FileDevice) loadSidecar() error {
	os.Remove(d.sidecarPath() + ".tmp")
	raw, err := os.ReadFile(d.sidecarPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var sc faultSidecar
	if err := json.Unmarshal(raw, &sc); err != nil {
		return fmt.Errorf("store: fault sidecar %s: %w", d.sidecarPath(), err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = sc.Failed
	for _, idx := range sc.Bad {
		if idx >= 0 && idx < d.sectors && !d.bad[idx] {
			d.bad[idx] = true
			d.nbad++
		}
	}
	return nil
}

// saveSidecarLocked persists fault metadata atomically: write to a temp
// file, fsync it, then rename into place. The fsync matters — renaming
// an unsynced file can survive a crash as an empty or truncated
// sidecar, silently dropping fault state. With no faults present the
// sidecar is removed. Callers hold mu.
func (d *FileDevice) saveSidecarLocked() error {
	sc := faultSidecar{Failed: d.failed, Bad: d.badListLocked()}
	sort.Ints(sc.Bad)
	if !sc.Failed && len(sc.Bad) == 0 {
		err := os.Remove(d.sidecarPath())
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	raw, err := json.Marshal(sc)
	if err != nil {
		return err
	}
	tmp := d.sidecarPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, d.sidecarPath())
}

// Sectors returns the device capacity in sectors.
func (d *FileDevice) Sectors() int { return d.sectors }

// SectorSize returns the sector payload size.
func (d *FileDevice) SectorSize() int { return d.sectorSize }

// ReadSectors fills bufs from the backing file with one pread per run
// of present, readable sectors; holes and bad sectors are skipped, and
// the bad ones reported as SectorErrors. A run whose buffers tile one
// region — every run of a slab-backed extent — lands directly in the
// caller's memory; any other run goes through a pooled scratch flat.
func (d *FileDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := checkExtent(d.sectors, start, len(bufs)); err != nil {
		return err
	}
	if err := checkBufs(d.sectorSize, bufs, true); err != nil {
		return err
	}
	if len(bufs) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	staged := false
	for i := 0; i < len(bufs); {
		if bufs[i] == nil || d.bad[start+i] {
			i++
			continue
		}
		j := i + 1
		for j < len(bufs) && bufs[j] != nil && !d.bad[start+j] {
			j++
		}
		run, at := bufs[i:j], int64(start+i)*int64(d.sectorSize)
		var err error
		if flat, ok := flatSpan(run); ok {
			_, err = d.f.ReadAt(flat, at)
		} else {
			if !staged {
				staged = true
				d.scratchFlats.Add(1)
			}
			err = d.readScattered(run, at)
		}
		if err != nil {
			return err
		}
		i = j
	}
	if lost := d.lostLocked(start, bufs); len(lost) > 0 {
		return lost
	}
	return nil
}

// readScattered reads the sectors at byte offset at into bufs, which do
// not tile one region, through a pooled scratch flat. Callers hold mu.
func (d *FileDevice) readScattered(bufs [][]byte, at int64) error {
	scratch := mem.Acquire(len(bufs) * d.sectorSize)
	defer mem.Release(scratch)
	if _, err := d.f.ReadAt(scratch, at); err != nil {
		return err
	}
	for i, buf := range bufs {
		copy(buf, scratch[i*d.sectorSize:])
	}
	return nil
}

// WriteSectors stores data with one pwrite covering the whole extent,
// healing (and persisting the healing of) any bad sectors it covers.
// A contiguous buffer vector is written directly — no gather copy.
func (d *FileDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := checkExtent(d.sectors, start, len(data)); err != nil {
		return err
	}
	if err := checkBufs(d.sectorSize, data, false); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if flat, ok := flatSpan(data); ok {
		if _, err := d.f.WriteAt(flat, int64(start)*int64(d.sectorSize)); err != nil {
			return err
		}
	} else {
		d.scratchFlats.Add(1)
		scratch := mem.Acquire(len(data) * d.sectorSize)
		for i, buf := range data {
			copy(scratch[i*d.sectorSize:], buf)
		}
		_, err := d.f.WriteAt(scratch, int64(start)*int64(d.sectorSize))
		mem.Release(scratch)
		if err != nil {
			return err
		}
	}
	healed := false
	for i := range data {
		if d.healLocked(start + i) {
			healed = true
		}
	}
	if healed {
		return d.saveSidecarLocked()
	}
	return nil
}

// zeroFileLocked rewrites the backing file as all zeros. Callers hold mu.
func (d *FileDevice) zeroFileLocked() error {
	if err := d.f.Truncate(0); err != nil {
		return err
	}
	return d.f.Truncate(int64(d.sectors) * int64(d.sectorSize))
}

// Fail marks the device wholly failed — durably, before destroying the
// payload, so a crash in between cannot leave a zeroed device that
// looks healthy on the next open.
func (d *FileDevice) Fail() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	wasFailed := d.failed
	d.failed = true
	if err := d.saveSidecarLocked(); err != nil {
		d.failed = wasFailed
		return err
	}
	return d.zeroFileLocked()
}

// Failed reports whole-device failure.
func (d *FileDevice) Failed() bool { return d.isFailed() }

// Replace swaps in a fresh zeroed file; every sector starts bad. The
// all-bad mark is persisted before the old payload is destroyed.
func (d *FileDevice) Replace() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.replaceLocked()
	if err := d.saveSidecarLocked(); err != nil {
		return err
	}
	return d.zeroFileLocked()
}

// InjectSectorError marks one sector lost — durably, before zeroing its
// payload.
func (d *FileDevice) InjectSectorError(idx int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.injectLocked(idx); err != nil {
		return err
	}
	if err := d.saveSidecarLocked(); err != nil {
		return err
	}
	_, err := d.f.WriteAt(d.zero, int64(idx)*int64(d.sectorSize))
	return err
}

// ScratchFlats reports how many vectored calls fell back to an
// intermediate scratch flat instead of the zero-copy contiguous path —
// an observability hook for the copy-elision tests and benchmarks.
func (d *FileDevice) ScratchFlats() uint64 { return d.scratchFlats.Load() }

// CorruptSector flips one payload bit of a sector on disk WITHOUT
// marking it bad or touching the fault sidecar — silent corruption:
// reads keep succeeding and serve the rotten bytes (the Corrupter
// capability).
func (d *FileDevice) CorruptSector(idx int) error {
	if err := checkExtent(d.sectors, idx, 1); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	var b [1]byte
	off := int64(idx) * int64(d.sectorSize)
	if _, err := d.f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0x01
	_, err := d.f.WriteAt(b[:], off)
	return err
}

// BadSectors returns the latent-sector-error count.
func (d *FileDevice) BadSectors() int { return d.badCount() }

// Sync fsyncs the backing file, making every acknowledged write durable
// — the FileDevice half of the store's Sync durability barrier. A
// wholly failed device answers ErrDeviceFailed, as its reads and writes
// do: it holds nothing to make durable.
func (d *FileDevice) Sync(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	return d.f.Sync()
}

// Close closes the backing file.
func (d *FileDevice) Close() error { return d.f.Close() }
