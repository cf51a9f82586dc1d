package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"stair/internal/core"
	"stair/internal/store"
	"stair/internal/store/journal"
)

// volumeMeta is the on-disk volume descriptor (dir/volume.json):
// geometry, concurrency tuning, plus stats accumulated across process
// lifetimes. The tuning fields are optional (0 picks the store's
// defaults), so descriptors written before they existed keep working.
type volumeMeta struct {
	N          int   `json:"n"`
	R          int   `json:"r"`
	M          int   `json:"m"`
	E          []int `json:"e"`
	SectorSize int   `json:"sector_size"`
	Stripes    int   `json:"stripes"`
	// RepairWorkers mirrors the store.Config field of the same name.
	// (The retired "degraded_cache", "lock_shards" and "flush_workers"
	// keys, left by older descriptors, are ignored.)
	RepairWorkers int `json:"repair_workers,omitempty"`
	// Integrity turns on the end-to-end per-sector checksum layer; each
	// device image then carries a sidecar region of records past its
	// data sectors, and IntegrityEpoch is salted into every digest.
	// Absent on descriptors predating the layer — those volumes keep
	// opening without it.
	Integrity      bool        `json:"integrity,omitempty"`
	IntegrityEpoch uint32      `json:"integrity_epoch,omitempty"`
	Stats          store.Stats `json:"stats"`

	// journal is the open write-ahead intent log backing the mounted
	// store; closeVolume closes it after the store drains (runtime
	// state, not part of the descriptor).
	journal *journal.Journal
}

func loadMeta(dir string) (*volumeMeta, error) {
	raw, err := os.ReadFile(metaPath(dir))
	if err != nil {
		return nil, fmt.Errorf("no volume at %s (run 'stairstore create'): %w", dir, err)
	}
	var meta volumeMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("corrupt volume descriptor %s: %w", metaPath(dir), err)
	}
	return &meta, nil
}

// maxDevices and maxCells bound a stripe so that a damaged volume.json
// cannot make a mount compile a code for seconds; the paper's largest
// stripes (n = r = 32) fit, and compile in milliseconds.
const maxDevices, maxCells = 64, 1024

// geometry checks the descriptor's shape before anything touches a
// device file, and returns its code and the sectors each device image
// holds.
func (m *volumeMeta) geometry() (*core.Code, int, error) {
	if m.N < 1 || m.R < 1 || m.N > maxDevices || m.R > maxCells/m.N {
		return nil, 0, fmt.Errorf("geometry n=%d r=%d outside n ≤ %d, n·r ≤ %d", m.N, m.R, maxDevices, maxCells)
	}
	if m.Stripes < 1 || m.SectorSize < 1 {
		return nil, 0, fmt.Errorf("stripes=%d and sector_size=%d must be positive", m.Stripes, m.SectorSize)
	}
	code, err := core.New(core.Config{N: m.N, R: m.R, M: m.M, E: m.E})
	if err != nil {
		return nil, 0, err
	}
	if m.Stripes > math.MaxInt/m.R {
		return nil, 0, fmt.Errorf("stripes=%d × r=%d overflows", m.Stripes, m.R)
	}
	devSectors := m.Stripes * m.R
	if m.Integrity {
		devSectors += store.IntegrityMetaSectors(m.Stripes, m.R, m.SectorSize)
	}
	if devSectors < m.Stripes*m.R || int64(devSectors) > math.MaxInt64/int64(m.SectorSize) {
		return nil, 0, fmt.Errorf("device images of %d sectors of %d bytes overflow", devSectors, m.SectorSize)
	}
	return code, devSectors, nil
}

func (m *volumeMeta) save(dir string) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := metaPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, metaPath(dir))
}

// journalPath locates the volume's write-ahead intent log.
func journalPath(dir string) string { return filepath.Join(dir, "journal.wal") }

// openVolume opens the store over the volume's file devices, with the
// write-ahead journal mounted — store.Open replays any intents a crash
// left pending, so every mount recovers automatically (the `recover`
// command reports what a mount replayed).
func openVolume(dir string) (*store.Store, *volumeMeta, error) {
	meta, err := loadMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	code, devSectors, err := meta.geometry()
	if err != nil {
		return nil, nil, fmt.Errorf("volume descriptor %s: %w", metaPath(dir), err)
	}
	j, err := journal.Open(journalPath(dir))
	if err != nil {
		return nil, nil, err
	}
	var iopts *store.IntegrityOptions
	if meta.Integrity {
		iopts = &store.IntegrityOptions{Epoch: meta.IntegrityEpoch}
	}
	devs := make([]store.Device, meta.N)
	for i := range devs {
		d, err := store.OpenFileDevice(devicePath(dir, i), devSectors, meta.SectorSize)
		if err != nil {
			for _, prev := range devs[:i] {
				prev.Close()
			}
			j.Close()
			return nil, nil, err
		}
		devs[i] = d
	}
	s, err := store.Open(store.Config{
		Code:          code,
		SectorSize:    meta.SectorSize,
		Stripes:       meta.Stripes,
		Devices:       devs,
		RepairWorkers: meta.RepairWorkers,
		Journal:       j,
		Integrity:     iopts,
	})
	if err != nil {
		for _, d := range devs {
			d.Close()
		}
		j.Close()
		return nil, nil, err
	}
	meta.journal = j
	return s, meta, nil
}

// closeVolume closes the store (flushing its buffered stripes and
// committing outstanding intents), then the journal, and folds this
// invocation's counters into the persistent totals.
func closeVolume(dir string, s *store.Store, meta *volumeMeta) error {
	closeErr := s.Close()
	if meta.journal != nil {
		if err := meta.journal.Close(); err != nil && closeErr == nil {
			closeErr = err
		}
	}
	meta.Stats = meta.Stats.Add(s.Stats())
	if err := meta.save(dir); err != nil {
		return err
	}
	return closeErr
}
