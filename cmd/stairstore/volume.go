package main

import (
	"encoding/json"
	"fmt"
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
	// RepairWorkers and FlushWorkers mirror the store.Config fields of
	// the same names. (The retired "degraded_cache" and "lock_shards"
	// keys, left by older descriptors, are ignored.)
	RepairWorkers int `json:"repair_workers,omitempty"`
	FlushWorkers  int `json:"flush_workers,omitempty"`
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
	code, err := core.New(core.Config{N: meta.N, R: meta.R, M: meta.M, E: meta.E})
	if err != nil {
		return nil, nil, err
	}
	j, err := journal.Open(journalPath(dir))
	if err != nil {
		return nil, nil, err
	}
	devSectors := meta.Stripes * meta.R
	var iopts *store.IntegrityOptions
	if meta.Integrity {
		devSectors += store.IntegrityMetaSectors(meta.Stripes, meta.R, meta.SectorSize)
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
		FlushWorkers:  meta.FlushWorkers,
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

// closeVolume closes the store (draining its flush pipeline and
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
