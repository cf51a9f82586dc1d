package store

import (
	"context"
	"fmt"

	"stair/internal/core"
	"stair/internal/store/integrity"
)

// This file is the store side of the end-to-end checksum layer: sidecar
// region load at Open, record staging on every sector write (see
// writeStripeCells in flush.go), and the covering write-back that
// persists staged records through the same vectored WriteSectors path
// as data.

// loadIntegrityRegions reads every device's sidecar region into the
// integrity manager at Open. Unreadable sidecar sectors (or a wholly
// unreadable device) install as zeroes: their records decode as
// Absent, so a lost sidecar can never fail good data — the scrubber
// re-writes fresh records as it verifies stripes.
func (s *Store) loadIntegrityRegions(ctx context.Context) {
	ms := s.integ.MetaSectors()
	for col := 0; col < s.n; col++ {
		raw := make([]byte, ms*s.sectorSize)
		bufs := make([][]byte, ms)
		for i := range bufs {
			bufs[i] = raw[i*s.sectorSize : (i+1)*s.sectorSize]
		}
		if err := s.devs[col].ReadSectors(ctx, s.dataSectors, bufs); err != nil {
			if se, ok := AsSectorErrors(err); ok {
				for _, e := range se {
					if idx := e.Index - s.dataSectors; idx >= 0 && idx < ms {
						clear(bufs[idx])
					}
				}
			} else {
				clear(raw)
			}
		}
		s.integ.InstallRegion(col, raw)
	}
}

// stageRecords stages fresh checksum records for a just-written run of
// one column's cells, one per non-nil entry of bufs, under one hold of
// the column's record lock; sums, when non-nil, holds the digests by
// chunk-major cell index (see writeStripeCells). No-op when the
// integrity layer is off.
func (s *Store) stageRecords(stripe int, run []core.Cell, bufs [][]byte, sums []uint32) {
	if s.integ == nil {
		return
	}
	if sums != nil {
		at := s.cellIdx(run[0])
		sums = sums[at : at+len(run)]
	}
	s.integ.UpdateSpan(run[0].Col, s.devSector(stripe, run[0].Row), bufs, sums)
}

// digest is a cell's salted CRC32C as its sidecar record holds it, with
// epoch 0 when the integrity layer is off: the digest a journal intent
// carries.
func (s *Store) digest(stripe int, cell core.Cell, data []byte) uint32 {
	var epoch uint32
	if s.integ != nil {
		epoch = s.integ.Epoch()
	}
	return integrity.Sum(epoch, cell.Col, s.devSector(stripe, cell.Row), data)
}

// flushStripeMeta persists the staged records covering one stripe's
// rows on the given columns — one vectored sidecar write per column, the
// columns' writes one wave (see wave.go). Device write errors other than
// context cancellation are swallowed: a wholly failed device answers
// ErrDeviceFailed, and its records refresh on rebuild like its data; on a
// live device a record that failed to land simply stays stale on disk and
// resolves as a located mismatch → repair on a later verified read, which
// is strictly safer than failing the caller's flush over sidecar bytes.
func (s *Store) flushStripeMeta(ctx context.Context, stripe int, cols []int) error {
	if s.integ == nil {
		return nil
	}
	sh, start := s.shard(stripe), s.devSector(stripe, 0)
	var err error
	for _, col := range cols {
		if s.remote[col] {
			s.issue(ctx, sh, callMeta, col, start, nil)
		} else if s.flushColumnMeta(ctx, col, start) != nil && ctx.Err() != nil {
			err = ctx.Err()
			break
		}
	}
	for _, c := range s.finishWave(sh) {
		if c.err != nil && err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// flushColumnMeta persists col's records of the stripe starting at start.
func (s *Store) flushColumnMeta(ctx context.Context, col, start int) error {
	dev := s.devs[col]
	return s.integ.FlushRange(ctx, col, start, s.r, func(ctx context.Context, metaStart int, bufs [][]byte) error {
		return dev.WriteSectors(ctx, s.dataSectors+metaStart, bufs)
	})
}

// appendCols appends to dst the distinct columns of a cell set sorted by
// (Col, Row), ascending.
func appendCols(dst []int, cells []core.Cell) []int {
	for i, c := range cells {
		if i == 0 || c.Col != cells[i-1].Col {
			dst = append(dst, c.Col)
		}
	}
	return dst
}

// IntegrityEnabled reports whether the checksum layer is on.
func (s *Store) IntegrityEnabled() bool { return s.integ != nil }

// Corrupter is the optional device capability behind silent-corruption
// injection: flip payload bits *without* registering a fault, so the
// device keeps serving the rotten bytes as if they were fine — the
// failure mode drive ECC misses and only an end-to-end checksum
// catches.
type Corrupter interface {
	CorruptSector(idx int) error
}

// CorruptSectorSilently flips one bit of a device sector's payload
// without marking the sector bad (fault injection for the silent-
// corruption threat model). Silence is the point: no layer is told, and
// only a checksum verification on a later read or scrub finds it.
func (s *Store) CorruptSectorSilently(dev, sector int) error {
	if dev < 0 || dev >= len(s.devs) {
		return fmt.Errorf("store: device %d out of range [0,%d)", dev, len(s.devs))
	}
	c, ok := s.devs[dev].(Corrupter)
	if !ok {
		return fmt.Errorf("store: device %d (%T) does not support silent corruption", dev, s.devs[dev])
	}
	return c.CorruptSector(sector)
}
