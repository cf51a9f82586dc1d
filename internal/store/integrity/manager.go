package integrity

import (
	"context"
	"fmt"
	"sync"
)

// Verdict is the outcome of verifying one sector against its record.
type Verdict int

const (
	// OK: a valid record exists and the payload matches it.
	OK Verdict = iota
	// Mismatch: a valid record exists and the payload does NOT match —
	// the sector is silently corrupt (or misdirected, or stale) and
	// should be treated as a located erasure.
	Mismatch
	// Absent: no valid record covers the sector (never written, or the
	// sidecar itself is torn/rotted). The sector is unverifiable; read
	// paths treat it as OK and the scrubber refreshes the record.
	Absent
)

// Manager holds the in-memory image of every device's sidecar region
// and mediates verify/update/flush. The whole region is small — 16
// bytes per data sector, 1/256th of the data at 4 KiB sectors — so it
// is cached in full and written back in covering sector ranges
// through the same vectored WriteSectors path as data.
type Manager struct {
	cols        int
	dataSectors int
	sectorSize  int
	perSector   int
	metaSectors int
	epoch       uint32

	// regions[col] is the col's full sidecar image, metaSectors*
	// sectorSize bytes. mu[col] guards it for concurrent record
	// read/write; flushMu[col] serialises snapshot+device-write so two
	// stripe flushes sharing a meta sector converge (the later write's
	// snapshot, taken under the flush lock, includes the earlier
	// flush's staged records).
	regions [][]byte
	mu      []sync.RWMutex
	flushMu []sync.Mutex
	// flushVec[col] is FlushRange's reusable buffer vector, guarded by
	// flushMu[col]; snaps are its spare snapshots, the latest last.
	flushVec [][][]byte
	snapMu   sync.Mutex
	snaps    [][]byte

	// states/sums[col] cache each sector's record pre-decoded, so the
	// read path's Verify is a flag check plus a digest compare instead
	// of re-parsing (and re-self-checksumming) the 16-byte record on
	// every sector read. The byte image in regions stays the flush
	// source of truth; the cache is rebuilt on InstallRegion and kept
	// in step by stageLocked, both under mu[col].
	states [][]byte // one of stateAbsent/stateStale/stateValid
	sums   [][]uint32
}

// Pre-decoded record states. A structurally valid record carrying a
// different epoch is a claim about some other volume incarnation: it
// must read as Mismatch (the sector cannot be vouched for), never as
// Absent, so it gets its own state.
const (
	stateAbsent = iota // no valid record (never written, or sidecar rot)
	stateStale         // valid record, wrong epoch
	stateValid         // valid record for this epoch; sums holds the digest
)

// NewManager builds a manager for cols devices of dataSectors data
// sectors each. epoch is salted into every digest; bump it when the
// volume's logical identity changes.
func NewManager(cols, dataSectors, sectorSize int, epoch uint32) (*Manager, error) {
	if sectorSize < RecordSize || sectorSize%RecordSize != 0 {
		return nil, fmt.Errorf("integrity: sector size %d is not a multiple of the %d-byte record", sectorSize, RecordSize)
	}
	m := &Manager{
		cols:        cols,
		dataSectors: dataSectors,
		sectorSize:  sectorSize,
		perSector:   sectorSize / RecordSize,
		metaSectors: MetaSectors(dataSectors, sectorSize),
		epoch:       epoch,
		regions:     make([][]byte, cols),
		mu:          make([]sync.RWMutex, cols),
		flushMu:     make([]sync.Mutex, cols),
		flushVec:    make([][][]byte, cols),
	}
	m.states = make([][]byte, cols)
	m.sums = make([][]uint32, cols)
	for col := range m.regions {
		m.regions[col] = make([]byte, m.metaSectors*sectorSize)
		m.states[col] = make([]byte, dataSectors)
		m.sums[col] = make([]uint32, dataSectors)
	}
	return m, nil
}

// MetaSectors is the sidecar region's size in sectors (per device).
func (m *Manager) MetaSectors() int { return m.metaSectors }

// Epoch is the volume epoch salted into every digest.
func (m *Manager) Epoch() uint32 { return m.epoch }

// InstallRegion replaces col's cached sidecar image with raw, as read
// from the device at open. nil (or short) raw zero-fills the
// remainder: unreadable sidecar sectors decode as Absent, never as a
// false claim.
func (m *Manager) InstallRegion(col int, raw []byte) {
	m.mu[col].Lock()
	defer m.mu[col].Unlock()
	region := m.regions[col]
	n := copy(region, raw)
	for i := n; i < len(region); i++ {
		region[i] = 0
	}
	// Decode every record once, up front: per-sector reads then verify
	// against the cache without re-parsing. One pass of 12-byte CRCs
	// per mount is noise next to reading the region off the device.
	for sector := 0; sector < m.dataSectors; sector++ {
		m.recacheLocked(col, sector)
	}
}

// recacheLocked re-decodes col/sector's record from the region image
// into the pre-decoded cache. Caller holds mu[col].
func (m *Manager) recacheLocked(col, sector int) {
	off := m.offset(sector)
	rec, ok := Decode(m.regions[col][off : off+RecordSize])
	switch {
	case !ok:
		m.states[col][sector] = stateAbsent
	case rec.Epoch != m.epoch:
		m.states[col][sector] = stateStale
	default:
		m.states[col][sector] = stateValid
		m.sums[col][sector] = rec.Sum
	}
}

// offset returns the byte offset of sector's record within col's
// region.
func (m *Manager) offset(sector int) int {
	return (sector/m.perSector)*m.sectorSize + (sector%m.perSector)*RecordSize
}

// Verify checks data against col/sector's cached record.
func (m *Manager) Verify(col, sector int, data []byte) Verdict {
	m.mu[col].RLock()
	state := m.states[col][sector]
	sum := m.sums[col][sector]
	m.mu[col].RUnlock()
	return m.verdict(state, sum, col, sector, data)
}

// verdict judges data against a record's pre-decoded state and digest.
func (m *Manager) verdict(state byte, sum uint32, col, sector int, data []byte) Verdict {
	switch state {
	case stateAbsent:
		return Absent
	case stateStale:
		return Mismatch
	}
	if sum != Sum(m.epoch, col, sector, data) {
		return Mismatch
	}
	return OK
}

// SpanVerifier is the span form of Verify: it verifies sectors of one
// column — a vectored read's run — under one hold of the column's record
// lock instead of one per sector. The lock is a read lock, so span
// verifiers of one column run side by side; a writer staging records on
// the column waits for the span's digests, at most one vectored read's
// sectors. Get one from VerifySpan and call Done when the span is checked.
type SpanVerifier struct {
	m   *Manager
	col int
}

// VerifySpan takes col's record lock for reading and returns the span
// verifier holding it.
func (m *Manager) VerifySpan(col int) SpanVerifier {
	m.mu[col].RLock()
	return SpanVerifier{m, col}
}

// Verify is Manager.Verify for a sector of the span's column.
func (v SpanVerifier) Verify(sector int, data []byte) Verdict {
	m := v.m
	return m.verdict(m.states[v.col][sector], m.sums[v.col][sector], v.col, sector, data)
}

// Done releases the column's record lock.
func (v SpanVerifier) Done() { v.m.mu[v.col].RUnlock() }

// spanChunk bounds how many sectors UpdateSpan digests per hold of the
// column lock: its digest scratch is a fixed-size stack array, so a span
// allocates nothing. Stripe spans are at most r rows, within it in
// practice.
const spanChunk = 64

// UpdateSpan is Update for sectors start, start+1, … of col, skipping a
// nil bufs[i]: the payloads are digested first, then the span's records
// are staged under one hold of the column lock. known, when non-nil,
// holds the payloads' digests already computed, aligned with bufs.
func (m *Manager) UpdateSpan(col, start int, bufs [][]byte, known []uint32) {
	var sums [spanChunk]uint32
	for base := 0; base < len(bufs); base += spanChunk {
		part := bufs[base:min(base+spanChunk, len(bufs))]
		lo := start + base
		for i, data := range part {
			if data != nil && known != nil {
				sums[i] = known[base+i]
			} else if data != nil {
				sums[i] = Sum(m.epoch, col, lo+i, data)
			}
		}
		m.mu[col].Lock()
		for i, data := range part {
			if data != nil {
				m.stageLocked(col, lo+i, sums[i])
			}
		}
		m.mu[col].Unlock()
	}
}

// Has reports whether a valid record covers col/sector.
func (m *Manager) Has(col, sector int) bool {
	m.mu[col].RLock()
	state := m.states[col][sector]
	m.mu[col].RUnlock()
	return state != stateAbsent
}

// Update stages a fresh record for col/sector covering data. The
// record lives in the cached region until a FlushRange writes the
// covering sidecar sectors back to the device.
func (m *Manager) Update(col, sector int, data []byte) {
	sum := Sum(m.epoch, col, sector, data)
	m.mu[col].Lock()
	m.stageLocked(col, sector, sum)
	m.mu[col].Unlock()
}

// stageLocked writes col/sector's record for sum into the region image
// and the pre-decoded cache. Caller holds mu[col] for writing.
func (m *Manager) stageLocked(col, sector int, sum uint32) {
	off := m.offset(sector)
	Encode(m.regions[col][off:off+RecordSize], Record{Epoch: m.epoch, Sum: sum})
	m.states[col][sector] = stateValid
	m.sums[col][sector] = sum
}

// FlushRange writes back the sidecar sectors covering data sectors
// [start, start+count) of col. write receives the device-relative
// meta sector index range start (the caller adds the data-region
// size) and a snapshot of the covering region bytes; it performs the
// actual vectored device write. The per-col flush lock guarantees
// that when two flushes race on a shared meta sector, each write's
// snapshot includes everything staged before it — the last writer
// persists a superset. The snapshot is recycled and bufs is reused by the
// next flush of col: write must not retain either past its return —
// unless it returns with ctx cancelled, in which case both are dropped
// to the GC for whatever abandoned operation may still hold them.
func (m *Manager) FlushRange(ctx context.Context, col, start, count int, write func(ctx context.Context, metaStart int, bufs [][]byte) error) error {
	if count <= 0 {
		return nil
	}
	first := start / m.perSector
	last := (start + count - 1) / m.perSector
	n := last - first + 1

	m.flushMu[col].Lock()
	defer m.flushMu[col].Unlock()

	var snap []byte
	m.snapMu.Lock()
	if k := len(m.snaps) - 1; k >= 0 && cap(m.snaps[k]) >= n*m.sectorSize {
		snap, m.snaps = m.snaps[k][:n*m.sectorSize], m.snaps[:k]
	}
	m.snapMu.Unlock()
	if snap == nil {
		snap = make([]byte, n*m.sectorSize)
	}
	m.mu[col].RLock()
	copy(snap, m.regions[col][first*m.sectorSize:(last+1)*m.sectorSize])
	m.mu[col].RUnlock()

	if cap(m.flushVec[col]) < n {
		m.flushVec[col] = make([][]byte, n)
	}
	bufs := m.flushVec[col][:n]
	for i := range bufs {
		bufs[i] = snap[i*m.sectorSize : (i+1)*m.sectorSize]
	}
	err := write(ctx, first, bufs)
	if ctx.Err() != nil {
		m.flushVec[col] = nil
		return err
	}
	m.snapMu.Lock()
	m.snaps = append(m.snaps, snap)
	m.snapMu.Unlock()
	return err
}
