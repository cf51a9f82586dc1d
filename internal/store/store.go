// Package store is a sector-addressed block store that maps a logical
// volume onto STAIR stripes over a pluggable device backend — the
// storage-system layer the paper's motivation describes (§1–2), built on
// the internal/core codec.
//
// The store owns the stripe lifecycle around the codec:
//
//   - the write path batches block writes in per-stripe buffers; a fully
//     dirty stripe is flushed through a full-stripe encode, while a
//     partially dirty stripe takes a read–modify–write using the §5.2
//     uneven parity relations, reading and rewriting only the changed
//     cells and the parity sectors that actually depend on them;
//   - the read path transparently serves degraded reads: when a device
//     is failed or a sector read errors, the lost cell is rebuilt on the
//     fly from the cells internal/core's read plan names (§4.2–4.3: n−m
//     of its own row while the row holds at most m losses), re-planned
//     when a read finds a further loss, and the stripe is queued for
//     background repair; with hedging on, a client read that outlives
//     its column's latency percentile is solved from its own row the
//     same way (hedge.go);
//   - a background scrubber sweeps stripes — optionally paced to a
//     stripes/sec budget — detects latent sector errors and feeds a
//     bounded repair queue drained by a pool of repair workers, which
//     write reconstructed sectors back to writable devices;
//   - the maintenance sweeps, Scrub and RebuildDevice, put GOMAXPROCS
//     stripes in flight at once, each under its own shard lock (see
//     sweep.go); a rebuild reads the replaced chunk first and loads the
//     rest of a stripe only when that chunk is not whole.
//
// Device I/O is vectored and context-aware: a load reads each column's
// run of the cells its plan needs in one ReadSectors call (a whole
// stripe, one per device), a write-back each run in one WriteSectors, so
// a remote backend pays one round trip per run, not per sector, and a
// caller's context deadline or cancellation aborts in-flight device waits
// instead of wedging the store. Public Store methods take a context too.
//
// Stripes are independent units of encoding and recovery, and the store
// exploits that: per-stripe state lives in a striped lock table
// (lockShard), so reads, writes, scrub steps and repairs on different
// stripes proceed concurrently rather than serialising on one mutex.
//
// Failure patterns outside the code's coverage surface as
// ErrUnrecoverable (and an UnrecoverableStripes counter) rather than
// corrupt data. Devices follow the fail-stop sector model the paper
// assumes: latent sector errors are detected (by drive-internal ECC) at
// access time, so scrubbing is a read sweep, not a checksum audit.
package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"stair/internal/core"
	"stair/internal/store/integrity"
	"stair/internal/store/journal"
	"stair/internal/store/mem"
)

// ErrUnrecoverable aliases the codec's error for failure patterns outside
// the configured coverage; store errors wrap it.
var ErrUnrecoverable = core.ErrUnrecoverable

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("store: closed")

// Config describes a Store.
type Config struct {
	// Code is the compiled STAIR code protecting every stripe. Only
	// Inside placement is supported: the store has no out-of-band
	// location for global parity sectors.
	Code *core.Code
	// SectorSize is the device sector (= logical block) size in bytes;
	// it must be a positive multiple of the code's symbol width.
	SectorSize int
	// Stripes is the number of stripes in the volume.
	Stripes int
	// Devices supplies the Code.N() backing devices, each with
	// Stripes×Code.R() sectors — the pluggable seam the cluster layer
	// (and any custom backend wiring: wrappers, remote dials) hooks
	// into. Nil falls back to in-memory devices.
	Devices []Device
	// Deprecated: has no effect; the codec runs one stripe per goroutine
	// — parallelism is FlushWorkers / RepairWorkers / LockShards, and
	// GOMAXPROCS stripes at once in RebuildDevice and Scrub. Kept until
	// bench/ stops setting it.
	Workers int
	// MaxDirtyStripes bounds the write buffer: exceeding it flushes the
	// fullest buffered stripe. 0 selects 8.
	MaxDirtyStripes int
	// RepairQueue bounds the background repair queue; requests beyond
	// it are dropped (and re-found by a later scrub pass). 0 selects 64.
	RepairQueue int
	// RepairWorkers sizes the pool draining the repair queue; workers
	// repair distinct stripes concurrently (each under its stripe's
	// shard lock). 0 selects 1.
	RepairWorkers int
	// LockShards sizes the striped lock table: stripes hash to shards,
	// and operations on stripes in different shards run in parallel.
	// 0 selects 32; the value is rounded up to a power of two.
	LockShards int
	// FlushWorkers sizes the asynchronous flush pipeline: with workers,
	// a filled or evicted stripe buffer is handed to a background pool
	// that encodes and writes it back while the writer keeps going, and
	// Flush becomes "drain the pipeline". 0 keeps the write path
	// synchronous (a filled buffer flushes inline, as before).
	FlushWorkers int
	// Integrity, when non-nil, enables the end-to-end per-sector
	// checksum layer (internal/store/integrity): every data and parity
	// sector gets a CRC32C record — salted with its device address and
	// the volume epoch, so misdirected and stale writes are caught too —
	// persisted in a per-device sidecar region appended after the data
	// sectors. Devices must then have Stripes×Code.R() +
	// IntegrityMetaSectors(...) sectors. Reads, scrubs and recovery
	// verify payloads against the records; a mismatch becomes a located
	// erasure the decoder repairs.
	Integrity *IntegrityOptions
	// Journal, when non-nil, makes stripe write-back crash-consistent:
	// every flush durably records an intent (stripe, dirty block
	// ordinals, data checksums) before any device write, writes data
	// then parity, and commits after — and Open replays pending
	// intents, re-verifying parity and rolling interrupted
	// read–modify–writes forward (see Recovery). The store uses the
	// journal but does not close it; the caller owns its lifecycle and
	// must close it only after Close returns.
	Journal *journal.Journal
	// Hedge hedges client block reads against a slow column with a solve
	// from the block's own row (see hedge.go).
	Hedge bool
}

// IntegrityOptions configures the end-to-end checksum layer.
type IntegrityOptions struct {
	// Epoch is salted into every digest (and recorded alongside it), so
	// records written under an older volume identity fail verification
	// instead of vouching for stale data. Pick any stable value per
	// volume generation; 0 is valid.
	Epoch uint32
	// DisableVerify keeps maintaining checksum records on writes but
	// skips verification on reads and scrubs — the negative control the
	// tests use to prove the layer is load-bearing.
	DisableVerify bool
}

// CoalesceOptions has no fields.
//
// Deprecated: has no effect; there is no request coalescer, and every
// device call goes straight to its device. Kept until bench/ stops
// naming it.
type CoalesceOptions struct{}

// IntegrityMetaSectors returns the per-device sidecar size, in sectors,
// the integrity layer needs for a volume of the given geometry — the
// amount to add to each device's Stripes×R data sectors.
func IntegrityMetaSectors(stripes, r, sectorSize int) int {
	return integrity.MetaSectors(stripes*r, sectorSize)
}

// stripeBuf accumulates dirty data blocks of one stripe, indexed by data
// cell ordinal (the code's DataCells order). stuck marks a buffer whose
// flush failed (e.g. its stripe is unrecoverably degraded, or the
// flush's context was cancelled mid-write-back): eviction skips it so
// the same error is not re-reported on every unrelated write, but
// explicit Flush (and the filling-to-full fast path) still retry it.
type stripeBuf struct {
	// data[ord] is nil until block ord is written, then the cell of st
	// the block maps to — so a full buffer is a stripe whose data cells
	// are the blocks, and the full-stripe flush encodes and writes back
	// in place, zero-copy.
	data  [][]byte
	st    *core.Stripe
	count int
	stuck bool
	// queued marks a buffer handed to the asynchronous flush pipeline
	// and not yet picked up by a worker; it dedupes pipeline entries.
	queued bool
	// torn is non-nil from an interrupted sub-stripe write-back of this
	// buffer until the retry that rewrites the stripe whole; every load
	// of the stripe in between goes through it (see tornUpdate).
	torn *tornUpdate
}

// Store is a STAIR-protected block store. Public methods are safe for
// concurrent use.
type Store struct {
	code       *core.Code
	devs       []Device
	n, r       int
	stripes    int
	sectorSize int
	maxDirty   int

	dataCells []core.Cell
	perStripe int

	// Zero-copy stripe memory (see arena.go): slabLen is the slab size
	// backing one stripe, stripePool recycles stripes with their slabs
	// and bufPool stripeBuf shells between flushes.
	slabLen    int
	stripePool sync.Pool
	bufPool    sync.Pool

	// integ, when non-nil, is the end-to-end checksum layer; integVerify
	// gates verification (false = maintain records, never check them).
	// dataSectors is the per-device data region size (stripes×r) — the
	// sidecar region starts there.
	integ       *integrity.Manager
	integVerify bool
	dataSectors int

	// hedge holds each column's read-latency tracker; nil when client
	// reads do not hedge (see hedge.go).
	hedge []latencyTracker

	// isData holds the stripe's data cells, which the journaled write-back
	// writes before the parity cells. allCols lists every column, for
	// whole-stripe sidecar flushes; allCells lists every cell sorted by
	// (Col, Row), for whole-stripe write-back (the full-stripe flush and
	// recovery's roll-forward), and every is its pattern, the want of a
	// whole-stripe load.
	isData   core.Pattern
	allCols  []int
	allCells []core.Cell
	every    core.Pattern

	// updCells[ord] is what an update of data ordinal ord touches: the
	// cell itself and its §5.2 parity dependencies. A sub-stripe flush
	// reads and writes exactly the union over its dirty ordinals (see
	// flush.go).
	updCells []core.Pattern

	// shards stripe ownership: every per-stripe mutation happens under
	// the owning shard's mutex. shardMask is len(shards)-1.
	shards    []lockShard
	shardMask int

	// dirtyCount and pendingCount are cross-shard aggregates (buffered
	// stripes, queued-or-running repairs) kept atomically so the hot
	// paths never need a global lock.
	dirtyCount   atomic.Int64
	pendingCount atomic.Int64
	closed       atomic.Bool

	// stateMu guards the scrubber lifecycle and Close/Quiesce
	// coordination only; it is never held together with a shard mutex.
	stateMu   sync.Mutex
	idle      *sync.Cond    // signaled when a repair request completes
	scrubStop chan struct{} // closes to stop the background scrubber
	scrubDone chan struct{} // closed by the scrubber goroutine on exit

	repairQ *repairQueue
	quit    chan struct{} // closes to stop the background workers
	wg      sync.WaitGroup

	// journal, when non-nil, write-ahead-protects every stripe flush;
	// recovery holds the report of Open's journal replay.
	journal  *journal.Journal
	recovery RecoveryReport

	// The asynchronous flush pipeline (see flush.go). flushCh is nil
	// when the pipeline is off; flushMu/flushIdle guard the in-flight
	// count and the sticky background-flush error.
	flushCh       chan int
	flushMu       sync.Mutex
	flushIdle     *sync.Cond
	flushInflight int
	asyncFlushErr error

	// testScrubErr, when set (by in-package tests, before any scrubber
	// starts), can fail a Scrub pass on demand — the only way to
	// exercise the scrubber's error exit, which has no organic trigger
	// on the built-in backends.
	testScrubErr func() error
	// testKill, when set, aborts a journaled flush at the given kill
	// point — the crash-injection hook the recovery tests drive.
	testKill func(killPoint) error
	// testRepairObserve, when set (before any repair traffic), is
	// called with each stripe a repair worker finishes — the ordering
	// probe for the risk-prioritised queue tests.
	testRepairObserve func(stripe int)

	c counters
}

// Open builds a store over cfg. When cfg.Devices is nil it allocates
// in-memory devices; Close closes whatever devices the store uses.
func Open(cfg Config) (*Store, error) {
	if cfg.Code == nil {
		return nil, fmt.Errorf("store: nil code")
	}
	if cfg.Code.Config().Placement != core.Inside {
		return nil, fmt.Errorf("store: only Inside global-parity placement is supported")
	}
	if cfg.Stripes < 1 {
		return nil, fmt.Errorf("store: Stripes=%d must be ≥ 1", cfg.Stripes)
	}
	if cfg.SectorSize <= 0 || cfg.SectorSize%cfg.Code.Field().SymbolBytes() != 0 {
		return nil, fmt.Errorf("store: SectorSize=%d must be a positive multiple of %d",
			cfg.SectorSize, cfg.Code.Field().SymbolBytes())
	}
	n, r := cfg.Code.N(), cfg.Code.R()
	// With integrity on, every device carries a sidecar region of
	// checksum records after its data sectors.
	wantSectors := cfg.Stripes * r
	if cfg.Integrity != nil {
		if cfg.SectorSize < integrity.RecordSize || cfg.SectorSize%integrity.RecordSize != 0 {
			return nil, fmt.Errorf("store: SectorSize=%d must be a positive multiple of %d for integrity",
				cfg.SectorSize, integrity.RecordSize)
		}
		wantSectors += IntegrityMetaSectors(cfg.Stripes, r, cfg.SectorSize)
	}
	devs := cfg.Devices
	if devs == nil {
		devs = make([]Device, n)
		for i := range devs {
			devs[i] = NewMemDevice(wantSectors, cfg.SectorSize)
		}
	}
	if len(devs) != n {
		return nil, fmt.Errorf("store: %d devices, want n=%d", len(devs), n)
	}
	for i, d := range devs {
		if d.Sectors() != wantSectors || d.SectorSize() != cfg.SectorSize {
			return nil, fmt.Errorf("store: device %d geometry %d×%d, want %d×%d",
				i, d.Sectors(), d.SectorSize(), wantSectors, cfg.SectorSize)
		}
	}
	maxDirty := cfg.MaxDirtyStripes
	if maxDirty == 0 {
		maxDirty = 8
	}
	queue := cfg.RepairQueue
	if queue == 0 {
		queue = 64
	}
	repairWorkers := cfg.RepairWorkers
	if repairWorkers == 0 {
		repairWorkers = 1
	}
	if repairWorkers < 1 {
		return nil, fmt.Errorf("store: RepairWorkers=%d must be ≥ 0", cfg.RepairWorkers)
	}
	if cfg.LockShards < 0 {
		return nil, fmt.Errorf("store: LockShards=%d must be ≥ 0", cfg.LockShards)
	}
	if cfg.FlushWorkers < 0 {
		return nil, fmt.Errorf("store: FlushWorkers=%d must be ≥ 0", cfg.FlushWorkers)
	}
	nshards := shardCount(cfg.LockShards)
	s := &Store{
		code:       cfg.Code,
		devs:       devs,
		n:          n,
		r:          r,
		stripes:    cfg.Stripes,
		sectorSize: cfg.SectorSize,
		maxDirty:   maxDirty,
		dataCells:  cfg.Code.DataCells(),
		shards:     newShards(nshards, n, r),
		shardMask:  nshards - 1,
		repairQ:    newRepairQueue(queue),
		quit:       make(chan struct{}),
		journal:    cfg.Journal,
	}
	if cfg.Hedge {
		s.hedge = make([]latencyTracker, n)
	}
	s.dataSectors = cfg.Stripes * r
	s.perStripe = len(s.dataCells)
	s.slabLen = cfg.Code.SlabSize(cfg.SectorSize)
	s.idle = sync.NewCond(&s.stateMu)
	s.flushIdle = sync.NewCond(&s.flushMu)
	s.isData, s.every = core.NewPattern(n, r), core.NewPattern(n, r)
	s.updCells = make([]core.Pattern, s.perStripe)
	for ord, cell := range s.dataCells {
		s.isData.Set(s.cellIdx(cell))
		deps, err := cfg.Code.ParityDependencies(cell)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.updCells[ord] = core.NewPattern(n, r)
		for _, c := range append(deps, cell) {
			s.updCells[ord].Set(s.cellIdx(c))
		}
	}
	for i := range n * r {
		s.every.Set(i)
	}
	s.allCells = s.every.AppendCells(nil)
	s.allCols = appendCols(nil, s.allCells)
	// The sidecar regions load before journal replay: recovery re-stages
	// fresh records for every stripe it touches, and verification after
	// reopen must see the surviving records, not blanks.
	if cfg.Integrity != nil {
		integ, err := integrity.NewManager(n, s.dataSectors, cfg.SectorSize, cfg.Integrity.Epoch)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.integ = integ
		s.integVerify = !cfg.Integrity.DisableVerify
		s.loadIntegrityRegions(context.Background())
	}
	// Recovery runs before any traffic — and before the flush pipeline
	// exists — so the replay never races a concurrent flush.
	if s.journal != nil {
		if err := s.recoverJournal(); err != nil {
			return nil, fmt.Errorf("store: journal replay: %w", err)
		}
	}
	if cfg.FlushWorkers > 0 {
		// One channel slot per stripe: the queued flag dedupes entries,
		// so sendFlush can never block (see flush.go).
		s.flushCh = make(chan int, cfg.Stripes)
		s.wg.Add(cfg.FlushWorkers)
		for i := 0; i < cfg.FlushWorkers; i++ {
			go s.flushLoop()
		}
	}
	s.wg.Add(repairWorkers)
	for i := 0; i < repairWorkers; i++ {
		go s.repairLoop()
	}
	return s, nil
}

// BlockSize returns the logical block size (one sector).
func (s *Store) BlockSize() int { return s.sectorSize }

// Blocks returns the volume capacity in logical blocks.
func (s *Store) Blocks() int { return s.stripes * s.perStripe }

// Geometry returns (devices, stripes, sectors per chunk, sector size),
// the shape failures.FaultTarget asks for so the fault drivers of
// internal/failures can target a store.
func (s *Store) Geometry() (n, stripes, r, sectorSize int) {
	return s.n, s.stripes, s.r, s.sectorSize
}

// Code returns the protecting code.
func (s *Store) Code() *core.Code { return s.code }

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats { return s.c.snapshot() }

// blockOf maps a logical block to its stripe and data cell.
func (s *Store) blockOf(b int) (stripe, ord int, cell core.Cell, err error) {
	if b < 0 || b >= s.Blocks() {
		return 0, 0, core.Cell{}, fmt.Errorf("store: block %d out of range [0,%d)", b, s.Blocks())
	}
	stripe, ord = b/s.perStripe, b%s.perStripe
	return stripe, ord, s.dataCells[ord], nil
}

// cellIdx is a cell's chunk-major position within a stripe, the index
// of core.Stripe.Cells.
func (s *Store) cellIdx(cell core.Cell) int { return cell.Col*s.r + cell.Row }

// devSector maps (stripe, row) to the device sector index.
func (s *Store) devSector(stripe, row int) int { return stripe*s.r + row }

// WriteBlock buffers one block write. The write lands on devices when
// its stripe buffer fills (full-stripe encode), when the buffer bound
// evicts it, or at Flush/Close (incremental parity read–modify–write).
// ctx bounds any device I/O a triggered flush performs.
func (s *Store) WriteBlock(ctx context.Context, b int, data []byte) error {
	if len(data) != s.sectorSize {
		return fmt.Errorf("store: write of %d bytes, want block size %d", len(data), s.sectorSize)
	}
	if s.closed.Load() {
		return ErrClosed
	}
	stripe, ord, cell, err := s.blockOf(b)
	if err != nil {
		return err
	}
	sh := s.shard(stripe)
	sh.mu.Lock()
	// Re-check under the shard lock: Close sets closed before its final
	// flush locks each shard, so a writer that got past the unlocked
	// check cannot buffer data the flush has already passed over (it
	// would be acknowledged and then silently lost).
	if s.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	buf := sh.dirty[stripe]
	if buf == nil {
		buf = s.acquireStripeBuf()
		sh.dirty[stripe] = buf
		s.dirtyCount.Add(1)
	}
	if buf.data[ord] == nil {
		buf.count++
		buf.data[ord] = buf.st.Sector(cell.Col, cell.Row)
	}
	copy(buf.data[ord], data)
	s.c.writes.Add(1)
	if buf.count == s.perStripe {
		// A filled buffer flushes: inline in synchronous mode, handed
		// to the background pipeline otherwise (the writer keeps going;
		// errors surface at the next Flush/Sync/Close).
		if s.asyncFlush() {
			queued := s.queueFlushLocked(buf)
			sh.mu.Unlock()
			if queued {
				s.sendFlush(stripe)
			}
			return nil
		}
		err := s.flushStripeLocked(ctx, sh, stripe)
		sh.mu.Unlock()
		return err
	}
	sh.mu.Unlock()
	if s.dirtyCount.Load() > int64(s.maxDirty) {
		victim := s.fullestDirty(stripe)
		if s.asyncFlush() {
			// Hand the victim (if any) to the pipeline, then hold the
			// writer until the buffer count is back under the bound —
			// MaxDirtyStripes stays a real memory bound even when the
			// flush workers lag the writer.
			if victim >= 0 {
				vsh := s.shard(victim)
				vsh.mu.Lock()
				var queued bool
				if vbuf := vsh.dirty[victim]; vbuf != nil {
					queued = s.queueFlushLocked(vbuf)
				}
				vsh.mu.Unlock()
				if queued {
					s.sendFlush(victim)
				}
			}
			if err := s.flushBackpressure(ctx); err != nil {
				// The requested write IS buffered; only the wait died.
				return fmt.Errorf("store: block %d buffered, but awaiting the flush pipeline: %w", b, err)
			}
			return nil
		}
		if victim < 0 {
			return nil // every other buffer is stuck; nothing to evict
		}
		vsh := s.shard(victim)
		vsh.mu.Lock()
		err := s.flushStripeLocked(ctx, vsh, victim)
		vsh.mu.Unlock()
		if err != nil {
			// The requested write IS buffered; only the eviction failed.
			return fmt.Errorf("store: block %d buffered, but evicting stripe %d failed: %w", b, victim, err)
		}
	}
	return nil
}

// fullestDirty picks the buffered stripe with the most dirty blocks,
// excluding the one just written to (it is the hottest), any stuck
// buffers, and buffers already handed to the flush pipeline. It scans
// shard by shard, never holding more than one shard mutex; the result
// is advisory — a concurrent flush of the victim is harmless,
// flushStripeLocked no-ops on a missing buffer. Returns -1 when nothing
// is evictable.
func (s *Store) fullestDirty(except int) int {
	best, bestCount := -1, -1
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for stripe, buf := range sh.dirty {
			if stripe == except || buf.stuck || buf.queued {
				continue
			}
			if buf.count > bestCount || (buf.count == bestCount && stripe < best) {
				best, bestCount = stripe, buf.count
			}
		}
		sh.mu.Unlock()
	}
	return best
}

// Flush drains the write path: with the pipeline on it first waits out
// every queued or in-flight background flush, reports any background
// failure recorded since the last drain, then lands every remaining
// buffered stripe synchronously. A cancelled ctx aborts promptly —
// including any in-flight device wait — leaving the unflushed buffers
// intact for a retry.
func (s *Store) Flush(ctx context.Context) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.drainFlushPipeline(ctx); err != nil {
		return err
	}
	if err := s.takeAsyncFlushErr(); err != nil {
		return err
	}
	return s.flushAll(ctx)
}

// flushAll lands every buffered stripe, shard by shard (Close uses it
// after marking the store closed, so it does not re-check closed).
// Context cancellation stops the sweep at the first unflushed stripe.
// Buffers queued to the pipeline are swept too (the worker that later
// dequeues a flushed stripe finds no buffer and no-ops).
func (s *Store) flushAll(ctx context.Context) error {
	var stripes []int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for stripe := range sh.dirty {
			stripes = append(stripes, stripe)
		}
		sh.mu.Unlock()
	}
	sort.Ints(stripes)
	var first error
	for _, stripe := range stripes {
		if err := ctx.Err(); err != nil {
			if first == nil {
				first = err
			}
			return first
		}
		sh := s.shard(stripe)
		sh.mu.Lock()
		err := s.flushStripeLocked(ctx, sh, stripe)
		sh.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReadBlock returns one logical block. Buffered (not yet flushed) writes
// are served from the stripe buffer; an unreadable sector is rebuilt on
// the fly through the degraded-read path — from n−m sectors of its own
// row, or, the row holding more than m losses, from what the upstairs
// decoding pruned to the block reads — and its stripe queued for
// background repair. With Config.Hedge, a read whose device answers
// slowly is solved from its row too, and nothing is queued. ctx bounds
// the device reads, including those a degraded or hedged read performs.
//
// The returned buffer comes from the store's buffer pool; the caller
// owns it, and may hand it back with ReleaseBlock once done (optional —
// an unreleased buffer is simply reclaimed by the GC).
func (s *Store) ReadBlock(ctx context.Context, b int) ([]byte, error) {
	out := mem.Acquire(s.sectorSize)
	if err := s.ReadBlockInto(ctx, b, out); err != nil {
		if ctx.Err() == nil {
			mem.Release(out)
		}
		return nil, err
	}
	return out, nil
}

// ReleaseBlock returns a buffer obtained from ReadBlock to the store's
// buffer pool. The caller must not touch the buffer afterwards. Calling
// it is optional but keeps a read-heavy steady state allocation-free.
func (s *Store) ReleaseBlock(buf []byte) { mem.Release(buf) }

// ReadBlockInto is ReadBlock without the allocation: it reads block b
// into dst, which must be exactly BlockSize bytes. The caller owns dst
// throughout — with one caveat: if the call returns a context
// cancellation error, dst may still be referenced by an abandoned
// device-side operation and must be dropped, not recycled.
func (s *Store) ReadBlockInto(ctx context.Context, b int, dst []byte) error {
	if len(dst) != s.sectorSize {
		return fmt.Errorf("store: read into %d bytes, want block size %d", len(dst), s.sectorSize)
	}
	if s.closed.Load() {
		return ErrClosed
	}
	stripe, ord, cell, err := s.blockOf(b)
	if err != nil {
		return err
	}
	sh := s.shard(stripe)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Re-check under the shard lock (see WriteBlock): past this point
	// the devices may already be closed.
	if s.closed.Load() {
		return ErrClosed
	}
	if buf := sh.dirty[stripe]; buf != nil && buf.data[ord] != nil {
		s.c.reads.Add(1)
		copy(dst, buf.data[ord])
		return nil
	}
	var rerr error
	if s.hedge != nil && !sh.unrecoverable[stripe] {
		// A stripe marked unrecoverable is never solved (see below), so
		// it is never hedged either.
		var won bool
		if won, rerr = s.hedgedReadLocked(ctx, sh, stripe, cell, dst); won {
			return nil
		}
	} else {
		vec := sh.rowvec(1)
		vec[0] = dst
		rerr = s.devs[cell.Col].ReadSectors(ctx, s.devSector(stripe, cell.Row), vec)
		vec[0] = nil
	}
	if rerr == nil {
		// A sector that read fine but whose checksum disagrees — silent
		// corruption, a misdirected or stale write — is a located erasure,
		// served degraded below.
		verdict := integrity.Absent
		if s.integ != nil && s.integVerify {
			verdict = s.integ.Verify(cell.Col, s.devSector(stripe, cell.Row), dst)
		}
		if verdict != integrity.Mismatch {
			if verdict == integrity.OK {
				s.c.verifiedSectors.Add(1)
			}
			s.c.reads.Add(1)
			return nil
		}
		s.c.checksumMismatches.Add(1)
	} else if cerr := ctx.Err(); cerr != nil {
		sh.dropScratchOnCancel()
		return cerr
	}
	// Degraded read. A stripe already marked unrecoverable is refused
	// outright: re-running the decode could fabricate content (journal
	// replay marks stripes whose post-crash parity relations cannot be
	// trusted — reconstruction there solves contradictory equations
	// into garbage). The mark is cleared by the events that actually
	// change the stripe's standing: a full rewrite, a device
	// replacement, or a successful roll-forward.
	if sh.unrecoverable[stripe] {
		return fmt.Errorf("store: degraded read of block %d (stripe %d): %w", b, stripe, ErrUnrecoverable)
	}
	// Local first (§4.3): the plan reads the wanted cell's own row while
	// it holds at most m losses, and re-plans over the stripe when the
	// reads find more.
	risk, err := s.solveLocked(ctx, sh, stripe, cell, dst, isDown(rerr), false)
	if errors.Is(err, ErrUnrecoverable) {
		s.c.degradedFallbacks.Add(1)
		return fmt.Errorf("store: degraded read of block %d (stripe %d): %w", b, stripe, err)
	}
	if err != nil {
		return err
	}
	s.c.degradedReads.Add(1)
	// Queue a repair only when it can land somewhere: lost cells confined
	// to wholly failed devices wait for a replacement instead of spinning
	// the workers. The lost count is its queue priority — the closer to
	// the coverage edge, the sooner a worker takes it.
	if risk > 0 {
		s.enqueueRepairLocked(sh, stripe, risk)
	}
	return nil
}

// markUnrecoverableLocked records a stripe whose failure pattern fell
// outside coverage; the caller holds the stripe's shard mutex. The
// counter tracks map cardinality exactly, so Stats always reports the
// number of stripes currently marked.
func (s *Store) markUnrecoverableLocked(sh *lockShard, stripe int) {
	if !sh.unrecoverable[stripe] {
		sh.unrecoverable[stripe] = true
		s.c.unrecoverableStripes.Add(1)
	}
}

// clearUnrecoverableLocked drops a stripe's unrecoverable mark and
// decrements the counter in lockstep (PR 1 cleared the map but left the
// counter cumulative, double-counting stripes re-marked after a device
// replacement).
func (s *Store) clearUnrecoverableLocked(sh *lockShard, stripe int) {
	if sh.unrecoverable[stripe] {
		delete(sh.unrecoverable, stripe)
		s.c.unrecoverableStripes.Add(^uint64(0))
	}
}

// UnrecoverableStripes lists stripes observed (by reads, flushes, or the
// repair workers) to hold failure patterns outside the code's coverage.
func (s *Store) UnrecoverableStripes() []int {
	var out []int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for stripe := range sh.unrecoverable {
			out = append(out, stripe)
		}
		sh.mu.Unlock()
	}
	sort.Ints(out)
	return out
}

// Quiesce blocks until the repair queue is empty and every repair
// worker idle — the point where a scrub-triggered repair wave has
// converged.
func (s *Store) Quiesce() {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	for s.pendingCount.Load() > 0 && !s.closed.Load() {
		s.idle.Wait()
	}
}

// FailDevice marks a device wholly failed (fault injection). Reads of
// its sectors are served degraded from then on.
func (s *Store) FailDevice(dev int) error {
	fd, err := s.faultDevice(dev)
	if err != nil {
		return err
	}
	return fd.Fail()
}

// ReplaceDevice swaps a failed device for a fresh one whose sectors are
// all unwritten. Rebuild (or scrub passes feeding the repair queue)
// restores its content. Replacement changes every stripe's failure
// pattern, so cached unrecoverable marks (and the counter mirroring
// them) are dropped and re-evaluated on the next access.
func (s *Store) ReplaceDevice(dev int) error {
	fd, err := s.faultDevice(dev)
	if err != nil {
		return err
	}
	if err := fd.Replace(); err != nil {
		return err
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for stripe := range sh.unrecoverable {
			s.clearUnrecoverableLocked(sh, stripe)
		}
		sh.mu.Unlock()
	}
	return nil
}

// InjectSectorError injects a latent sector error at one device sector
// (index stripe×R + row).
func (s *Store) InjectSectorError(dev, sector int) error {
	fd, err := s.faultDevice(dev)
	if err != nil {
		return err
	}
	return fd.InjectSectorError(sector)
}

// InjectBurst injects a run of consecutive latent sector errors on one
// device, clipped at the device end — the §7.2.2 failure mode, with
// failures.FaultTarget's signature so the fault drivers apply.
func (s *Store) InjectBurst(dev, start, length int) error {
	fd, err := s.faultDevice(dev)
	if err != nil {
		return err
	}
	for i := 0; i < length; i++ {
		idx := start + i
		if idx >= fd.Sectors() {
			break
		}
		if err := fd.InjectSectorError(idx); err != nil {
			return err
		}
	}
	return nil
}

// FailedDevices lists wholly failed devices.
func (s *Store) FailedDevices() []int {
	var out []int
	for i, d := range s.devs {
		if fd, ok := d.(FaultDevice); ok && fd.Failed() {
			out = append(out, i)
		}
	}
	return out
}

// TotalBadSectors counts latent sector errors across live devices.
func (s *Store) TotalBadSectors() int {
	total := 0
	for _, d := range s.devs {
		if fd, ok := d.(FaultDevice); ok && !fd.Failed() {
			total += fd.BadSectors()
		}
	}
	return total
}

func (s *Store) faultDevice(dev int) (FaultDevice, error) {
	if dev < 0 || dev >= len(s.devs) {
		return nil, fmt.Errorf("store: device %d out of range [0,%d)", dev, len(s.devs))
	}
	fd, ok := s.devs[dev].(FaultDevice)
	if !ok {
		return nil, fmt.Errorf("store: device %d (%T) does not support fault injection", dev, s.devs[dev])
	}
	return fd, nil
}

// Close drains the flush pipeline, flushes buffered writes, drains the
// outstanding background repairs, stops the scrubber, flush and repair
// workers, and closes the devices. New reads and writes are refused
// before the final flush, so nothing can slip into the buffer and be
// lost; repairs already queued (e.g. by a final scrub pass) complete
// before the workers shut down, so a close does not strand a volume
// degraded that a queued repair would have healed. Close is not bounded
// by a caller context — it finishes the shutdown it started. The
// journal, if any, is left to its owner to close afterwards.
func (s *Store) Close() error {
	s.StopScrubber()
	s.stateMu.Lock()
	if s.closed.Load() {
		s.stateMu.Unlock()
		return ErrClosed
	}
	s.closed.Store(true)
	s.stateMu.Unlock()
	// Let in-flight background flushes finish, then sweep what remains;
	// a background failure recorded since the last Flush surfaces here.
	_ = s.drainFlushPipeline(context.Background())
	flushErr := s.takeAsyncFlushErr()
	if err := s.flushAll(context.Background()); err != nil && flushErr == nil {
		flushErr = err
	}
	// Nothing can enqueue past closed, so the pending count only drains
	// from here; wait for the workers to finish what was queued.
	s.stateMu.Lock()
	for s.pendingCount.Load() > 0 {
		s.idle.Wait()
	}
	s.stateMu.Unlock()
	close(s.quit)
	s.repairQ.close()
	s.wg.Wait()
	// The drain left no pending repairs; one last broadcast wakes any
	// Quiesce waiter so its loop re-checks closed — and likewise any
	// backpressure waiter parked on the (now fully drained) pipeline.
	s.stateMu.Lock()
	s.idle.Broadcast()
	s.stateMu.Unlock()
	s.flushMu.Lock()
	s.flushIdle.Broadcast()
	s.flushMu.Unlock()
	firstErr := flushErr
	// Durability barrier before the journal lets go of its intents: the
	// checkpoint must not durably forget a write-back whose sectors are
	// still in the page cache. No flush can race this Mark — the store
	// is closed and the workers have exited.
	var mark journal.Mark
	if s.journal != nil {
		mark = s.journal.Mark()
	}
	if err := s.syncDevices(context.Background()); err != nil && firstErr == nil {
		firstErr = err
	}
	if s.journal != nil {
		if err := s.journal.Checkpoint(mark); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, d := range s.devs {
		if err := d.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
