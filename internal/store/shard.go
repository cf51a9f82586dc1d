package store

import (
	"slices"
	"sync"

	"stair/internal/core"
)

// defaultLockShards is the lock-table width when Config.LockShards is 0.
// Wide enough that a GOMAXPROCS-sized worker set rarely collides, small
// enough that the per-shard maps stay negligible.
const defaultLockShards = 32

// lockShard owns the store-side state of every stripe that hashes to
// it: the stripe write buffers, the repair-pending flags and the
// unrecoverable marks. Holding a shard's mutex also serialises device
// I/O for its stripes, so a stripe-level read–modify–write can never
// interleave with another writer, repairer or scrubber of the same
// stripe — while operations on stripes in different shards proceed
// concurrently. This is the paper's stripe-independence property
// (stripes are self-contained units of encoding and recovery) turned
// into a locking discipline.
//
// Lock ordering: at most one shard mutex is held at a time. Cross-shard
// work (Flush, eviction, the fullest-dirty scan) locks shards strictly
// one after another, and the store's stateMu (scrubber lifecycle,
// Quiesce) is never taken while a shard mutex is held.
type lockShard struct {
	mu            sync.Mutex
	dirty         map[int]*stripeBuf
	pending       map[int]bool // stripes queued or being repaired
	unrecoverable map[int]bool

	// rows is the shard's reusable buffer-vector scratch for vectored
	// device calls (stripe loads, write-back runs, single-sector reads).
	// Only touched under mu, and abandoned — not reused — after a
	// cancelled device call (see dropScratchOnCancel).
	rows [][]byte
	// load is the load in progress under mu, lost list included: every
	// load of the shard's stripes goes through it (see stripeLoad).
	load stripeLoad
	// down is the last load's record, by column, of the devices whose
	// whole read answered ErrDeviceFailed — wholly failed, so they take no
	// write-back — for the columns it read (the degraded read records its
	// own cell's device first); valid until the next load under mu.
	down []bool

	// cells is a stripe repair's write-back set, and cols the columns
	// whose sidecar records a repair or a record refresh persists.
	cells []core.Cell
	cols  []int

	// upd is the working set of the sub-stripe flush running under mu.
	upd updateSet
}

// updateSet is a sub-stripe flush's working set, reused from one flush
// of the shard to the next so the path allocates nothing: which cells
// of the stripe the update touches, in the forms its stages want.
type updateSet struct {
	// need holds the touched cells: each dirty data cell and its §5.2
	// parity dependencies, plus the lost cells the flush's load found,
	// repaired in passing.
	need core.Pattern
	// cells lists need ascending by (Col, Row), and cols its distinct
	// columns, both rebuilt from need by collectUpdate.
	cells []core.Cell
	cols  []int
	// codec is core.UpdateWith's scratch; ords, sums and isums build the
	// journal intent.
	codec core.UpdateScratch
	ords  []int
	sums  []uint64
	isums []uint32
	// data and parity are the journaled write-back's two phases.
	data, parity []core.Cell
}

// rowvec returns the shard's buffer-vector scratch sized to n entries.
// The caller holds mu and must not keep the slice across a release of
// the mutex.
func (sh *lockShard) rowvec(n int) [][]byte {
	if cap(sh.rows) < n {
		sh.rows = make([][]byte, n)
	}
	return sh.rows[:n]
}

// writable lists, in (Col, Row) order, the cells of p whose device
// answered the last stripe load (see down), into the shard's cells
// scratch.
func (sh *lockShard) writable(p core.Pattern) []core.Cell {
	sh.cells = slices.DeleteFunc(p.AppendCells(sh.cells[:0]), func(c core.Cell) bool { return sh.down[c.Col] })
	return sh.cells
}

// dropScratchOnCancel abandons the shard's I/O scratch after a device
// call that ended by context cancellation: an abandoned inner operation
// (e.g. a hedged read's primary) may still hold the vector and iterate
// it later, so the next operation must get a fresh one.
func (sh *lockShard) dropScratchOnCancel() {
	sh.rows = nil
}

// shardCount rounds the configured shard count up to a power of two so
// the stripe→shard map is a single mask; with a power-of-two table,
// adjacent stripes land in different shards, which is exactly what
// sequential and range-partitioned workloads want.
func shardCount(cfg int) int {
	if cfg == 0 {
		cfg = defaultLockShards
	}
	n := 1
	for n < cfg {
		n <<= 1
	}
	return n
}

// newShards allocates an initialised shard table, for stripes of n
// columns of r rows.
func newShards(count, n, r int) []lockShard {
	shards := make([]lockShard, count)
	for i := range shards {
		shards[i].dirty = map[int]*stripeBuf{}
		shards[i].pending = map[int]bool{}
		shards[i].unrecoverable = map[int]bool{}
		shards[i].down = make([]bool, n)
		shards[i].load = stripeLoad{need: core.NewPattern(n, r), lost: core.NewPattern(n, r), want: core.NewPattern(n, r)}
		shards[i].upd.need = core.NewPattern(n, r)
	}
	return shards
}

// shard returns the lock shard owning a stripe.
func (s *Store) shard(stripe int) *lockShard {
	return &s.shards[stripe&s.shardMask]
}
