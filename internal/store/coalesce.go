package store

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stair/internal/store/mem"
)

// CoalesceOptions tunes a CoalescingDevice.
type CoalesceOptions struct {
	// Window is how long the first request of a batch waits for
	// neighbours before dispatching. 0 selects 200µs. Longer windows
	// merge more aggressively at the cost of added first-byte latency on
	// idle devices.
	Window time.Duration
	// MaxSectors caps one merged inner call; a run growing past it is
	// dispatched as multiple calls. 0 selects 4096.
	MaxSectors int
}

const (
	defaultCoalesceWindow     = 200 * time.Microsecond
	defaultCoalesceMaxSectors = 4096
)

// CoalesceStats counts what the coalescer saved.
type CoalesceStats struct {
	// Reads/Writes count caller-issued vectored operations.
	Reads, Writes uint64
	// InnerReads/InnerWrites count calls actually issued to the wrapped
	// device; the spread against Reads/Writes is the round trips merged
	// away.
	InnerReads, InnerWrites uint64
	// MergedReads/MergedWrites count caller operations that shared an
	// inner call with at least one other operation.
	MergedReads, MergedWrites uint64
	// ScratchFlats counts merged reads that needed an intermediate
	// staging flat because member extents overlapped; non-overlapping
	// batches stitch the members' own buffers into the inner call.
	ScratchFlats uint64
}

// CoalescingDevice wraps a Device and merges concurrent adjacent (or
// overlapping) extents into single vectored calls — the per-backend
// request coalescer of the cluster write path. The store already issues
// one call per device per stripe; with a concurrent flush pipeline,
// neighbouring stripes' chunks on the same backend are adjacent extents,
// and a backend that charges per call (a disk seek, an HTTP round trip)
// serves one merged call in a fraction of the time. Stripe write-back
// ordering is unaffected: the journal's per-stripe intents are appended
// (and fsynced) before the write-back call enters the coalescer, and a
// flush does not commit until its call — merged or not — returns, so
// crash consistency is exactly as strong as the uncoalesced path.
//
// Correctness with the store's locking: a caller blocks until the merged
// call covering its extent completes, so the store's shard locks keep
// same-stripe read-after-write ordering; cross-stripe merges carry no
// ordering obligation. A caller whose context dies while batched returns
// promptly with ctx.Err(); the merged call continues for the other
// members and is cancelled only when every member has abandoned it.
//
// Geometry, Sync and the fault-injection hooks pass through to the
// wrapped device. So does Close: in-flight batches hold their own
// references, and callers must not Close with operations outstanding
// (the store's shutdown drains before closing devices).
type CoalescingDevice struct {
	Forwarder
	window     time.Duration
	maxSectors int

	reads, writes coalesceQueue

	stats struct {
		reads, writes             atomic.Uint64
		innerReads, innerWrites   atomic.Uint64
		mergedReads, mergedWrites atomic.Uint64
		scratchFlats              atomic.Uint64
	}
}

// NewCoalescingDevice wraps inner with a request coalescer.
func NewCoalescingDevice(inner Device, opts CoalesceOptions) *CoalescingDevice {
	if opts.Window <= 0 {
		opts.Window = defaultCoalesceWindow
	}
	if opts.MaxSectors <= 0 {
		opts.MaxSectors = defaultCoalesceMaxSectors
	}
	d := &CoalescingDevice{
		Forwarder:  Forwarder{Inner: inner},
		window:     opts.Window,
		maxSectors: opts.MaxSectors,
	}
	d.reads.dev, d.writes.dev = d, d
	d.writes.write = true
	return d
}

// Stats snapshots the merge counters.
func (d *CoalescingDevice) Stats() CoalesceStats {
	return CoalesceStats{
		Reads:        d.stats.reads.Load(),
		Writes:       d.stats.writes.Load(),
		InnerReads:   d.stats.innerReads.Load(),
		InnerWrites:  d.stats.innerWrites.Load(),
		MergedReads:  d.stats.mergedReads.Load(),
		MergedWrites: d.stats.mergedWrites.Load(),
		ScratchFlats: d.stats.scratchFlats.Load(),
	}
}

// ReadSectors joins the read batch window; adjacent concurrent reads
// share one inner call.
func (d *CoalescingDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	d.stats.reads.Add(1)
	return d.reads.submit(ctx, start, bufs)
}

// WriteSectors joins the write batch window; adjacent concurrent writes
// share one inner call.
func (d *CoalescingDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	d.stats.writes.Add(1)
	return d.writes.submit(ctx, start, data)
}

// coalReq is one caller operation waiting in a batch window.
type coalReq struct {
	ctx   context.Context
	start int
	bufs  [][]byte
	done  chan error // buffered; the dispatcher never blocks on it
}

// coalesceQueue is one direction's (read or write) batching state.
type coalesceQueue struct {
	dev   *CoalescingDevice
	write bool

	mu      sync.Mutex
	pending []*coalReq
	open    bool // a dispatcher is sleeping out the window
}

// submit validates and enqueues one operation, opening a batch window if
// none is pending, and waits for its result. An already-cancelled (or
// cancelled-while-waiting) context returns promptly; the batch keeps the
// request's buffers until its inner call completes, which is safe — for
// reads the abandoned scratch is dropped, for writes the data slices are
// immutable for the duration by the Device contract.
func (q *coalesceQueue) submit(ctx context.Context, start int, bufs [][]byte) error {
	d := q.dev
	if err := checkExtent(d.Sectors(), start, len(bufs)); err != nil {
		return err
	}
	if err := checkBufs(d.SectorSize(), bufs); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(bufs) == 0 {
		return nil
	}
	req := &coalReq{ctx: ctx, start: start, bufs: bufs, done: make(chan error, 1)}
	q.mu.Lock()
	q.pending = append(q.pending, req)
	lead := !q.open
	if lead {
		q.open = true
	}
	q.mu.Unlock()
	if lead {
		go q.dispatch()
	}
	select {
	case err := <-req.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// dispatch sleeps out the batch window, takes every pending request, and
// issues the merged inner calls. It closes the window before issuing, so
// requests arriving during a slow inner call start a fresh batch instead
// of queueing behind it.
func (q *coalesceQueue) dispatch() {
	timer := time.NewTimer(q.dev.window)
	<-timer.C
	q.mu.Lock()
	batch := q.pending
	q.pending = nil
	q.open = false
	q.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	// Drop members whose context already died; they have already
	// returned ctx.Err() to their callers.
	live := batch[:0]
	for _, req := range batch {
		if req.ctx.Err() != nil {
			req.done <- req.ctx.Err()
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	sort.SliceStable(live, func(i, j int) bool { return live[i].start < live[j].start })
	// Split into maximal runs of overlapping-or-adjacent extents, capped
	// at MaxSectors, and serve each run with one inner call.
	for i := 0; i < len(live); {
		end := live[i].start + len(live[i].bufs)
		j := i + 1
		for j < len(live) && live[j].start <= end {
			e := live[j].start + len(live[j].bufs)
			if e > end {
				if e-live[i].start > q.dev.maxSectors {
					break
				}
				end = e
			}
			j++
		}
		q.issue(live[i:j], live[i].start, end)
		i = j
	}
}

// issue serves one merged run [start, end) for its member requests.
//
// A single-member run passes the caller's buffer vector straight
// through. A multi-member run stitches the members' own buffers into
// the merged vector by slicing — runs are built from
// overlapping-or-adjacent extents, so when no two members collide on a
// sector the members exactly tile the run and the inner call reads or
// writes the callers' memory directly. Only overlapping *reads* still
// need an intermediate flat (two callers want the same sector in
// different buffers); that flat is pooled and, per the drop-on-cancel
// rule, recycled only when the inner call was not abandoned mid-flight.
func (q *coalesceQueue) issue(members []*coalReq, start, end int) {
	d := q.dev
	if q.write {
		d.stats.innerWrites.Add(1)
		if len(members) > 1 {
			d.stats.mergedWrites.Add(uint64(len(members)))
		}
	} else {
		d.stats.innerReads.Add(1)
		if len(members) > 1 {
			d.stats.mergedReads.Add(uint64(len(members)))
		}
	}
	count := end - start
	var merged [][]byte
	var flat []byte // non-nil: overlapping read staged through a pooled flat
	if len(members) == 1 {
		merged = members[0].bufs
	} else {
		merged = make([][]byte, count)
		overlap := false
	place:
		// On overlap the later-sorted member wins the slot — for writes
		// that is the same nondeterminism two racing uncoalesced writes
		// have; for reads the loser is what forces the staging flat.
		for _, req := range members {
			for i, buf := range req.bufs {
				slot := req.start - start + i
				if merged[slot] != nil && !q.write {
					overlap = true
					break place
				}
				merged[slot] = buf
			}
		}
		if overlap {
			d.stats.scratchFlats.Add(1)
			flat = mem.Acquire(count * d.SectorSize())
			// Zeroed so lost sectors copy out as zeros, not pool garbage.
			clear(flat)
			for i := range merged {
				merged[i] = flat[i*d.SectorSize() : (i+1)*d.SectorSize()]
			}
		}
	}
	ctx, cancel := mergedContext(members)
	var err error
	if q.write {
		err = d.Inner.WriteSectors(ctx, start, merged)
	} else {
		err = d.Inner.ReadSectors(ctx, start, merged)
	}
	abandoned := ctx.Err() != nil
	cancel()
	se, partial := AsSectorErrors(err)
	for _, req := range members {
		var memberErr error
		switch {
		case err == nil, partial:
			if flat != nil {
				for i, buf := range req.bufs {
					copy(buf, merged[req.start-start+i])
				}
			}
			if partial {
				if sub := se.slice(req.start, req.start+len(req.bufs)); len(sub) > 0 {
					memberErr = sub
				}
			}
		default:
			memberErr = err
		}
		req.done <- memberErr
	}
	if flat != nil && !abandoned {
		mem.Release(flat)
	}
}

// slice returns the sector errors falling inside [start, end).
func (e SectorErrors) slice(start, end int) SectorErrors {
	var out SectorErrors
	for _, se := range e {
		if se.Index >= start && se.Index < end {
			out = append(out, se)
		}
	}
	return out
}

// mergedContext derives the context a merged inner call runs under: it
// is cancelled only when every member's context is done, so one caller
// giving up cannot kill a call its batch-mates still want. A member with
// an uncancellable context pins the call for its full duration.
func mergedContext(members []*coalReq) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	remaining := int64(len(members))
	var once sync.Once
	stop := make(chan struct{})
	release := func() { once.Do(func() { close(stop) }) }
	for _, req := range members {
		ch := req.ctx.Done()
		if ch == nil {
			// Never cancelled: the merged call runs to completion.
			return ctx, func() { release(); cancel() }
		}
		go func(ch <-chan struct{}) {
			select {
			case <-ch:
				if atomic.AddInt64(&remaining, -1) == 0 {
					cancel()
				}
			case <-stop:
			}
		}(ch)
	}
	return ctx, func() { release(); cancel() }
}
