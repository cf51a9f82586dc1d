package store

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"stair/internal/store/mem"
)

// CoalesceOptions tunes a CoalescingDevice.
type CoalesceOptions struct {
	// MaxSectors caps one merged inner call; a run growing past it is
	// dispatched as multiple calls. 0 selects 4096.
	MaxSectors int
}

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
// serves one merged call in a fraction of the time.
//
// There is no batch window and no clock: a request waits for neighbours
// exactly as long as the backend is busy. One that finds its direction
// (read or write) idle is issued at once on the caller's goroutine — a
// lone client pays one round trip, nothing else. One that arrives while
// a call of its direction is in flight queues behind it; whoever ends
// that call takes what queued as the next batch and merges neighbours.
//
// The price is head-of-line waiting: with one call or batch in flight
// per direction per backend, a request arriving behind a slow call waits
// for it (≤ 2 round trips under contention; a latency spike is shared by
// what queued behind it) — the mirror image of a timed window, which
// charges every request the timer whether or not anything contends.
// A client's block read still hedges past a stuck call (Config.Hedge).
//
// Stripe write-back ordering is unaffected: the journal's per-stripe
// intents are appended (and fsynced) before the write-back call enters
// the coalescer, and a flush does not commit until its call — merged or
// not — returns, so crash consistency is exactly as strong as the
// uncoalesced path.
//
// Correctness with the store's locking: a caller blocks until the call
// covering its extent completes, so the store's shard locks keep
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
	maxSectors int

	reads, writes coalesceQueue
	scratchFlats  atomic.Uint64
}

// NewCoalescingDevice wraps inner with a request coalescer.
func NewCoalescingDevice(inner Device, opts CoalesceOptions) *CoalescingDevice {
	if opts.MaxSectors <= 0 {
		opts.MaxSectors = 4096
	}
	d := &CoalescingDevice{
		Forwarder:  Forwarder{Inner: inner},
		maxSectors: opts.MaxSectors,
	}
	d.reads.dev, d.writes.dev = d, d
	d.writes.write = true
	return d
}

// Stats snapshots the merge counters.
func (d *CoalescingDevice) Stats() CoalesceStats {
	return CoalesceStats{
		Reads:        d.reads.ops.Load(),
		Writes:       d.writes.ops.Load(),
		InnerReads:   d.reads.inner.Load(),
		InnerWrites:  d.writes.inner.Load(),
		MergedReads:  d.reads.merged.Load(),
		MergedWrites: d.writes.merged.Load(),
		ScratchFlats: d.scratchFlats.Load(),
	}
}

// ReadSectors issues the read, or queues it behind the read in flight;
// adjacent reads that queued together share one inner call.
func (d *CoalescingDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	return d.reads.submit(ctx, start, bufs)
}

// WriteSectors issues the write, or queues it behind the write in
// flight; adjacent writes that queued together share one inner call.
func (d *CoalescingDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	return d.writes.submit(ctx, start, data)
}

// coalReq is one caller operation, in flight or queued.
type coalReq struct {
	ctx   context.Context
	start int
	bufs  [][]byte
	done  chan error // buffered; issue never blocks on it
}

// coalesceQueue is one direction's (read or write) state.
type coalesceQueue struct {
	dev                *CoalescingDevice
	write              bool
	ops, inner, merged atomic.Uint64 // caller ops, inner calls, ops that shared one

	mu      sync.Mutex
	pending []*coalReq // arrived while busy: the next batch
	busy    bool       // a call or batch of this direction is in flight
}

// submit validates one operation, then issues it at once (idle queue: a
// batch of one on the caller's goroutine) or queues it behind the call
// in flight and waits for the batch that serves it. A queued caller
// whose context dies returns promptly; the batch keeps the request's
// buffers until its inner call completes, which is safe — for reads the
// abandoned scratch is dropped, for writes the data slices are immutable
// for the duration by the Device contract.
func (q *coalesceQueue) submit(ctx context.Context, start int, bufs [][]byte) error {
	d := q.dev
	q.ops.Add(1)
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
	queued := q.busy
	if queued {
		q.pending = append(q.pending, req)
	}
	q.busy = true
	q.mu.Unlock()
	if !queued {
		q.issue([]*coalReq{req}, start, start+len(bufs))
		q.finish()
		return <-req.done
	}
	select {
	case err := <-req.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// finish ends the call or batch in flight: what queued behind it goes
// out as the next batch on a goroutine of its own (the only ones a queue
// starts are for requests that found it busy), else the queue goes idle.
func (q *coalesceQueue) finish() {
	q.mu.Lock()
	batch := q.pending
	q.pending = nil
	q.busy = len(batch) > 0
	q.mu.Unlock()
	if len(batch) > 0 {
		go q.dispatch(batch)
	}
}

// dispatch merges one batch into runs, issues them, and finishes when
// every inner call has returned. Disjoint runs go out together: one
// after another, unrelated extents would serialise behind this batch.
func (q *coalesceQueue) dispatch(batch []*coalReq) {
	// Drop members whose context already died; they have already
	// returned ctx.Err() to their callers.
	live := batch[:0]
	for _, req := range batch {
		if req.ctx.Err() == nil {
			live = append(live, req)
		}
	}
	sort.SliceStable(live, func(i, j int) bool { return live[i].start < live[j].start })
	// Split into maximal runs of overlapping-or-adjacent extents, capped
	// at MaxSectors, and serve each run with one inner call: the last on
	// this goroutine, the others on one goroutine each.
	var wg sync.WaitGroup
	for i := 0; i < len(live); {
		start, end := live[i].start, live[i].start+len(live[i].bufs)
		j := i + 1
		for j < len(live) && live[j].start <= end {
			e := live[j].start + len(live[j].bufs)
			if e > end {
				if e-start > q.dev.maxSectors {
					break
				}
				end = e
			}
			j++
		}
		run := live[i:j]
		if i = j; i == len(live) {
			q.issue(run, start, end)
		} else {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q.issue(run, start, end)
			}()
		}
	}
	wg.Wait()
	q.finish()
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
	q.inner.Add(1)
	if len(members) > 1 {
		q.merged.Add(uint64(len(members)))
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
			d.scratchFlats.Add(1)
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
// an uncancellable context pins the call for its full duration; a run of
// one runs under its member's own context.
func mergedContext(members []*coalReq) (context.Context, context.CancelFunc) {
	if len(members) == 1 {
		return members[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(len(members)))
	stops := make([]func() bool, len(members))
	for i, req := range members {
		stops[i] = context.AfterFunc(req.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}
