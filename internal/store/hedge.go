package store

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stair/internal/core"
	"stair/internal/store/mem"
)

// Hedged client reads (Config.Hedge) are the "Tail at Scale" defence
// against a column that answers slowly without failing: a single-block
// read whose device outlives the column's tracked p90 latency is solved
// from its own row instead (§4.3), as a degraded read would be, and the
// slow answer is dropped. Only ReadBlock and ReadBlockInto hedge;
// flushes, repairs, scrubs, rebuilds and journal replay always see what
// the devices answered.

const (
	// hedgePercentile of the column's recent read latencies launches the
	// hedge: the slowest tenth of reads, a marginal added sibling load.
	hedgePercentile = 0.9
	// hedgeMinDelay and hedgeMaxDelay clamp the hedge delay, so that a
	// burst of fast samples cannot make hedging frantic nor a burst of
	// slow ones switch it off.
	hedgeMinDelay = 500 * time.Microsecond
	hedgeMaxDelay = 100 * time.Millisecond
	// hedgeWindow is the per-column ring of latency samples.
	hedgeWindow = 256
	// hedgeMinSamples is how many reads a column must have answered
	// before its first hedge — below it there is no trustworthy
	// percentile — and how many more between two recomputations of it.
	hedgeMinSamples = 16
)

// latencyTracker keeps one column's recent primary-read latencies and
// the hedge delay derived from them. The read path only loads delay;
// recording a sample sorts the window once every hedgeMinSamples samples,
// into a buffer the tracker owns.
type latencyTracker struct {
	delay atomic.Int64 // the clamped percentile in ns; 0 until warm

	mu             sync.Mutex
	samples        [hedgeWindow]time.Duration
	sorted         [hedgeWindow]time.Duration
	next, count, n int // n counts samples since the last recomputation
}

// observe records a primary read that began at begin. Only usable
// answers are samples — data, or a typed partial loss: a column failing
// hard and slowly must not teach itself out of being hedged.
func (t *latencyTracker) observe(begin time.Time, err error) {
	if _, partial := AsSectorErrors(err); err != nil && !partial {
		return
	}
	t.record(time.Since(begin))
}

func (t *latencyTracker) record(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[t.next] = d
	t.next = (t.next + 1) % hedgeWindow
	t.count = min(t.count+1, hedgeWindow)
	if t.n++; t.n < hedgeMinSamples {
		return
	}
	t.n = 0
	sorted := t.sorted[:t.count]
	copy(sorted, t.samples[:t.count])
	slices.Sort(sorted)
	q := sorted[min(int(hedgePercentile*float64(t.count)), t.count-1)]
	t.delay.Store(int64(min(max(q, hedgeMinDelay), hedgeMaxDelay)))
}

// hedgedReadLocked is ReadBlockInto's device read of cell with a hedge.
// The primary reads into pooled scratch on its own goroutine; once it
// outlives its column's delay, the caller's goroutine solves the cell
// from its own row straight into dst (solveLocked, seeded with the
// known-down columns). won reports that the solve served dst; otherwise
// err is the primary's answer, and dst holds its bytes when err is nil.
// A primary that loses is not waited for: its answer is dropped and its
// scratch left to the GC, as after a cancelled call, but its latency is
// still a sample — the percentile is of what the column answers, slow
// answers included, and a column that keeps stalling hedges fewer reads
// into its siblings. While the column's tracker is cold the read goes
// straight into dst and teaches the tracker. The caller holds the shard
// mutex.
func (s *Store) hedgedReadLocked(ctx context.Context, sh *lockShard, stripe int, cell core.Cell, dst []byte) (won bool, err error) {
	t := &s.hedge[cell.Col]
	sector := s.devSector(stripe, cell.Row)
	delay := time.Duration(t.delay.Load())
	begin := time.Now()
	if delay == 0 {
		vec := sh.rowvec(1)
		vec[0] = dst
		err = s.devs[cell.Col].ReadSectors(ctx, sector, vec)
		vec[0] = nil
		s.noteRead(ctx, cell.Col, err)
		t.observe(begin, err)
		return false, err
	}
	p := primaryReads.Get().(*primaryRead)
	p.vec[0] = mem.Acquire(s.sectorSize)
	go p.read(ctx, s, cell.Col, sector, t, begin)
	p.timer.Reset(delay)
	select {
	case err = <-p.done:
		p.timer.Stop()
		return false, p.take(ctx, err, dst)
	case <-ctx.Done():
		p.timer.Stop()
		return false, ctx.Err()
	case <-p.timer.C:
	}
	s.c.hedgesLaunched.Add(1)
	_, err = s.solveLocked(ctx, sh, stripe, cell, dst, true, true)
	if err == nil {
		// No repair is queued: the column is slow, not lost, and a repair
		// worker would wait on it under the shard lock. The next scrub
		// owns whatever the primary would have found.
		s.c.hedgeWins.Add(1)
		return true, nil
	}
	if err != errBeyondRow {
		return false, err
	}
	// The row cannot decide the cell: the primary's answer stands.
	select {
	case err = <-p.done:
	case <-ctx.Done():
		return false, ctx.Err()
	}
	if err == nil {
		s.c.hedgeLosses.Add(1)
	} else {
		s.c.hedgeFails.Add(1)
	}
	return false, p.take(ctx, err, dst)
}

// primaryRead is a hedged read's call to the block's own device. It is
// pooled, and goes back to the pool only when its answer was taken over
// a live context: a call abandoned in flight keeps it, scratch and all.
// Its timer is reused across reads, which go 1.23's timers allow: after
// Stop or Reset no stale tick is left in the channel.
type primaryRead struct {
	vec   [][]byte // the one scratch sector
	done  chan error
	timer *time.Timer
}

var primaryReads = sync.Pool{New: func() any {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	return &primaryRead{vec: make([][]byte, 1), done: make(chan error, 1), timer: timer}
}}

func (p *primaryRead) read(ctx context.Context, s *Store, col, sector int, t *latencyTracker, begin time.Time) {
	err := s.devs[col].ReadSectors(ctx, sector, p.vec)
	s.noteRead(ctx, col, err)
	t.observe(begin, err)
	p.done <- err
}

// take hands the primary's answer to the caller: its bytes into dst
// when it has any, and the call back to the pool unless the device may
// still hold its scratch.
func (p *primaryRead) take(ctx context.Context, err error, dst []byte) error {
	if err == nil {
		copy(dst, p.vec[0])
	}
	if ctx.Err() == nil {
		mem.Release(p.vec[0])
		p.vec[0] = nil
		primaryReads.Put(p)
	}
	return err
}
