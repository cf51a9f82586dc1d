package store

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stair/internal/core"
)

// Hedged client reads (Config.Hedge) are the "Tail at Scale" defence
// against a column that answers slowly without failing: a single-block
// read whose device outlives the column's tracked p90 latency is solved
// from its own row instead (§4.3), as a degraded read would be, and the
// slow answer is dropped. Only ReadBlock and ReadBlockInto hedge;
// flushes, repairs, scrubs, rebuilds and journal replay always see what
// the devices answered. Primaries run on the store's I/O helpers
// (wave.go), hedgeMaxPrimaries at most per column, and Close joins them.

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
	// hedgeMaxPrimaries bounds a column's primaries, and so those out on
	// the I/O helpers; a read its row cannot decide, or a cold tracker's,
	// makes one past it.
	hedgeMaxPrimaries = 16
)

// latencyTracker keeps one column's recent primary-read latencies, the
// hedge delay derived from them and its parked primaries. The read path
// only loads delay; recording a sample sorts the window once every
// hedgeMinSamples samples.
type latencyTracker struct {
	delay atomic.Int64 // the clamped percentile in ns; 0 until warm

	mu             sync.Mutex
	samples        [hedgeWindow]time.Duration
	sorted         [hedgeWindow]time.Duration
	next, count, n int // n counts samples since the last recomputation
	// parked holds the column's primaries between reads (a sync.Pool
	// would drop them at each GC): each one's done holds an answer no
	// caller waits for, or will once its helper is through. made counts
	// the column's primaries, parked or not.
	parked []*ioCall
	made   int
}

// observe records the answer of a primary read that began at begin. Only
// usable answers are samples — data, or a typed partial loss: a column
// failing hard and slowly must not teach itself out of being hedged.
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
// The primary reads into its record's scratch on an I/O helper; once it
// outlives its column's delay, or at once when the column's primaries
// are all out on slow calls, the caller solves the cell from its own row
// straight into dst (solveLocked, seeded with the known-down columns).
// won reports that the solve served dst; otherwise err is the primary's
// answer, and dst holds its bytes when err is nil. A primary that loses
// is not waited for, but is still a sample — the percentile is of what
// the column answers, slow answers included, and a column that keeps
// stalling hedges fewer reads into its siblings. A cold tracker waits
// for the primary. The caller holds the shard mutex.
func (s *Store) hedgedReadLocked(ctx context.Context, sh *lockShard, stripe int, cell core.Cell, dst []byte) (won bool, err error) {
	delay := time.Duration(s.hedge[cell.Col].delay.Load())
	sector := s.devSector(stripe, cell.Row)
	p := s.startPrimary(ctx, cell.Col, sector, delay == 0)
	if p != nil {
		var tick <-chan time.Time
		if delay > 0 {
			sh.timer.Reset(delay) // leaves no stale tick (go 1.23)
			tick = sh.timer.C
		}
		if answered, err := s.await(p, dst, tick); answered {
			return false, err
		}
	}
	s.c.hedgesLaunched.Add(1)
	_, err = s.solveLocked(ctx, sh, stripe, cell, dst, true, true)
	if err != errBeyondRow {
		s.park(p)
		// A win queues no repair: the column is slow, not lost, and a
		// repair worker would wait on it under the shard lock. The next
		// scrub owns whatever the primary would have found.
		if err == nil {
			s.c.hedgeWins.Add(1)
		}
		return err == nil, err
	}
	// The row cannot decide the cell: a primary's answer stands.
	if p == nil {
		p = s.startPrimary(ctx, cell.Col, sector, true)
	}
	if _, err = s.await(p, dst, nil); err == nil {
		s.c.hedgeLosses.Add(1)
	} else {
		s.c.hedgeFails.Add(1)
	}
	return false, err
}

// startPrimary hands a read of col's sector to an I/O helper, in a parked
// primary whose answer is in, or in a new one while the column has fewer
// than hedgeMaxPrimaries, or when force is set. It returns nil when the
// column's primaries are all out on calls. One whose call ended with its
// context goes to the GC: the device may still hold its scratch.
func (s *Store) startPrimary(ctx context.Context, col, sector int, force bool) *ioCall {
	var p *ioCall
	t := &s.hedge[col]
	t.mu.Lock()
	for i := len(t.parked) - 1; i >= 0 && p == nil; i-- {
		select {
		case err := <-t.parked[i].done:
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				t.made--
			} else {
				p = t.parked[i]
			}
			t.parked = slices.Delete(t.parked, i, i+1)
		default:
		}
	}
	if p == nil && (force || t.made < hedgeMaxPrimaries) {
		t.made++
		p = &ioCall{op: callRead, bufs: [][]byte{make([]byte, s.sectorSize)}, done: make(chan error, 1)}
	}
	t.mu.Unlock()
	if p == nil {
		return nil // the column is known slow: hedge at once
	}
	p.ctx, p.col, p.start, p.begin = ctx, col, sector, time.Now()
	s.handOff(p)
	return p
}

// await waits for p's answer, copied into dst when it is data, and then
// parks p; or for tick. The call ends with its context, as the caller's
// own read would.
func (s *Store) await(p *ioCall, dst []byte, tick <-chan time.Time) (answered bool, err error) {
	select {
	case err = <-p.done:
	case <-tick:
		return false, nil
	}
	if err == nil {
		copy(dst, p.bufs[0])
	}
	p.done <- err // a parked record holds its answer
	s.park(p)
	return true, err
}

// park puts a primary p back on its column's list; nil is no primary.
func (s *Store) park(p *ioCall) {
	if p == nil {
		return
	}
	t := &s.hedge[p.col]
	t.mu.Lock()
	t.parked = append(t.parked, p)
	t.mu.Unlock()
}
