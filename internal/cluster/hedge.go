package cluster

import (
	"context"
	"sort"
	"sync"
	"time"

	"stair/internal/store"
	"stair/internal/store/mem"
)

// HedgeConfig tunes hedged column reads.
type HedgeConfig struct {
	// Percentile of recent read latencies at which the hedge launches.
	// 0 selects 0.9: a hedge fires on roughly the slowest tenth of
	// reads, so the added sibling load stays marginal while the tail
	// beyond p90 is clipped.
	Percentile float64
	// MinDelay/MaxDelay clamp the computed hedge delay, so a burst of
	// fast samples cannot make hedging frantic nor a burst of slow ones
	// disable it. Zero values select 500µs and 100ms.
	MinDelay time.Duration
	MaxDelay time.Duration
	// Window is the latency sample ring size. 0 selects 256.
	Window int
	// MinSamples is how many completed reads must be observed before
	// the first hedge; below it there is no trustworthy percentile.
	// 0 selects 16.
	MinSamples int
}

func (cfg HedgeConfig) withDefaults() HedgeConfig {
	if cfg.Percentile <= 0 || cfg.Percentile >= 1 {
		cfg.Percentile = 0.9
	}
	if cfg.MinDelay <= 0 {
		cfg.MinDelay = 500 * time.Microsecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 100 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 16
	}
	return cfg
}

// latencyTracker keeps a ring of recent primary-read latencies and
// answers percentile queries over it.
type latencyTracker struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	count   int
}

func newLatencyTracker(window int) *latencyTracker {
	return &latencyTracker{samples: make([]time.Duration, window)}
}

func (t *latencyTracker) record(d time.Duration) {
	t.mu.Lock()
	t.samples[t.next] = d
	t.next = (t.next + 1) % len(t.samples)
	if t.count < len(t.samples) {
		t.count++
	}
	t.mu.Unlock()
}

// percentile returns the p-quantile of the recorded window, or false
// when fewer than minSamples reads have completed.
func (t *latencyTracker) percentile(p float64, minSamples int) (time.Duration, bool) {
	t.mu.Lock()
	if t.count < minSamples {
		t.mu.Unlock()
		return 0, false
	}
	snap := make([]time.Duration, t.count)
	copy(snap, t.samples[:t.count])
	t.mu.Unlock()
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	idx := int(p * float64(len(snap)))
	if idx >= len(snap) {
		idx = len(snap) - 1
	}
	return snap[idx], true
}

// hedgedColumn wraps one column with tail-tolerant reads: when the
// primary read exceeds the tracked latency percentile, the extent is
// reconstructed from the n−1 sibling columns through the code's repair
// path, and the first usable answer wins. Both racers write private
// scratch — the loser may complete long after the caller returned, and
// must not scribble over the caller's buffers.
//
// Only reads hedge. Writes have exactly one home, and the store's
// degraded machinery already covers write-side failures.
type hedgedColumn struct {
	*column
	v       *Volume
	cfg     HedgeConfig
	tracker *latencyTracker
}

func newHedgedColumn(col *column, v *Volume, cfg HedgeConfig) *hedgedColumn {
	cfg = cfg.withDefaults()
	return &hedgedColumn{column: col, v: v, cfg: cfg, tracker: newLatencyTracker(cfg.Window)}
}

// usable reports whether a read outcome can be handed to the store:
// success, or a typed partial loss its repair path knows how to take.
func usable(err error) bool {
	if err == nil {
		return true
	}
	_, ok := store.AsSectorErrors(err)
	return ok
}

// scratchFor builds a private, pool-backed buffer set shaped like bufs
// and returns its backing flat. The flat goes back to the pool only
// when the racer that owns it has delivered its result over a live
// context; an abandoned racer (caller returned first, or context died)
// keeps referencing its scratch, so that flat is left to the GC
// instead — recycling it would let the straggler scribble over
// unrelated data.
func scratchFor(bufs [][]byte, sectorSize int) ([][]byte, []byte) {
	flat := mem.Acquire(len(bufs) * sectorSize)
	out := make([][]byte, len(bufs))
	for i := range out {
		out[i] = flat[i*sectorSize : (i+1)*sectorSize]
	}
	return out, flat
}

func copyOut(dst, src [][]byte) {
	for i := range dst {
		copy(dst[i], src[i])
	}
}

// ReadSectors serves the vectored read with a hedge: primary first,
// reconstruction racer if the primary outlives the tracked percentile.
func (h *hedgedColumn) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if start+len(bufs) > h.v.dataSectors {
		// The extent touches the integrity sidecar region past the data
		// sectors. Sidecar records are per-device metadata — not encoded
		// across columns — so the stripe-shaped reconstruction racer has
		// nothing to rebuild them from; serve directly.
		return h.column.ReadSectors(ctx, start, bufs)
	}
	delay, ok := h.tracker.percentile(h.cfg.Percentile, h.cfg.MinSamples)
	if !ok {
		// Not enough history to hedge: serve directly, feed the tracker.
		begin := time.Now()
		err := h.column.ReadSectors(ctx, start, bufs)
		if usable(err) {
			h.tracker.record(time.Since(begin))
		}
		return err
	}
	if delay < h.cfg.MinDelay {
		delay = h.cfg.MinDelay
	}
	if delay > h.cfg.MaxDelay {
		delay = h.cfg.MaxDelay
	}

	primaryBufs, primaryFlat := scratchFor(bufs, h.SectorSize())
	primary := make(chan error, 1)
	begin := time.Now()
	go func() { primary <- h.column.ReadSectors(ctx, start, primaryBufs) }()

	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case err := <-primary:
		if usable(err) {
			h.tracker.record(time.Since(begin))
			copyOut(bufs, primaryBufs)
		}
		if ctx.Err() == nil {
			mem.Release(primaryFlat)
		}
		return err
	case <-ctx.Done():
		// The primary racer is still running; its scratch stays with it.
		return ctx.Err()
	case <-timer.C:
	}

	// The primary blew its percentile: race a sibling reconstruction.
	h.v.counters.hedgesLaunched.Add(1)
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	hedgeBufs, hedgeFlat := scratchFor(bufs, h.SectorSize())
	hedge := make(chan error, 1)
	go func() { hedge <- h.v.reconstructExtent(hctx, h.idx, start, hedgeBufs) }()

	// Each racer's scratch is released in the arm that receives its
	// result (the racer no longer references it); the loser still in
	// flight when the caller returns keeps its flat, which falls to the
	// GC.
	var primErr error
	primDone, hedgeDone := false, false
	for {
		select {
		case err := <-primary:
			primDone = true
			if usable(err) {
				// Usable outcomes only, as in the other arms: a column failing
				// hard and slowly must not teach itself out of being hedged.
				h.tracker.record(time.Since(begin))
				h.v.counters.hedgeLosses.Add(1)
				copyOut(bufs, primaryBufs)
				if ctx.Err() == nil {
					mem.Release(primaryFlat)
				}
				return err
			}
			if ctx.Err() == nil {
				mem.Release(primaryFlat)
			}
			primErr = err
		case err := <-hedge:
			hedgeDone = true
			if err == nil {
				h.v.counters.hedgeWins.Add(1)
				copyOut(bufs, hedgeBufs)
				if hctx.Err() == nil {
					mem.Release(hedgeFlat)
				}
				return nil
			}
			h.v.counters.hedgeFails.Add(1)
			if hctx.Err() == nil {
				mem.Release(hedgeFlat)
			}
		case <-ctx.Done():
			return ctx.Err()
		}
		if primDone && hedgeDone {
			// Both racers failed hard; the primary's error is the
			// truthful one for the store's degraded bookkeeping.
			return primErr
		}
	}
}
