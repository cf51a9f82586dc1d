package store

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// sweep is the maintenance sweeps' one loop (RebuildDevice, Scrub): it
// visits every stripe once with min(GOMAXPROCS, stripes) stripes in
// flight. Stripes are the store's unit of parallelism — one stripe's
// codec work runs on one goroutine — so a sweep over a volume keeps as
// many cores busy as it has stripes to give them.
//
// Workers claim stripes in ascending order from one cursor. Each visit
// runs fn under the stripe's shard lock, after re-checking closed there
// (past Close's per-shard flush sweep the devices may already be
// closed), so a stripe being swept sees no other reader, writer or
// repairer while stripes in other shards proceed. Worker 0 is the
// caller's goroutine: at GOMAXPROCS=1 the sweep starts no goroutine and
// is the plain one-stripe-at-a-time loop.
//
// pace, shared by every worker, rations the sweep as a whole to its
// rate. A worker claims its stripe before it waits, so none sleeps once
// every stripe is claimed. The first error — ctx's, ErrClosed, or fn's —
// stops every worker from claiming another stripe; it is returned once
// the others have finished the stripe they hold.
func (s *Store) sweep(ctx context.Context, pace *pacer, fn func(sh *lockShard, stripe int) error) error {
	var (
		cursor atomic.Int64
		stop   atomic.Bool
		once   sync.Once
		first  error
	)
	work := func() {
		for !stop.Load() {
			stripe := int(cursor.Add(1) - 1)
			if stripe >= s.stripes {
				return
			}
			err := pace.wait(ctx)
			if err == nil {
				sh := s.shard(stripe)
				sh.mu.Lock()
				err = ErrClosed
				if !s.closed.Load() {
					err = fn(sh, stripe)
				}
				sh.mu.Unlock()
			}
			if err != nil {
				once.Do(func() { first = err })
				stop.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), s.stripes) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return first
}
