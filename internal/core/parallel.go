package core

import (
	"fmt"
	"runtime"
	"sync"
)

// Schedules are linear over sector contents byte-for-byte, so a stripe
// can be encoded or repaired by running the same plan independently
// over disjoint sub-ranges of every sector — the multi-core
// parallelisation the paper points at in §6.2.1. Ranges are aligned to
// the plan tile size (so each worker sweeps whole tiles), or to the
// field's symbol width when the sector is under two tiles; each worker
// sees an environment whose cell regions are sliced to its range, so
// workers never touch the same bytes.

// sliceCells returns a view of the environment restricted to [lo, hi).
func sliceCells(cells [][]byte, lo, hi int) [][]byte {
	out := make([][]byte, len(cells))
	for i, s := range cells {
		if s != nil {
			out[i] = s[lo:hi:hi]
		}
	}
	return out
}

// splitRanges partitions [0, size) into at most workers ranges of similar
// length whose boundaries are multiples of align. The last range also
// takes the size%align tail (non-empty only for tile alignment, where
// the sector need not be a whole number of tiles).
func splitRanges(size, align, workers int) [][2]int {
	if workers < 1 {
		workers = 1
	}
	symbols := size / align
	if symbols < workers {
		workers = symbols
	}
	if workers <= 1 {
		return [][2]int{{0, size}}
	}
	var out [][2]int
	per := symbols / workers
	extra := symbols % workers
	off := 0
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		lo := off * align
		hi := (off + n) * align
		out = append(out, [2]int{lo, hi})
		off += n
	}
	out[len(out)-1][1] = size
	return out
}

// runParallel executes a plan across workers over the environment. The
// split falls on tile boundaries so every worker sweeps whole tiles and
// the per-tile cache-residency reasoning still holds. A sector under two
// tiles is split on symbol boundaries instead — a two-byte-symbol range
// may never start on an odd byte — and degrades gracefully toward fewer
// workers (splitRanges caps workers at the unit count).
func (c *Code) runParallel(p *plan, cells [][]byte, sectorSize, workers int) {
	if workers <= 1 {
		c.runPlan(p, cells)
		return
	}
	align := c.f.SymbolBytes()
	if sectorSize >= 2*defaultPlanTile {
		align = defaultPlanTile
	}
	ranges := splitRanges(sectorSize, align, workers)
	if len(ranges) == 1 {
		c.runPlan(p, cells)
		return
	}
	var wg sync.WaitGroup
	for _, rg := range ranges {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			c.runPlan(p, sliceCells(cells, lo, hi))
		}(rg[0], rg[1])
	}
	wg.Wait()
}

// EncodeParallel encodes like Encode but splits the sector payloads
// across the given number of workers (0 selects GOMAXPROCS). All methods
// and both placements are supported; output is byte-identical to the
// serial path.
func (c *Code) EncodeParallel(st *Stripe, m Method, workers int) error {
	if err := c.validateStripe(st); err != nil {
		return err
	}
	p, err := c.planFor(m)
	if err != nil {
		return err
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return fmt.Errorf("core: workers=%d must be ≥ 0", workers)
	}
	e := c.env(st)
	defer c.releaseEnv(e)
	c.runParallel(p, e.cells, st.SectorSize, workers)
	return nil
}

// RepairParallel repairs like Repair but splits the work across workers
// (0 selects GOMAXPROCS).
func (c *Code) RepairParallel(st *Stripe, lost []Cell, workers int) error {
	if err := c.validateStripe(st); err != nil {
		return err
	}
	idxs, err := c.checkLost(lost)
	if err != nil {
		return err
	}
	if len(idxs) == 0 {
		return nil
	}
	pl, err := c.decodePlan(idxs)
	if err != nil {
		return err
	}
	if pl == nil {
		return fmt.Errorf("%w: %d lost cells", ErrUnrecoverable, len(idxs))
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return fmt.Errorf("core: workers=%d must be ≥ 0", workers)
	}
	e := c.env(st)
	defer c.releaseEnv(e)
	c.runParallel(pl, e.cells, st.SectorSize, workers)
	return nil
}
