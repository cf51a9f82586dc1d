package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// ErrUnrecoverable reports a failure pattern outside the code's coverage
// that peeling cannot repair.
var ErrUnrecoverable = errors.New("core: failure pattern is unrecoverable")

// maxDecodeCacheEntries bounds the per-pattern schedule cache. Real
// deployments see few distinct patterns (scrub finds them one at a time);
// the bound only guards against adversarial churn.
const maxDecodeCacheEntries = 256

func (c *Code) checkLost(lost []Cell) ([]int, error) {
	idxs := make([]int, 0, len(lost))
	for _, cell := range lost {
		if cell.Col < 0 || cell.Col >= c.n || cell.Row < 0 || cell.Row >= c.r {
			return nil, fmt.Errorf("core: lost cell %v out of range (n=%d, r=%d)", cell, c.n, c.r)
		}
		idxs = append(idxs, c.cellIdx(cell.Row, cell.Col))
	}
	sort.Ints(idxs)
	return slices.Compact(idxs), nil
}

// appendLostKey renders a sorted lost-cell index list as the decode
// cache's key, appended to dst.
func appendLostKey(dst []byte, idxs []int) []byte {
	for i, v := range idxs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}

// decodePlan returns (building, compiling and caching as needed) the
// repair plan for a lost-cell pattern, or nil if the pattern is
// unrecoverable. Caching the compiled plan — not just the schedule —
// means repeated repairs of the same pattern (the scrubber draining a
// failed chunk stripe by stripe) pay the source-major compilation once.
func (c *Code) decodePlan(idxs []int) (*plan, error) {
	// The key is built on the stack and looked up without becoming a
	// string; only a miss pays for one.
	var kbuf [256]byte
	key := appendLostKey(kbuf[:0], idxs)
	c.decodeMu.Lock()
	pl, hit := c.decodeCache[string(key)]
	c.decodeMu.Unlock()
	if hit {
		return pl, nil
	}
	sch, err := c.buildDecodeSchedule(idxs)
	if err != nil {
		return nil, err
	}
	if sch != nil {
		pl = c.compilePlan(sch)
	}
	c.decodeMu.Lock()
	if len(c.decodeCache) >= maxDecodeCacheEntries {
		c.decodeCache = make(map[string]*plan)
	}
	c.decodeCache[string(key)] = pl
	c.decodeMu.Unlock()
	return pl, nil
}

// seedDecodeKnowns marks surviving real cells and the global parities as
// known: stored values (Outside) or the zero constants fixed by the
// extended construction (Inside).
func (c *Code) seedDecodeKnowns(p *peeler, lost map[int]bool) {
	for col := 0; col < c.n; col++ {
		for row := 0; row < c.r; row++ {
			if idx := c.cellIdx(row, col); !lost[idx] {
				p.known[idx] = true
			}
		}
	}
	for l := 0; l < c.mPrime; l++ {
		for h := 0; h < c.e[l]; h++ {
			p.markKnown(c.r+h, c.n+l, c.placement == Inside)
		}
	}
}

// deferMostLost marks as deferred the m chunks with the most lost cells
// (§4.3), breaking ties toward lower column indices. Chunks without
// losses are never deferred.
func (c *Code) deferMostLost(p *peeler, idxs []int) {
	perChunk := make([]int, c.n)
	for _, idx := range idxs {
		_, col := c.cellRC(idx)
		perChunk[col]++
	}
	for k := 0; k < c.m; k++ {
		best, bestCol := 0, -1
		for col := 0; col < c.n; col++ {
			if !p.deferred[col] && perChunk[col] > best {
				best, bestCol = perChunk[col], col
			}
		}
		if bestCol < 0 {
			return
		}
		p.deferred[bestCol] = true
	}
}

// buildDecodeSchedule runs the practical peeling order of §4.3 over the
// canonical stripe: surviving real cells (and global parities) are known,
// lost cells plus all intermediate/virtual/dummy symbols are unknown.
// If the structured order stalls (possible only outside the constructed
// coverage), an unrestricted generic peel is attempted as a best-effort
// fallback. Returns nil when the pattern is unrecoverable.
func (c *Code) buildDecodeSchedule(idxs []int) (*schedule, error) {
	lost := make(map[int]bool, len(idxs))
	for _, i := range idxs {
		lost[i] = true
	}
	p := newPeeler(c)
	c.seedDecodeKnowns(p, lost)
	c.deferMostLost(p, idxs)
	if err := p.practical(idxs); err != nil {
		return nil, err
	}
	if !p.allKnown(idxs) {
		g := newPeeler(c)
		c.seedDecodeKnowns(g, lost)
		if err := g.generic(idxs); err != nil {
			return nil, err
		}
		if !g.allKnown(idxs) {
			return nil, nil
		}
		p = g
	}
	p.sched.prune(idxs, c.rows*c.cols)
	return p.sched, nil
}

// Repair reconstructs the lost cells of a stripe in place. The lost cells'
// current contents are ignored. It returns ErrUnrecoverable when the
// pattern exceeds the coverage defined by m and e (and is not otherwise
// peelable by luck).
func (c *Code) Repair(st *Stripe, lost []Cell) error {
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
	e := c.env(st)
	defer c.releaseEnv(e)
	c.runPlan(pl, e.cells)
	return nil
}

// CanRecover reports whether Repair would succeed on a failure pattern,
// without touching any data: it builds (and caches) the repair schedule.
// The answer is peel-based — the practical order of §4.3, then an
// unrestricted row/column fixpoint — so true is a guarantee and covers
// every pattern within (m, e); false for a pattern beyond the coverage
// means peeling stalls, not that the generator's rank rules it out.
func (c *Code) CanRecover(lost []Cell) (bool, error) {
	idxs, err := c.checkLost(lost)
	if err != nil {
		return false, err
	}
	pl, err := c.decodePlan(idxs)
	if err != nil {
		return false, err
	}
	return pl != nil, nil
}

// RepairCost returns the number of Mult_XORs actually executed to repair
// the given pattern, or ErrUnrecoverable.
func (c *Code) RepairCost(lost []Cell) (int, error) {
	idxs, err := c.checkLost(lost)
	if err != nil {
		return 0, err
	}
	pl, err := c.decodePlan(idxs)
	if err != nil {
		return 0, err
	}
	if pl == nil {
		return 0, ErrUnrecoverable
	}
	return pl.sch.actualCost, nil
}

// CoverageContains reports whether a failure pattern lies within the
// coverage the code is constructed to tolerate: at most m chunks may be
// fully failed (any number of lost sectors), and after setting those
// aside, the per-chunk loss counts of the remaining chunks, sorted
// ascending, must fit under the (largest) elements of e. Patterns within
// the coverage are always recoverable (paper §4.2); patterns outside it
// may still happen to peel, which CanRecover detects.
func (c *Code) CoverageContains(lost []Cell) (bool, error) {
	idxs, err := c.checkLost(lost)
	if err != nil {
		return false, err
	}
	perChunk := make([]int, c.n)
	for _, idx := range idxs {
		_, col := c.cellRC(idx)
		perChunk[col]++
	}
	counts := append([]int{}, perChunk...)
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	// The m most-affected chunks are absorbed by device-failure slots.
	counts = counts[min(c.m, len(counts)):]
	// Remaining non-zero counts must fit e's largest slots.
	var nz []int
	for _, v := range counts {
		if v > 0 {
			nz = append(nz, v)
		}
	}
	if len(nz) > c.mPrime {
		return false, nil
	}
	sort.Ints(nz)
	offset := c.mPrime - len(nz)
	for i, v := range nz {
		if v > c.e[offset+i] {
			return false, nil
		}
	}
	return true, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
