package core

import (
	"errors"
	"fmt"
	"slices"
)

// ErrUnrecoverable reports a failure pattern outside the code's coverage
// that peeling cannot repair.
var ErrUnrecoverable = errors.New("core: failure pattern is unrecoverable")

// maxDecodeCacheEntries bounds the per-pattern plan cache. Real
// deployments see few distinct patterns (scrub finds them one at a time);
// the bound only guards against adversarial churn.
const maxDecodeCacheEntries = 256

// peelPlan returns (building, compiling and caching as needed) the plan
// of the whole-stripe peel computing want, cells of lost, when the cells
// of lost are unknown, or ErrUnrecoverable if peeling cannot reach them.
// Caching the compiled plan means repeated repairs of one pattern (the
// scrubber draining a failed chunk stripe by stripe) compile it once.
func (c *Code) peelPlan(lost, want Pattern) (*plan, error) {
	// The key, lost's words and then want's unless it is lost, is built on
	// the stack; only a miss, or a plan moved back young, makes a string.
	var kbuf [256]byte
	key := lost.appendKey(kbuf[:0])
	if !slices.Equal(lost.words, want.words) {
		key = want.appendKey(key)
	}
	c.decodeMu.Lock()
	pl, hit := c.decodeCache[string(key)]
	if !hit {
		if pl, hit = c.decodeOld[string(key)]; hit {
			c.cachePlan(string(key), pl)
		}
	}
	c.decodeMu.Unlock()
	if !hit {
		sch, err := c.buildDecodeSchedule(lost, want)
		if err != nil {
			return nil, err
		}
		if sch != nil {
			// The plan writes only unknown cells, so a real cell it reads
			// and that is not lost is one of its sources.
			pl = c.compilePlan(sch)
			pl.sources = NewPattern(c.n, c.r)
			// Its environment indices below n·r are the stripe's cells.
			for _, o := range pl.ops {
				if src := int(o.Src); o.N > 0 && src < c.n*c.r && !lost.Has(src) {
					pl.sources.Set(src)
				}
			}
		}
		c.decodeMu.Lock()
		c.cachePlan(string(key), pl)
		c.decodeMu.Unlock()
	}
	if pl == nil {
		return nil, fmt.Errorf("%w: %d lost cells", ErrUnrecoverable, lost.Count())
	}
	return pl, nil
}

// cachePlan files pl (nil: proven unrecoverable) under key in the young
// generation of the plan cache. A full young generation becomes the old
// one, dropping the old; a hit there moves a plan back young. So churn
// evicts the patterns idle longest. The caller holds decodeMu.
func (c *Code) cachePlan(key string, pl *plan) {
	if len(c.decodeCache) >= maxDecodeCacheEntries/2 {
		c.decodeOld, c.decodeCache = c.decodeCache, make(map[string]*plan)
	}
	c.decodeCache[key] = pl
}

// decodePeeler returns a peeler for the canonical lost cells: the
// surviving real cells and the global parities are known — stored values
// (Outside) or the zero constants fixed by the extended construction
// (Inside).
func (c *Code) decodePeeler(lost []int) *peeler {
	p := newPeeler(c)
	for col := 0; col < c.n; col++ {
		for row := 0; row < c.r; row++ {
			p.known[c.cellIdx(row, col)] = true
		}
	}
	for _, idx := range lost {
		p.known[idx] = false
	}
	for l := 0; l < c.mPrime; l++ {
		for h := 0; h < c.e[l]; h++ {
			p.markKnown(c.r+h, c.n+l, c.placement == Inside)
		}
	}
	return p
}

// lossesPerChunk counts the cells of lost in each chunk.
func (c *Code) lossesPerChunk(lost Pattern) []int {
	perChunk := make([]int, c.n)
	for _, cell := range lost.AppendCells(nil) {
		perChunk[cell.Col]++
	}
	return perChunk
}

// deferMostLost marks as deferred the m chunks with the most lost cells
// (§4.3), breaking ties toward lower column indices. Chunks without
// losses are never deferred.
func (c *Code) deferMostLost(p *peeler, perChunk []int) {
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
// the lost cells plus all intermediate/virtual/dummy symbols are unknown,
// and the peel stops once the wanted cells are known. If the structured
// order stalls (possible only outside the constructed coverage), an
// unrestricted generic peel is attempted as a best-effort fallback. The
// schedule is pruned to the ops want depends on. Returns nil when
// peeling cannot reach want.
func (c *Code) buildDecodeSchedule(lostCells, wantCells Pattern) (*schedule, error) {
	lost, want := c.canonical(lostCells), c.canonical(wantCells)
	p := c.decodePeeler(lost)
	c.deferMostLost(p, c.lossesPerChunk(lostCells))
	if err := p.practical(want); err != nil {
		return nil, err
	}
	if !p.allKnown(want) {
		g := c.decodePeeler(lost)
		if err := g.generic(want); err != nil {
			return nil, err
		}
		if !g.allKnown(want) {
			return nil, nil
		}
		p = g
	}
	p.sched.prune(want, c.rows*c.cols)
	return p.sched, nil
}

// ReadPlan is what PlanRead resolves a (lost, want) pattern pair to: the
// cells to read, and how Decode computes want from them. The zero value is
// no plan.
type ReadPlan struct {
	// Sources lists, sorted by (Col, Row), the cells that must be read to
	// have every cell of want when the cells of lost are unreadable:
	// want's cells that are not lost, and the sources of the plan
	// decoding the others. (With Outside placement that plan also reads
	// the stripe's Globals, which are not cells.)
	Sources []Cell
	// The plan: with local, the row solve of row's lost columns cols for
	// the wanted one, col; else the peel pl, nil when no wanted cell is
	// lost. planned says PlanRead filled it.
	cols           []int
	row, col       int
	pl             *plan
	planned, local bool
	// PlanRead's scratch: want's lost cells, and the sources.
	wanted, src Pattern
}

// PlanRead resolves (lost, want), patterns of this code's stripe, into
// rp, reusing its memory. One wanted lost cell whose row holds at most m
// losses is solved from its own row — the local step of §4.3: its sources
// are the row solve's, the n−m lowest other columns of the row, which
// RepairRow reads. Any other pattern takes the whole-stripe peel pruned to
// want's lost cells. ErrUnrecoverable says the peel cannot reach them, nor
// can it with more cells lost. Once rp has grown to the pattern, only a
// peel that misses the plan cache allocates.
func (c *Code) PlanRead(rp *ReadPlan, lost, want Pattern) error {
	rp.planned = false
	if err := errors.Join(c.checkPattern(lost), c.checkPattern(want)); err != nil {
		return err
	}
	if len(rp.src.words) != len(lost.words) || rp.src.r != c.r {
		rp.wanted, rp.src = NewPattern(c.n, c.r), NewPattern(c.n, c.r)
	}
	for k, w := range want.words {
		rp.wanted.words[k], rp.src.words[k] = w&lost.words[k], w&^lost.words[k]
	}
	wanted := rp.wanted.Count()
	one, cols := Cell{Row: -1}, rp.cols[:0]
	if wanted == 1 {
		i := rp.wanted.Next(0)
		one = Cell{Col: i / c.r, Row: i % c.r}
		for col := range c.n {
			if lost.Has(col*c.r + one.Row) {
				cols = append(cols, col)
			}
		}
	}
	local, pl := wanted == 1 && len(cols) <= c.m, (*plan)(nil)
	if local {
		var hbuf [16]int
		for _, col := range c.rowHave(hbuf[:0], cols) {
			rp.src.Set(col*c.r + one.Row)
		}
	} else if wanted > 0 {
		var err error
		if pl, err = c.peelPlan(lost, rp.wanted); err != nil {
			return err
		}
		rp.src.Union(pl.sources)
	}
	rp.Sources = rp.src.AppendCells(rp.Sources[:0])
	rp.cols, rp.row, rp.col, rp.pl, rp.planned, rp.local = cols, one.Row, one.Col, pl, true, local
	return nil
}

// Decode reconstructs in place the lost cells of the want rp was planned
// for, reading only rp.Sources: no other cell of st needs valid content.
// It writes lost cells only — want's, and any other the peel computes on
// the way to them — and ignores their current contents.
func (c *Code) Decode(st *Stripe, rp *ReadPlan) error {
	if rp == nil || !rp.planned {
		return errors.New("core: Decode needs a ReadPlan that PlanRead filled")
	}
	if rp.local && st != nil && len(st.Cells) == c.n*c.r {
		// A row solve reads and writes its row only, which RepairRow
		// checks. The row's cell vector is a pooled environment's: the
		// kernel's RunOps would move one on the stack to the heap.
		e := c.envScratch()
		defer c.releaseEnv(e)
		for col := range c.n {
			e.cells[col] = st.Cells[col*c.r+rp.row]
		}
		return c.RepairRow(e.cells[:c.n], rp.cols, rp.col)
	}
	if err := c.validateStripe(st); err != nil || rp.pl == nil {
		return err
	}
	e := c.env(st)
	defer c.releaseEnv(e)
	c.runPlan(rp.pl, e.cells, st.SectorSize)
	return nil
}

// Repair reconstructs the lost cells of a stripe in place: Decode of the
// peel planned for want = lost. The lost cells' current contents are
// ignored. It returns ErrUnrecoverable when the pattern exceeds the
// coverage defined by m and e (and is not otherwise peelable by luck).
func (c *Code) Repair(st *Stripe, lost []Cell) error {
	if len(lost) == 0 {
		return c.validateStripe(st)
	}
	pl, err := c.repairPlan(lost)
	if err != nil {
		return err
	}
	return c.Decode(st, &ReadPlan{pl: pl, planned: true})
}

// repairPlan is the peel of every cell of lost, the plan of the []Cell
// entry points, which convert to a pattern here.
func (c *Code) repairPlan(lost []Cell) (*plan, error) {
	p, err := c.patternOf(lost)
	if err != nil {
		return nil, err
	}
	return c.peelPlan(p, p)
}

// CanRecover reports whether Repair would succeed on a failure pattern,
// without touching any data: it builds (and caches) the plan Repair runs,
// the peel PlanRead plans with want = lost. The answer is peel-based —
// the practical order of §4.3, then an unrestricted row/column fixpoint —
// so true is a guarantee and covers every pattern within (m, e); false
// for a pattern beyond the coverage means peeling stalls, not that the
// generator's rank rules it out.
func (c *Code) CanRecover(lost []Cell) (bool, error) {
	_, err := c.repairPlan(lost)
	if errors.Is(err, ErrUnrecoverable) {
		return false, nil
	}
	return err == nil, err
}

// CoverageContains reports whether a failure pattern lies within the
// coverage the code is constructed to tolerate: at most m chunks may be
// fully failed (any number of lost sectors), and after setting those
// aside, the per-chunk loss counts of the remaining chunks, sorted
// ascending, must fit under the (largest) elements of e. Patterns within
// the coverage are always recoverable (paper §4.2); patterns outside it
// may still happen to peel, which CanRecover detects.
func (c *Code) CoverageContains(lost []Cell) (bool, error) {
	p, err := c.patternOf(lost)
	if err != nil {
		return false, err
	}
	// The m most-affected chunks are absorbed by device-failure slots;
	// the non-zero counts of the rest must fit e's largest slots.
	counts := c.lossesPerChunk(p)
	slices.Sort(counts)
	nz := counts[:len(counts)-c.m]
	for len(nz) > 0 && nz[0] == 0 {
		nz = nz[1:]
	}
	if len(nz) > c.mPrime {
		return false, nil
	}
	for i, v := range nz {
		if v > c.e[c.mPrime-len(nz)+i] {
			return false, nil
		}
	}
	return true, nil
}
