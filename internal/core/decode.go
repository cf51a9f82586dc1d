package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrUnrecoverable reports a failure pattern outside the code's coverage
// that peeling cannot repair.
var ErrUnrecoverable = errors.New("core: failure pattern is unrecoverable")

// maxDecodeCacheEntries bounds the per-pattern schedule cache. Real
// deployments see few distinct patterns (scrub finds them one at a time);
// the bound only guards against adversarial churn.
const maxDecodeCacheEntries = 256

// checkCells reports the first cell outside the real stripe.
func (c *Code) checkCells(cells []Cell) error {
	for _, cell := range cells {
		if uint(cell.Col) >= uint(c.n) || uint(cell.Row) >= uint(c.r) {
			return fmt.Errorf("core: cell %v out of range (n=%d, r=%d)", cell, c.n, c.r)
		}
	}
	return nil
}

// checkLost returns the canonical indices of the lost cells, sorted and
// without duplicates.
func (c *Code) checkLost(lost []Cell) ([]int, error) {
	if err := c.checkCells(lost); err != nil {
		return nil, err
	}
	idxs := make([]int, 0, len(lost))
	for _, cell := range lost {
		idxs = append(idxs, c.cellIdx(cell.Row, cell.Col))
	}
	sort.Ints(idxs)
	return slices.Compact(idxs), nil
}

// appendLostKey renders a sorted lost-cell index list as the decode
// cache's key, appended to dst: four bytes an index, so that a key of
// two lists joined by a '|' is never as long as a key of one.
func appendLostKey(dst []byte, idxs []int) []byte {
	for _, v := range idxs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// decodePlanFor returns (building, compiling and caching as needed) the
// plan that computes the cells of want — sorted canonical indices, a
// subset of lost — when the cells of lost are unknown, or nil if peeling
// cannot reach them. Caching the compiled plan — not just the schedule —
// means repeated repairs of the same pattern (the scrubber draining a
// failed chunk stripe by stripe) pay the source-major compilation once.
func (c *Code) decodePlanFor(lost, want []int) (*plan, error) {
	// The key is built on the stack and looked up without becoming a
	// string; only a miss pays for one. A whole repair keys on lost alone.
	var kbuf [256]byte
	key := appendLostKey(kbuf[:0], lost)
	if !slices.Equal(lost, want) {
		key = appendLostKey(append(key, '|'), want)
	}
	c.decodeMu.Lock()
	pl, hit := c.decodeCache[string(key)]
	c.decodeMu.Unlock()
	if hit {
		return pl, nil
	}
	sch, err := c.buildDecodeSchedule(lost, want)
	if err != nil {
		return nil, err
	}
	if sch != nil {
		// The plan writes only unknown cells, so a real cell it reads and
		// that is not lost is one of its sources.
		pl = c.compilePlan(sch)
		for _, st := range pl.stages {
			for _, g := range slices.Concat(st.inits, st.groups) {
				if row, col := c.cellRC(int(g.src)); c.isReal(row, col) && !slices.Contains(lost, int(g.src)) {
					pl.sources = append(pl.sources, Cell{Col: col, Row: row})
				}
			}
		}
		SortCells(pl.sources)
		pl.sources = slices.Compact(pl.sources)
	}
	c.decodeMu.Lock()
	if len(c.decodeCache) >= maxDecodeCacheEntries {
		c.decodeCache = make(map[string]*plan)
	}
	c.decodeCache[string(key)] = pl
	c.decodeMu.Unlock()
	return pl, nil
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
// the lost cells plus all intermediate/virtual/dummy symbols are unknown,
// and the peel stops once the wanted cells are known. If the structured
// order stalls (possible only outside the constructed coverage), an
// unrestricted generic peel is attempted as a best-effort fallback. The
// schedule is pruned to the ops want depends on. Returns nil when
// peeling cannot reach want.
func (c *Code) buildDecodeSchedule(lost, want []int) (*schedule, error) {
	p := c.decodePeeler(lost)
	c.deferMostLost(p, lost)
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

// peelPlan returns the plan of the whole-stripe peel for want, cells of
// lost without repeats — all of lost when nil or as many — or
// ErrUnrecoverable.
func (c *Code) peelPlan(lost, want []Cell) (*plan, error) {
	idxs, err := c.checkLost(lost)
	if err != nil {
		return nil, err
	}
	wantIdxs := idxs
	if want != nil && len(want) < len(idxs) {
		var wbuf [8]int
		wantIdxs = wbuf[:0]
		for _, cell := range want {
			wantIdxs = append(wantIdxs, c.cellIdx(cell.Row, cell.Col))
		}
		sort.Ints(wantIdxs)
	}
	pl, err := c.decodePlanFor(idxs, wantIdxs)
	if err == nil && pl == nil {
		err = fmt.Errorf("%w: %d lost cells", ErrUnrecoverable, len(idxs))
	}
	return pl, err
}

// ReadPlan is what PlanRead resolves a (lost, want) pair to: the cells to
// read, and how Decode computes want from them. The zero value is no plan.
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
	// PlanRead's scratch: want's lost cells, and what each cell is to
	// the call (a cell* value), chunk-major (col·r + row), so that a call
	// is linear in its inputs.
	wanted []Cell
	cells  []uint8
}

// What a cell is to a PlanRead call: lost, lost and wanted, or a source.
const cellLost, cellWanted, cellSource = 1, 2, 3

// PlanRead resolves (lost, want) into rp, reusing its memory. One wanted
// lost cell whose row holds at most m losses is solved from its own row —
// the local step of §4.3: its sources are the row solve's, the n−m lowest
// other columns of the row, which RepairRow reads. Any other pattern takes
// the whole-stripe peel pruned to want's lost cells. ErrUnrecoverable says
// the peel cannot reach them, nor can it with more cells lost. Once rp has
// grown to the pattern, only a peel that misses the plan cache allocates.
func (c *Code) PlanRead(rp *ReadPlan, lost, want []Cell) error {
	rp.planned = false
	if err := errors.Join(c.checkCells(lost), c.checkCells(want)); err != nil {
		return err
	}
	if len(rp.cells) < c.n*c.r {
		rp.cells = make([]uint8, c.n*c.r)
	}
	is := rp.cells[:c.n*c.r]
	defer clear(is)
	for _, cell := range lost {
		is[cell.Col*c.r+cell.Row] = cellLost
	}
	wanted, cols := rp.wanted[:0], rp.cols[:0]
	for _, cell := range want {
		switch i := cell.Col*c.r + cell.Row; is[i] {
		case cellLost:
			wanted, is[i] = append(wanted, cell), cellWanted
		case 0:
			is[i] = cellSource
		}
	}
	one := Cell{Row: -1}
	if len(wanted) == 1 {
		one = wanted[0]
	}
	for _, cell := range lost {
		if cell.Row != one.Row {
			continue
		}
		if i, found := slices.BinarySearch(cols, cell.Col); !found {
			cols = slices.Insert(cols, i, cell.Col)
		}
	}
	// The plan's sources come sorted; with cells of want's own, all of
	// them are merged in (Col, Row) order through is.
	local, pl, srcs := len(wanted) == 1 && len(cols) <= c.m, (*plan)(nil), rp.Sources[:0]
	if local {
		var hbuf [16]int
		for _, col := range c.rowHave(hbuf[:0], cols) {
			srcs = append(srcs, Cell{Col: col, Row: one.Row})
		}
	} else if len(wanted) > 0 {
		var err error
		if pl, err = c.peelPlan(lost, wanted); err != nil {
			return err
		}
		srcs = append(srcs, pl.sources...)
	}
	if len(wanted) < len(want) {
		for _, cell := range srcs {
			is[cell.Col*c.r+cell.Row] = cellSource
		}
		srcs = srcs[:0]
		for i, at := range is {
			if at == cellSource {
				srcs = append(srcs, Cell{Col: i / c.r, Row: i % c.r})
			}
		}
	}
	rp.Sources, rp.cols, rp.wanted, rp.row, rp.col, rp.pl, rp.planned, rp.local = srcs, cols, wanted, one.Row, one.Col, pl, true, local
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
		// checks.
		var cbuf [16][]byte
		cells := cbuf[:0]
		for col := 0; col < c.n; col++ {
			cells = append(cells, st.Cells[col*c.r+rp.row])
		}
		return c.RepairRow(cells, rp.cols, rp.col)
	}
	if err := c.validateStripe(st); err != nil || rp.pl == nil {
		return err
	}
	e := c.env(st)
	defer c.releaseEnv(e)
	c.runPlan(rp.pl, e.cells)
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
	pl, err := c.peelPlan(lost, nil)
	if err != nil {
		return err
	}
	return c.Decode(st, &ReadPlan{pl: pl, planned: true})
}

// CanRecover reports whether Repair would succeed on a failure pattern,
// without touching any data: it builds (and caches) the plan Repair runs,
// the peel PlanRead plans with want = lost. The answer is peel-based —
// the practical order of §4.3, then an unrestricted row/column fixpoint —
// so true is a guarantee and covers every pattern within (m, e); false
// for a pattern beyond the coverage means peeling stalls, not that the
// generator's rank rules it out.
func (c *Code) CanRecover(lost []Cell) (bool, error) {
	_, err := c.peelPlan(lost, nil)
	if errors.Is(err, ErrUnrecoverable) {
		return false, nil
	}
	return err == nil, err
}

// RepairCost returns the number of Mult_XORs actually executed to repair
// the given pattern, or ErrUnrecoverable.
func (c *Code) RepairCost(lost []Cell) (int, error) {
	pl, err := c.peelPlan(lost, nil)
	if err != nil {
		return 0, err
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
