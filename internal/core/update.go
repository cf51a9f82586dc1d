package core

import (
	"fmt"

	"stair/internal/gf"
)

// Update overwrites one data cell and incrementally patches every parity
// cell that depends on it, using the uneven parity relations of §5.2:
// for each affected parity p with coefficient a, p ^= a·(old ^ new).
// newData must be SectorSize bytes. Only ClassData cells can be updated.
// Update touches the cell and its ParityDependencies and nothing else,
// so those are the only cells of st whose contents must be valid.
func (c *Code) Update(st *Stripe, cell Cell, newData []byte) error {
	return c.UpdateWith(st, cell, newData, new(UpdateScratch))
}

// UpdateScratch is Update's working memory — the delta region and the
// cell vector of the parity patch. A caller that updates in a loop keeps
// one and passes it to UpdateWith, which then allocates nothing. The
// zero value is ready; a scratch must not be shared between concurrent
// calls.
type UpdateScratch struct {
	delta []byte
	cells [][]byte
}

// compileUpdates compiles each data cell's parity patch (§5.2 uneven
// parity relations, source-major) into a plan over the cell vector
// [delta, dataDeps[ord]'s parity cells in order]: the delta region is
// read once per four affected parity sectors. The plans share two
// backing arrays.
func (c *Code) compileUpdates() {
	total := 0
	for _, deps := range c.dataDeps {
		total += len(deps)
	}
	c.updPlans = make([]plan, len(c.dataDeps))
	ops, cells := make([]gf.Op, 0, total), make([]int32, 0, total+len(c.dataDeps))
	var tabs []*gf.MulTable
	for ord, deps := range c.dataDeps {
		from, first := len(cells), len(ops)
		cells, tabs = append(cells, 0), tabs[:0]
		for i, pr := range deps {
			cells = append(cells, int32(i+1))
			tabs = append(tabs, c.f.Table(pr.coeff))
		}
		ops = gf.AppendOps(ops, true, 0, cells[from+1:], tabs)
		c.updPlans[ord] = plan{ops: ops[first:len(ops):len(ops)], cells: cells[from:len(cells):len(cells)], stages: 1}
	}
}

// UpdateWith is Update on caller-provided scratch.
func (c *Code) UpdateWith(st *Stripe, cell Cell, newData []byte, sc *UpdateScratch) error {
	if err := c.validateStripe(st); err != nil {
		return err
	}
	class, err := c.Class(cell)
	if err != nil {
		return err
	}
	if class != ClassData {
		return fmt.Errorf("core: cell %v is %v, not data", cell, class)
	}
	if len(newData) != st.SectorSize {
		return fmt.Errorf("core: new data has %d bytes, want %d", len(newData), st.SectorSize)
	}
	ord := c.dataOrd[c.cellIdx(cell.Row, cell.Col)]
	old := st.Sector(cell.Col, cell.Row)
	if cap(sc.delta) < st.SectorSize {
		sc.delta = make([]byte, st.SectorSize)
	}
	delta := sc.delta[:st.SectorSize]
	copy(delta, old)
	gf.XORRegion(delta, newData)
	deps := c.dataDeps[ord]
	if cap(sc.cells) <= len(deps) {
		sc.cells = make([][]byte, 0, len(deps)+1)
	}
	cells := append(sc.cells[:0], delta)
	for _, pr := range deps {
		cells = append(cells, c.stored(st, int(pr.cell)))
	}
	c.runPlan(&c.updPlans[ord], cells, st.SectorSize)
	copy(old, newData)
	// Keep the grown vector, not the stripe memory it pointed into.
	clear(cells)
	sc.cells = cells
	return nil
}

// UpdatePenalty returns the number of parity sectors that must be
// rewritten when the given data cell changes (§6.3).
func (c *Code) UpdatePenalty(cell Cell) (int, error) {
	class, err := c.Class(cell)
	if err != nil {
		return 0, err
	}
	if class != ClassData {
		return 0, fmt.Errorf("core: cell %v is %v, not data", cell, class)
	}
	ord := c.dataOrd[c.cellIdx(cell.Row, cell.Col)]
	return len(c.dataDeps[ord]), nil
}

// MeanUpdatePenalty returns the update penalty averaged over all data
// cells — the quantity plotted in the paper's Figures 14 and 15.
func (c *Code) MeanUpdatePenalty() float64 {
	if len(c.dataDeps) == 0 {
		return 0
	}
	total := 0
	for _, deps := range c.dataDeps {
		total += len(deps)
	}
	return float64(total) / float64(len(c.dataDeps))
}

// ParityDependencies returns the cells of every parity sector affected by
// the given data cell, exposing the §5.2 parity-relation structure
// (Property 5.1). Outside globals are reported with Col == N+l, Row == h.
func (c *Code) ParityDependencies(cell Cell) ([]Cell, error) {
	class, err := c.Class(cell)
	if err != nil {
		return nil, err
	}
	if class != ClassData {
		return nil, fmt.Errorf("core: cell %v is %v, not data", cell, class)
	}
	ord := c.dataOrd[c.cellIdx(cell.Row, cell.Col)]
	out := make([]Cell, 0, len(c.dataDeps[ord]))
	for _, pr := range c.dataDeps[ord] {
		row, col := c.cellRC(int(pr.cell))
		if l, h, ok := c.globalOf(row, col); ok {
			out = append(out, Cell{Col: c.n + l, Row: h})
			continue
		}
		out = append(out, Cell{Col: col, Row: row})
	}
	return out, nil
}
