package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Pattern is a set of a stripe's real cells — lost, wanted, a plan's
// sources — a bit a cell, chunk-major: cell (Col, Row) of a stripe of r
// rows is index Col·r + Row, so index order is (Col, Row) order, chunk by
// chunk as a device holds them. Its width is the stripe's n·r (n and r
// may each reach 65 536 at w=16). Like a slice, it refers to its words:
// copies share them.
type Pattern struct {
	r     int
	words []uint64
}

// NewPattern returns the empty pattern of a stripe of n columns of r rows.
func NewPattern(n, r int) Pattern {
	return Pattern{r: r, words: make([]uint64, (n*r+63)/64)}
}

// Set adds the cell at index i to p.
func (p Pattern) Set(i int) { p.words[i>>6] |= 1 << (i & 63) }

// Has reports whether the cell at index i is in p.
func (p Pattern) Has(i int) bool { return p.words[i>>6]&(1<<(i&63)) != 0 }

// Union adds q's cells, of a stripe of p's shape, to p.
func (p Pattern) Union(q Pattern) {
	for k, w := range q.words {
		p.words[k] |= w
	}
}

// Clear empties p.
func (p Pattern) Clear() { clear(p.words) }

// Count returns the number of cells in p.
func (p Pattern) Count() int {
	count := 0
	for _, w := range p.words {
		count += bits.OnesCount64(w)
	}
	return count
}

// Next returns the least index of p's cells at or after i, or −1.
func (p Pattern) Next(i int) int {
	for k := i >> 6; k < len(p.words); k, i = k+1, 0 {
		if w := p.words[k] >> (i & 63) << (i & 63); w != 0 {
			return k<<6 | bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AppendCells appends p's cells to dst in index — (Col, Row) — order.
func (p Pattern) AppendCells(dst []Cell) []Cell {
	col, base := 0, 0
	for k, w := range p.words {
		for ; w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			for ; i-base >= p.r; base += p.r {
				col++
			}
			dst = append(dst, Cell{Col: col, Row: i - base})
		}
	}
	return dst
}

// appendKey appends p's words to dst, little-endian, so that bit i of p
// is bit i%8 of byte i/8: the form the plan caches key on.
func (p Pattern) appendKey(dst []byte) []byte {
	for _, w := range p.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// patternOf returns the pattern of cells, which must lie in the stripe.
func (c *Code) patternOf(cells []Cell) (Pattern, error) {
	p := NewPattern(c.n, c.r)
	for _, cell := range cells {
		if uint(cell.Col) >= uint(c.n) || uint(cell.Row) >= uint(c.r) {
			return Pattern{}, fmt.Errorf("core: cell %v out of range (n=%d, r=%d)", cell, c.n, c.r)
		}
		p.Set(cell.Col*c.r + cell.Row)
	}
	return p, nil
}

// checkPattern reports a pattern not of this code's stripe, or holding a
// cell past its n·r.
func (c *Code) checkPattern(p Pattern) error {
	if p.r != c.r || len(p.words) != (c.n*c.r+63)/64 || p.Next(c.n*c.r) >= 0 {
		return fmt.Errorf("core: pattern is not a set of cells of an n=%d, r=%d stripe", c.n, c.r)
	}
	return nil
}

// canonical returns the canonical indices of p's cells, ascending.
func (c *Code) canonical(p Pattern) []int {
	idxs := make([]int, 0, p.Count())
	for _, cell := range p.AppendCells(nil) {
		idxs = append(idxs, c.cellIdx(cell.Row, cell.Col))
	}
	slices.Sort(idxs)
	return idxs
}
