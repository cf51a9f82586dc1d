package core

import (
	"fmt"

	"stair/internal/ec"
)

// Cell addresses one sector within the real stripe: chunk (device) column
// Col in [0, N) and sector row Row in [0, R). It is the repository's one
// cell type, shared with the SD and IDR baselines.
type Cell = ec.Cell

// CellClass labels what a real stripe cell stores.
type CellClass int

const (
	// ClassData marks a cell holding user data.
	ClassData CellClass = iota
	// ClassRowParity marks a cell in one of the m row-parity chunks.
	ClassRowParity
	// ClassGlobalParity marks an inside global parity cell (a stair
	// cell); only present with Placement == Inside.
	ClassGlobalParity
)

func (c CellClass) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassRowParity:
		return "row-parity"
	case ClassGlobalParity:
		return "global-parity"
	default:
		return fmt.Sprintf("CellClass(%d)", int(c))
	}
}

// Canonical-grid geometry. The canonical stripe (§4.1) is a
// (R+e_max)×(N+m') grid of symbols:
//
//	cols 0..n-m-1      data chunks
//	cols n-m..n-1      row parity chunks
//	cols n..n+m'-1     intermediate parity chunks (never stored)
//	rows 0..r-1        real rows
//	rows r..r+emax-1   augmented rows (virtual parities, globals, dummies)
//
// Cells are addressed by the linear index row*(n+m')+col.

func (c *Code) cellIdx(row, col int) int { return row*c.cols + col }

func (c *Code) cellRC(idx int) (row, col int) { return idx / c.cols, idx % c.cols }

// isReal reports whether the canonical cell is part of the stored stripe.
func (c *Code) isReal(row, col int) bool { return row < c.r && col < c.n }

// stairOf returns (l, h) if (row, col) is an inside global parity cell
// ĝ_{h,l}, i.e. one of the bottom e_l cells of the l-th rightmost data
// chunk (paper Fig. 5); ok is false otherwise.
func (c *Code) stairOf(row, col int) (l, h int, ok bool) {
	if c.placement != Inside || c.mPrime == 0 {
		return 0, 0, false
	}
	base := c.n - c.m - c.mPrime
	if col < base || col >= c.n-c.m || row >= c.r {
		return 0, 0, false
	}
	l = col - base
	start := c.r - c.e[l]
	if row < start {
		return 0, 0, false
	}
	return l, row - start, true
}

// globalOf returns (l, h) if the canonical cell (row, col) is the corner
// global parity g_{h,l} (augmented row h of intermediate chunk l with
// h < e_l); ok is false for real cells, virtual parities and dummies.
func (c *Code) globalOf(row, col int) (l, h int, ok bool) {
	if row < c.r || col < c.n {
		return 0, 0, false
	}
	l = col - c.n
	h = row - c.r
	if h >= c.e[l] {
		return 0, 0, false // dummy
	}
	return l, h, true
}

// classOf classifies a real stripe cell.
func (c *Code) classOf(row, col int) CellClass {
	if col >= c.n-c.m {
		return ClassRowParity
	}
	if _, _, ok := c.stairOf(row, col); ok {
		return ClassGlobalParity
	}
	return ClassData
}

// CellName renders a canonical cell with the paper's notation: d_{i,j}
// data, p_{i,k} row parity, ĝ_{h,l} inside global, p'_{i,l} intermediate,
// d*_{h,j} / p*_{h,k} virtual parities, g_{h,l} outside global, "dummy"
// for dummy globals. Used by the tracer to reproduce Tables 2 and 3.
func (c *Code) CellName(row, col int) string {
	switch {
	case row < c.r && col < c.n-c.m:
		if l, h, ok := c.stairOf(row, col); ok {
			return fmt.Sprintf("ĝ%d,%d", h, l)
		}
		return fmt.Sprintf("d%d,%d", row, col)
	case row < c.r && col < c.n:
		return fmt.Sprintf("p%d,%d", row, col-(c.n-c.m))
	case row < c.r:
		return fmt.Sprintf("p'%d,%d", row, col-c.n)
	case col < c.n-c.m:
		return fmt.Sprintf("d*%d,%d", row-c.r, col)
	case col < c.n:
		return fmt.Sprintf("p*%d,%d", row-c.r, col-(c.n-c.m))
	default:
		if _, _, ok := c.globalOf(row, col); ok {
			return fmt.Sprintf("g%d,%d", row-c.r, col-c.n)
		}
		return "dummy"
	}
}
