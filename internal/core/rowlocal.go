package core

import (
	"errors"
	"fmt"
	"slices"

	"stair/internal/ec"
	"stair/internal/gf"
	"stair/internal/matrix"
)

// Row-local repair is the first step of the paper's practical decoding
// (§4.3) on its own: the n real cells of a stripe row are a C_row
// codeword punctured of its intermediate parities, so any n−m of them
// determine the rest. A lost sector whose row holds at most m losses is
// therefore one κ = n−m term dot product over its own row — no other
// row, no virtual parity, no upstairs pass — which is what lets a
// degraded read fetch n−m sectors instead of the stripe. PlanRead takes
// this path for one wanted cell whose row allows it.
//
// The coefficients depend on the set of lost columns only, not on the
// row, so there are at most Σ_{k≤m} C(n,k) distinct solves per code.
// They live in their own table (Code.rowSolves), filled straight from
// crow.SolveCoeffs on first use and never evicted: they never pass
// through the grid peeler, and they neither enter nor displace the
// whole-stripe plans of decodeCache.

// ErrRowNotLocal reports a row holding more than m lost cells: its
// surviving cells do not determine it, and the stripe's other rows (the
// peel of Decode and Repair) have to.
var ErrRowNotLocal = errors.New("core: row has more than m lost cells")

// rowSolve is the compiled row-local repair of one set of lost columns.
type rowSolve struct {
	have  []int  // the n−m source columns: the lowest not lost
	plans []plan // plans[i] computes the i-th lost column from have
}

// rowHave appends to dst the columns the row solve of a sorted set of
// lost columns reads: the n−m lowest outside the set.
func (c *Code) rowHave(dst, lost []int) []int {
	for col, k := 0, 0; len(dst) < c.n-c.m; col++ {
		if k < len(lost) && lost[k] == col {
			k++
		} else {
			dst = append(dst, col)
		}
	}
	return dst
}

// rowSolveFor returns (solving and compiling on first use) the row-local
// repair of a sorted, duplicate-free set of 1..m lost columns. Each of
// its plans computes one lost column over a row's cells indexed by
// column: its row of the solve, lowered by ec.Solve.Lower, one
// single-destination op per source.
func (c *Code) rowSolveFor(lost []int) (*rowSolve, error) {
	// The key is the set as a one-row pattern, on the stack for n ≤ 256.
	var wbuf [4]uint64
	var kbuf [32]byte
	row := Pattern{r: 1, words: append(wbuf[:0], make([]uint64, (c.n+63)/64)...)}
	for _, col := range lost {
		row.Set(col)
	}
	key := row.appendKey(kbuf[:0])
	c.rowMu.Lock()
	rs := c.rowSolves[string(key)]
	c.rowMu.Unlock()
	if rs != nil {
		return rs, nil
	}
	k, kappa := len(lost), c.n-c.m
	cols := append(c.rowHave(make([]int, 0, kappa+k), lost), lost...)
	set := cols[kappa:]
	rs = &rowSolve{have: cols[:kappa:kappa], plans: make([]plan, k)}
	coeffs, err := c.crow.SolveCoeffs(rs.have, set)
	if err != nil {
		return nil, fmt.Errorf("core: row-local solve of columns %v: %w", set, err)
	}
	// Built once per column set, so out of as few allocations as the
	// shapes allow: one backing array per kind and one coefficient row.
	sv := ec.Solve{Ops: make([]gf.Op, 0, k*kappa)}
	cells := make([]int32, 0, k*(kappa+1))
	krow := matrix.New(c.f, 1, kappa)
	for i, col := range set {
		for j := range kappa {
			krow.Set(0, j, coeffs.At(i, j))
		}
		first, from := len(sv.Ops), len(cells)
		sv.Lower(krow, rs.have, set[i:i+1])
		for _, o := range sv.Ops[first:] {
			if o.N > 0 {
				cells = append(cells, o.Src)
			}
		}
		cells = append(cells, int32(col))
		rs.plans[i] = plan{ops: sv.Ops[first:len(sv.Ops):len(sv.Ops)], cells: cells[from:len(cells):len(cells)], stages: 1}
	}
	c.rowMu.Lock()
	c.rowSolves[string(key)] = rs
	c.rowMu.Unlock()
	return rs, nil
}

// RepairRow reconstructs one lost cell of a stripe row from surviving
// cells of the same row. cells holds the row's n sectors indexed by
// column; lost lists the columns that are unavailable and want is the
// column to compute (lost or not, it is never used as a source). The
// sources are the n−m lowest columns outside lost ∪ {want}: only those
// entries of cells are read, only cells[want] is written, and every other
// entry may be nil.
//
// A row with more than m unavailable columns is refused with
// ErrRowNotLocal before any byte is written.
func (c *Code) RepairRow(cells [][]byte, lost []int, want int) error {
	if len(cells) != c.n {
		return fmt.Errorf("core: row has %d cells, want n=%d", len(cells), c.n)
	}
	// The column set stays on the stack for any m a store runs with.
	var cbuf [8]int
	cols := append(append(cbuf[:0], lost...), want)
	slices.Sort(cols)
	cols = slices.Compact(cols)
	if lo, hi := cols[0], cols[len(cols)-1]; lo < 0 || hi >= c.n {
		return fmt.Errorf("core: row columns %d..%d out of range (n=%d)", lo, hi, c.n)
	}
	if len(cols) > c.m {
		return fmt.Errorf("%w: %d columns, m=%d", ErrRowNotLocal, len(cols), c.m)
	}
	rs, err := c.rowSolveFor(cols)
	if err != nil {
		return err
	}
	size := len(cells[want])
	if size == 0 || size%c.f.SymbolBytes() != 0 {
		return fmt.Errorf("core: sector size %d must be a positive multiple of %d", size, c.f.SymbolBytes())
	}
	for _, col := range rs.have {
		if len(cells[col]) != size {
			return fmt.Errorf("core: row cell %d has %d bytes, want %d", col, len(cells[col]), size)
		}
	}
	i, _ := slices.BinarySearch(cols, want)
	c.runPlan(&rs.plans[i], cells, size)
	return nil
}
