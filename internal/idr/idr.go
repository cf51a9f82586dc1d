// Package idr implements the intra-device redundancy (IDR) baseline the
// STAIR paper compares against (§2, §8; Dholakia et al.): each data chunk
// independently reserves its bottom ϵ sectors for a systematic (r, r−ϵ)
// column code, protecting that chunk against up to ϵ sector failures,
// while m row-parity chunks protect against device failures.
//
// IDR is space-hungry: protecting against a burst of β sector failures
// requires β redundant sectors in each of the n−m data chunks — β·(n−m)
// sectors per stripe — where STAIR with e = (1, β) spends β+1 (§2's
// worked example).
package idr

import (
	"errors"
	"fmt"

	"stair/internal/ec"
	"stair/internal/gf"
	"stair/internal/rs"
)

// ErrUnrecoverable reports a failure pattern outside the scheme's
// coverage.
var ErrUnrecoverable = errors.New("idr: failure pattern is unrecoverable")

// Config describes an IDR-protected stripe.
type Config struct {
	N       int // chunks per stripe
	R       int // sectors per chunk
	M       int // row-parity chunks (device-failure tolerance)
	Epsilon int // intra-chunk redundant sectors per data chunk
	W       int // Galois field word size (0 → 8)
}

// Code is a compiled IDR scheme instance.
type Code struct {
	n, r, m, eps int
	f            *gf.Field
	crow         *rs.Code // (n, n−m) across devices, per row
	ccol         *rs.Code // (r, r−ϵ) within each data chunk
}

// New validates and compiles an IDR instance.
func New(cfg Config) (*Code, error) {
	if cfg.N < 1 || cfg.R < 1 {
		return nil, fmt.Errorf("idr: N=%d, R=%d must be ≥ 1", cfg.N, cfg.R)
	}
	if cfg.M < 0 || cfg.M >= cfg.N {
		return nil, fmt.Errorf("idr: M=%d must be in [0, N)", cfg.M)
	}
	if cfg.Epsilon < 0 || cfg.Epsilon >= cfg.R {
		return nil, fmt.Errorf("idr: Epsilon=%d must be in [0, R)", cfg.Epsilon)
	}
	if cfg.W == 0 {
		cfg.W = 8
	}
	if cfg.N > 1<<cfg.W || cfg.R > 1<<cfg.W {
		return nil, fmt.Errorf("idr: geometry does not fit GF(2^%d)", cfg.W)
	}
	f := gf.Get(cfg.W)
	crow, err := rs.NewCauchy(f, cfg.N, cfg.N-cfg.M)
	if err != nil {
		return nil, fmt.Errorf("idr: row code: %w", err)
	}
	ccol, err := rs.NewCauchy(f, cfg.R, cfg.R-cfg.Epsilon)
	if err != nil {
		return nil, fmt.Errorf("idr: column code: %w", err)
	}
	return &Code{n: cfg.N, r: cfg.R, m: cfg.M, eps: cfg.Epsilon, f: f, crow: crow, ccol: ccol}, nil
}

// N returns the number of chunks per stripe.
func (c *Code) N() int { return c.n }

// R returns the number of sectors per chunk.
func (c *Code) R() int { return c.r }

// M returns the number of row-parity chunks.
func (c *Code) M() int { return c.m }

// Epsilon returns the per-chunk intra-redundancy depth.
func (c *Code) Epsilon() int { return c.eps }

// RedundantSectors returns the redundancy spent per stripe beyond the m
// parity chunks: ϵ·(n−m) intra-chunk sectors.
func (c *Code) RedundantSectors() int { return c.eps * (c.n - c.m) }

// DataCells returns the cells a caller fills before Encode: the top
// r−ϵ sectors of each of the n−m data chunks.
func (c *Code) DataCells() []ec.Cell {
	var out []ec.Cell
	for col := 0; col < c.n-c.m; col++ {
		for row := 0; row < c.r-c.eps; row++ {
			out = append(out, ec.Cell{Col: col, Row: row})
		}
	}
	return out
}

// ParityCells returns the cells Encode fills: intra-chunk parity sectors
// and the m row-parity chunks.
func (c *Code) ParityCells() []ec.Cell {
	var out []ec.Cell
	for col := 0; col < c.n-c.m; col++ {
		for row := c.r - c.eps; row < c.r; row++ {
			out = append(out, ec.Cell{Col: col, Row: row})
		}
	}
	for col := c.n - c.m; col < c.n; col++ {
		for row := 0; row < c.r; row++ {
			out = append(out, ec.Cell{Col: col, Row: row})
		}
	}
	return out
}

func (c *Code) checkStripe(cells [][]byte) (int, error) {
	if len(cells) != c.n*c.r {
		return 0, fmt.Errorf("idr: stripe has %d cells, want %d", len(cells), c.n*c.r)
	}
	size := len(cells[0])
	for i, s := range cells {
		if len(s) != size {
			return 0, fmt.Errorf("idr: cell %d has %d bytes, want %d", i, len(s), size)
		}
	}
	if size == 0 || size%c.f.SymbolBytes() != 0 {
		return 0, fmt.Errorf("idr: bad sector size %d", size)
	}
	return size, nil
}

func (c *Code) sector(cells [][]byte, col, row int) []byte { return cells[col*c.r+row] }

// Encode fills intra-chunk parity in every data chunk, then the m
// row-parity chunks.
func (c *Code) Encode(cells [][]byte) error {
	if _, err := c.checkStripe(cells); err != nil {
		return err
	}
	// Intra-chunk parity for data chunks.
	for col := 0; col < c.n-c.m; col++ {
		data := make([][]byte, c.r-c.eps)
		for row := range data {
			data[row] = c.sector(cells, col, row)
		}
		parity := make([][]byte, c.eps)
		for k := range parity {
			parity[k] = c.sector(cells, col, c.r-c.eps+k)
		}
		if err := c.ccol.EncodeRegions(data, parity); err != nil {
			return err
		}
	}
	// Row parity across devices (covers intra-parity sectors too).
	for row := 0; row < c.r; row++ {
		data := make([][]byte, c.n-c.m)
		for j := range data {
			data[j] = c.sector(cells, j, row)
		}
		parity := make([][]byte, c.m)
		for k := range parity {
			parity[k] = c.sector(cells, c.n-c.m+k, row)
		}
		if err := c.crow.EncodeRegions(data, parity); err != nil {
			return err
		}
	}
	return nil
}

// CoverageContains reports whether a pattern lies within the IDR
// coverage: at most m fully-failed chunks; every other chunk loses at
// most ϵ sectors.
func (c *Code) CoverageContains(lost []ec.Cell) bool {
	perChunk := make(map[int]int)
	for _, cell := range lost {
		perChunk[cell.Col]++
	}
	full := 0
	for _, cnt := range perChunk {
		if cnt > c.eps {
			full++
		}
	}
	return full <= c.m
}

// CanRecover reports whether Repair would succeed on a pattern of cells
// inside the stripe. IDR has no recovery by luck outside its coverage —
// Repair attempts exactly the patterns CoverageContains admits — so the
// two answers coincide.
func (c *Code) CanRecover(lost []ec.Cell) bool { return c.CoverageContains(lost) }

// Repair reconstructs lost cells in place: chunks with ≤ ϵ losses repair
// locally via the column code; up to m worse chunks repair via row
// parity.
func (c *Code) Repair(cells [][]byte, lost []ec.Cell) error {
	if _, err := c.checkStripe(cells); err != nil {
		return err
	}
	perChunk := make(map[int][]int)
	for _, cell := range lost {
		if cell.Col < 0 || cell.Col >= c.n || cell.Row < 0 || cell.Row >= c.r {
			return fmt.Errorf("idr: lost cell %v out of range", cell)
		}
		perChunk[cell.Col] = append(perChunk[cell.Col], cell.Row)
	}
	var deferred []int
	for col, rows := range perChunk {
		if len(rows) > c.eps {
			deferred = append(deferred, col)
			continue
		}
		// Local intra-chunk repair.
		regions := make([][]byte, c.r)
		present := make([]bool, c.r)
		for row := 0; row < c.r; row++ {
			regions[row] = c.sector(cells, col, row)
			present[row] = true
		}
		for _, row := range rows {
			present[row] = false
		}
		if err := c.ccol.ReconstructRegions(regions, present); err != nil {
			return fmt.Errorf("idr: chunk %d local repair: %w", col, err)
		}
	}
	if len(deferred) == 0 {
		return nil
	}
	if len(deferred) > c.m {
		return fmt.Errorf("%w: %d chunks exceed ϵ=%d losses", ErrUnrecoverable, len(deferred), c.eps)
	}
	isDeferred := make(map[int]bool, len(deferred))
	for _, col := range deferred {
		isDeferred[col] = true
	}
	// Row-by-row repair of deferred chunks (treat them as erased).
	for row := 0; row < c.r; row++ {
		regions := make([][]byte, c.n)
		present := make([]bool, c.n)
		for col := 0; col < c.n; col++ {
			regions[col] = c.sector(cells, col, row)
			present[col] = !isDeferred[col]
		}
		if err := c.crow.ReconstructRegions(regions, present); err != nil {
			return fmt.Errorf("idr: row %d repair: %w", row, err)
		}
	}
	return nil
}
