// Package sd implements a sector-disk (SD) code comparator in the style
// of Plank & Blaum (FAST '13 / ACM TOS '14), the baseline the STAIR paper
// evaluates against (§6).
//
// An SD code for (n, r, m, s) devotes m entire chunks plus s individual
// sectors of a stripe to parity and tolerates the failure of any m chunks
// plus any s additional sectors. Known constructions exist only for
// s ≤ 3 and rely on published searches.
//
// Substitution note (see DESIGN.md): the paper benchmarks Plank's C
// implementation whose coefficients come from those searches. This
// package reproduces the same code shape — per-row parity constraints
// plus s dense global constraints over the whole stripe, encoded by the
// standard method with no parity reuse and decoded by a full linear
// solve — and verifies each constructed instance against its claimed
// coverage on the canonical worst case plus a sample of random failure
// patterns, regenerating the global constraint rows (deterministically
// seeded) if verification fails. This preserves both the computational
// shape and the fault coverage that the paper's comparisons rely on.
package sd

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"stair/internal/ec"
	"stair/internal/gf"
	"stair/internal/matrix"
)

// ErrUnrecoverable reports a failure pattern the code cannot repair.
var ErrUnrecoverable = errors.New("sd: failure pattern is unrecoverable")

// Config describes an SD code instance.
type Config struct {
	N int // chunks per stripe
	R int // sectors per chunk
	M int // chunk (device) failures tolerated
	S int // additional sector failures tolerated (construction verified for S ≤ 3)
	W int // Galois field word size; 0 selects 8 or 16 automatically
}

const (
	// exhaustiveLimit caps the pattern count for exhaustive coverage
	// verification. Geometries whose full pattern space (m-chunk
	// subsets × s-sector subsets) fits under it are verified
	// exhaustively; construction then guarantees the SD property.
	// Larger geometries are sample-verified, matching the search-based
	// nature of published SD constructions.
	exhaustiveLimit = 200000
	// verifySamples is the number of random failure patterns checked at
	// construction beyond the canonical worst case, when the pattern
	// space is too large to enumerate.
	verifySamples = 64
)

// Code is a compiled SD code. Immutable and safe for concurrent use.
type Code struct {
	cfg  Config
	n, r int
	m, s int
	f    *gf.Field

	// H is the (m·r+s) × (n·r) parity-check matrix; cell (col,row) maps
	// to variable row*n+col (row-major, matching the SD papers).
	h *matrix.Matrix

	dataCells   []ec.Cell
	parityCells []ec.Cell
	isParity    []bool // indexed row*n+col

	// gen[p] holds the dense coefficients of parity p over data cells:
	// parity[p] = Σ gen[p][d] · data[d] (standard encoding, no reuse).
	gen *matrix.Matrix // (m·r+s) × len(dataCells)

	// dataDeps[d] counts/lists parity cells affected by data cell d.
	dataDeps [][]int
}

// New constructs and verifies an SD code.
func New(cfg Config) (*Code, error) {
	if cfg.N < 1 || cfg.R < 1 {
		return nil, fmt.Errorf("sd: N=%d and R=%d must be ≥ 1", cfg.N, cfg.R)
	}
	if cfg.M < 0 || cfg.M >= cfg.N {
		return nil, fmt.Errorf("sd: M=%d must be in [0, N)", cfg.M)
	}
	if cfg.S < 0 || cfg.S > cfg.R {
		return nil, fmt.Errorf("sd: S=%d must be in [0, R] (globals live in one chunk)", cfg.S)
	}
	if cfg.M+1 > cfg.N && cfg.S > 0 {
		return nil, fmt.Errorf("sd: need a data chunk to host global parities")
	}
	var widths []int
	switch cfg.W {
	case 0:
		// Like the paper (§6.2.1), pick the smallest word size for
		// which a verified construction is found; SD codes frequently
		// need a wider field than STAIR's w=8.
		widths = []int{8, 16}
	case 8, 16:
		widths = []int{cfg.W}
	default:
		return nil, fmt.Errorf("sd: unsupported W=%d", cfg.W)
	}
	for _, w := range widths {
		if cfg.N*cfg.R > 1<<w {
			continue
		}
		c := &Code{cfg: cfg, n: cfg.N, r: cfg.R, m: cfg.M, s: cfg.S, f: gf.Get(w)}
		c.indexCells()
		// Try the Vandermonde-style global rows first (the published
		// construction shape), then salted random rows until the
		// instance verifies. Salt 0 is the unsalted construction.
		attempts := 8
		if w == widths[len(widths)-1] {
			attempts = 50
		}
		for salt := 0; salt < attempts; salt++ {
			if err := c.buildH(salt); err != nil {
				continue
			}
			if err := c.buildGenerator(); err != nil {
				continue
			}
			if c.verify() {
				c.buildDeps()
				return c, nil
			}
		}
	}
	return nil, fmt.Errorf("sd: could not construct a verified instance for %+v", cfg)
}

// W returns the Galois field word size the construction settled on.
func (c *Code) W() int { return c.f.W() }

func (c *Code) indexCells() {
	c.isParity = make([]bool, c.n*c.r)
	// Row parity chunks: the last m columns.
	for col := c.n - c.m; col < c.n; col++ {
		for row := 0; row < c.r; row++ {
			c.isParity[row*c.n+col] = true
			c.parityCells = append(c.parityCells, ec.Cell{Col: col, Row: row})
		}
	}
	// Global parities: the bottom s sectors of the last data chunk.
	gcol := c.n - c.m - 1
	for k := 0; k < c.s; k++ {
		row := c.r - 1 - k
		c.isParity[row*c.n+gcol] = true
		c.parityCells = append(c.parityCells, ec.Cell{Col: gcol, Row: row})
	}
	for row := 0; row < c.r; row++ {
		for col := 0; col < c.n; col++ {
			if !c.isParity[row*c.n+col] {
				c.dataCells = append(c.dataCells, ec.Cell{Col: col, Row: row})
			}
		}
	}
}

// buildH assembles the parity-check matrix: m Reed-Solomon constraints
// per row plus s global constraints. Salt 0 uses Vandermonde-power
// globals (coefficient α^{(m+t)·ℓ} for stripe position ℓ); other salts
// draw seeded random coefficients.
func (c *Code) buildH(salt int) error {
	q := c.m*c.r + c.s
	c.h = matrix.New(c.f, q, c.n*c.r)
	row := 0
	for i := 0; i < c.r; i++ {
		for z := 0; z < c.m; z++ {
			for j := 0; j < c.n; j++ {
				c.h.Set(row, i*c.n+j, c.f.Exp(2, z*j))
			}
			row++
		}
	}
	if salt == 0 {
		for t := 0; t < c.s; t++ {
			for l := 0; l < c.n*c.r; l++ {
				c.h.Set(row, l, c.f.Exp(2, (c.m+t)*l%(c.f.Size()-1)))
			}
			row++
		}
		return nil
	}
	rng := rand.New(rand.NewSource(int64(salt)*7919 + int64(c.n*1000+c.r*100+c.m*10+c.s)))
	for t := 0; t < c.s; t++ {
		for l := 0; l < c.n*c.r; l++ {
			c.h.Set(row, l, uint32(1+rng.Intn(c.f.Size()-1)))
		}
		row++
	}
	return nil
}

func (c *Code) varOf(cell ec.Cell) int { return cell.Row*c.n + cell.Col }

// buildGenerator solves H for the parity positions: with H = [H_D|H_P]
// (columns split by data/parity), parity = (H_P)^{-1}·H_D·data.
func (c *Code) buildGenerator() error {
	q := c.m*c.r + c.s
	pcols := make([]int, q)
	for i, cell := range c.parityCells {
		pcols[i] = c.varOf(cell)
	}
	dcols := make([]int, len(c.dataCells))
	for i, cell := range c.dataCells {
		dcols[i] = c.varOf(cell)
	}
	hp := c.h.SelectCols(pcols)
	hpInv, err := hp.Invert()
	if err != nil {
		return fmt.Errorf("sd: parity submatrix singular: %w", err)
	}
	c.gen = hpInv.Mul(c.h.SelectCols(dcols))
	return nil
}

func (c *Code) buildDeps() {
	c.dataDeps = make([][]int, len(c.dataCells))
	for p := 0; p < c.gen.Rows(); p++ {
		for d := 0; d < c.gen.Cols(); d++ {
			if c.gen.At(p, d) != 0 {
				c.dataDeps[d] = append(c.dataDeps[d], p)
			}
		}
	}
}

// verify checks the claimed coverage: exhaustively when the pattern
// space fits under exhaustiveLimit, otherwise on the canonical worst
// case plus a seeded sample of random patterns.
func (c *Code) verify() bool {
	if count, ok := c.patternSpaceSize(); ok && count <= exhaustiveLimit {
		return c.verifyExhaustive()
	}
	var worst []ec.Cell
	for col := 0; col < c.m; col++ {
		for row := 0; row < c.r; row++ {
			worst = append(worst, ec.Cell{Col: col, Row: row})
		}
	}
	for k := 0; k < c.s; k++ {
		worst = append(worst, ec.Cell{Col: c.m % c.n, Row: k})
	}
	if c.m+c.s > 0 && !c.patternSolvable(worst) {
		return false
	}
	rng := rand.New(rand.NewSource(int64(c.n*7 + c.r*11 + c.m*13 + c.s*17)))
	for trial := 0; trial < verifySamples; trial++ {
		lost := c.randomCoveredPattern(rng)
		if !c.patternSolvable(lost) {
			return false
		}
	}
	return true
}

// patternSpaceSize returns C(n, m) × C(n·r − m·r, s), guarding overflow.
func (c *Code) patternSpaceSize() (int, bool) {
	chunkSets := binomial(c.n, c.m)
	sectorSets := binomial((c.n-c.m)*c.r, c.s)
	if chunkSets < 0 || sectorSets < 0 {
		return 0, false
	}
	total := chunkSets * sectorSets
	if chunkSets != 0 && total/chunkSets != sectorSets {
		return 0, false
	}
	return total, true
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i)
		if res < 0 {
			return -1
		}
		res /= i + 1
	}
	return res
}

// verifyExhaustive checks every m-chunk subset combined with every
// s-sector subset of the surviving cells.
func (c *Code) verifyExhaustive() bool {
	ok := true
	var lost []ec.Cell
	forEachCombination(c.n, c.m, func(chunks []int) bool {
		failed := make([]bool, c.n)
		for _, col := range chunks {
			failed[col] = true
		}
		var base, survivors []ec.Cell
		for col := 0; col < c.n; col++ {
			for row := 0; row < c.r; row++ {
				if failed[col] {
					base = append(base, ec.Cell{Col: col, Row: row})
				} else {
					survivors = append(survivors, ec.Cell{Col: col, Row: row})
				}
			}
		}
		forEachCombination(len(survivors), c.s, func(idx []int) bool {
			lost = append(lost[:0], base...)
			for _, i := range idx {
				lost = append(lost, survivors[i])
			}
			ok = c.patternSolvable(lost)
			return ok
		})
		return ok
	})
	return ok
}

// forEachCombination visits every k-subset of 0..n-1; the visitor returns
// false to stop early.
func forEachCombination(n, k int, visit func([]int) bool) {
	if k == 0 {
		visit(nil)
		return
	}
	if k > n {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !visit(idx) {
			return
		}
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func (c *Code) randomCoveredPattern(rng *rand.Rand) []ec.Cell {
	cols := rng.Perm(c.n)
	var lost []ec.Cell
	for i := 0; i < c.m; i++ {
		for row := 0; row < c.r; row++ {
			lost = append(lost, ec.Cell{Col: cols[i], Row: row})
		}
	}
	seen := map[ec.Cell]bool{}
	for len(seen) < c.s {
		cell := ec.Cell{Col: cols[c.m+rng.Intn(c.n-c.m)], Row: rng.Intn(c.r)}
		if !seen[cell] {
			seen[cell] = true
			lost = append(lost, cell)
		}
	}
	return lost
}

// patternSolvable reports whether the lost positions' parity-check
// submatrix has full column rank.
func (c *Code) patternSolvable(lost []ec.Cell) bool {
	if len(lost) == 0 {
		return true
	}
	if len(lost) > c.h.Rows() {
		return false
	}
	cols := make([]int, len(lost))
	for i, cell := range lost {
		cols[i] = c.varOf(cell)
	}
	sub := c.h.SelectCols(cols)
	return sub.Rank() == len(lost)
}

// N returns the number of chunks per stripe.
func (c *Code) N() int { return c.n }

// KernelName reports which GF region kernel this code's Mult_XOR region
// ops dispatch to (internal/gf runtime CPU dispatch, overridable with
// STAIR_GF_KERNEL). SD codes picked over GF(2^8)/GF(2^4) ride the SIMD
// kernels; instances forced to GF(2^16) take the portable widened path.
func (c *Code) KernelName() string { return c.f.KernelName() }

// R returns the number of sectors per chunk.
func (c *Code) R() int { return c.r }

// M returns the number of tolerated chunk failures.
func (c *Code) M() int { return c.m }

// S returns the number of tolerated additional sector failures.
func (c *Code) S() int { return c.s }

// DataCells returns the cells the caller fills before Encode.
func (c *Code) DataCells() []ec.Cell { return append([]ec.Cell{}, c.dataCells...) }

// MeanUpdatePenalty returns the average number of parity sectors touched
// by a single data-sector update (Figure 15's quantity).
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

// sector returns cells[col*r+row]; stripes use internal/core's layout.
func (c *Code) sector(cells [][]byte, cell ec.Cell) []byte { return cells[cell.Col*c.r+cell.Row] }

func (c *Code) checkStripe(cells [][]byte) (int, error) {
	if len(cells) != c.n*c.r {
		return 0, fmt.Errorf("sd: stripe has %d cells, want %d", len(cells), c.n*c.r)
	}
	size := len(cells[0])
	if size == 0 || size%c.f.SymbolBytes() != 0 {
		return 0, fmt.Errorf("sd: sector size %d must be a positive multiple of %d", size, c.f.SymbolBytes())
	}
	for i, s := range cells {
		if len(s) != size {
			return 0, fmt.Errorf("sd: cell %d has %d bytes, want %d", i, len(s), size)
		}
	}
	return size, nil
}

// Encode fills the parity cells from the data cells using the standard
// method: every parity sector is a dense linear combination of all data
// sectors, with no intermediate reuse (the SD implementation the paper
// compares against, §6.2).
func (c *Code) Encode(cells [][]byte) error {
	if _, err := c.checkStripe(cells); err != nil {
		return err
	}
	// Source-major: one fused pass per data sector updating every parity
	// sector, so each data sector is read once rather than once per
	// parity row.
	outs := make([][]byte, len(c.parityCells))
	for p, pc := range c.parityCells {
		outs[p] = c.sector(cells, pc)
		clear(outs[p])
	}
	coeffs := make([]uint32, len(c.parityCells))
	for d, dc := range c.dataCells {
		for p := range c.parityCells {
			coeffs[p] = c.gen.At(p, d)
		}
		c.f.MultXORFused(outs, c.sector(cells, dc), coeffs)
	}
	return nil
}

// Repair reconstructs the lost cells in place via a linear solve over the
// parity-check constraints, reading every surviving sector (the
// "decoding manner" of the SD implementation).
func (c *Code) Repair(cells [][]byte, lost []ec.Cell) error {
	size, err := c.checkStripe(cells)
	if err != nil {
		return err
	}
	lost = dedupe(lost)
	for _, cell := range lost {
		if cell.Col < 0 || cell.Col >= c.n || cell.Row < 0 || cell.Row >= c.r {
			return fmt.Errorf("sd: lost cell %v out of range", cell)
		}
	}
	if len(lost) == 0 {
		return nil
	}
	lostSet := make(map[int]bool, len(lost))
	lcols := make([]int, len(lost))
	for i, cell := range lost {
		v := c.varOf(cell)
		lostSet[v] = true
		lcols[i] = v
	}
	sub := c.h.SelectCols(lcols)
	// Select |lost| independent constraint rows.
	rows := sub.IndependentRows()
	if len(rows) < len(lost) {
		return fmt.Errorf("%w: %d lost cells", ErrUnrecoverable, len(lost))
	}
	a := sub.SelectRows(rows)
	aInv, err := a.Invert()
	if err != nil {
		return fmt.Errorf("%w: %d lost cells", ErrUnrecoverable, len(lost))
	}
	// rhs[k] = Σ_{known j} H[rows[k]][j]·x_j (over regions), source-major:
	// each surviving sector is read once and fans out into every
	// constraint's accumulator in one fused pass.
	rhs := make([][]byte, len(rows))
	for k := range rhs {
		rhs[k] = make([]byte, size)
	}
	coeffs := make([]uint32, len(rows))
	for col := 0; col < c.n; col++ {
		for row := 0; row < c.r; row++ {
			v := row*c.n + col
			if lostSet[v] {
				continue
			}
			any := false
			for k, hr := range rows {
				coeffs[k] = c.h.At(hr, v)
				any = any || coeffs[k] != 0
			}
			if any {
				c.f.MultXORFused(rhs, cells[col*c.r+row], coeffs)
			}
		}
	}
	// x_lost = A^{-1}·rhs, again source-major over the rhs regions.
	outs := make([][]byte, len(lost))
	for i, cell := range lost {
		outs[i] = c.sector(cells, cell)
		clear(outs[i])
	}
	solve := make([]uint32, len(lost))
	for k := range rhs {
		for i := range lost {
			solve[i] = aInv.At(i, k)
		}
		c.f.MultXORFused(outs, rhs[k], solve)
	}
	return nil
}

// CanRecover reports whether the pattern is repairable.
func (c *Code) CanRecover(lost []ec.Cell) bool { return c.patternSolvable(dedupe(lost)) }

// CoverageContains reports whether a pattern lies within the SD coverage:
// after absorbing the m most-affected chunks, at most s sectors remain.
func (c *Code) CoverageContains(lost []ec.Cell) bool {
	lost = dedupe(lost)
	perChunk := make([]int, c.n)
	for _, cell := range lost {
		perChunk[cell.Col]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(perChunk)))
	rest := 0
	for i := c.m; i < len(perChunk); i++ {
		rest += perChunk[i]
	}
	return rest <= c.s
}

func dedupe(cells []ec.Cell) []ec.Cell {
	seen := make(map[ec.Cell]bool, len(cells))
	out := cells[:0:0]
	for _, c := range cells {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
