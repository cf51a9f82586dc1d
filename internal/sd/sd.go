// Package sd implements a sector-disk (SD) code comparator in the style
// of Plank & Blaum (FAST '13 / ACM TOS '14), the baseline the STAIR paper
// evaluates against (§6).
//
// An SD code for (n, r, m, s) devotes m entire chunks plus s individual
// sectors of a stripe to parity and tolerates the failure of any m chunks
// plus any s additional sectors. Known constructions exist only for
// s ≤ 3 and rely on published searches.
//
// Substitution note: the paper benchmarks Plank's C implementation,
// whose coefficients come from those searches. This package reproduces
// the same code shape — per-row parity constraints plus s dense global
// constraints over the whole stripe — and verifies each instance against
// its claimed coverage, regenerating the global rows (deterministically
// seeded) if verification fails.
//
// What is SD's own here is H (its construction with salted retries) and
// the coverage verification. Encode, Repair and CanRecover are an
// ec.Linear over H: each is one linear solve of H compiled into a gf.Op
// list over the stripe's cells. Encode's solve is the standard method
// with no parity reuse; Repair's reads every surviving sector and is
// cached per loss pattern, and CanRecover asks the same cached solve.
package sd

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"stair/internal/ec"
	"stair/internal/gf"
	"stair/internal/matrix"
)

// ErrUnrecoverable reports a failure pattern the code cannot repair.
var ErrUnrecoverable = ec.ErrUnrecoverable

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

// Code is a compiled SD code, safe for concurrent use (its one mutable
// state is lin's solve cache).
type Code struct {
	n, r int
	m, s int
	f    *gf.Field

	// H is the (m·r+s) × (n·r) parity-check matrix over the stripe's
	// cells, column col·r+row.
	h *matrix.Matrix

	dataCells   []ec.Cell
	parityCells []ec.Cell

	lin *ec.Linear // H's solves: Encode's is K = H_P⁻¹·H_D
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
		c := &Code{n: cfg.N, r: cfg.R, m: cfg.M, s: cfg.S, f: gf.Get(w)}
		c.indexCells()
		// Try the Vandermonde-style global rows first (the published
		// construction shape), then salted random rows until the
		// instance verifies. Salt 0 is the unsalted construction.
		attempts := 8
		if w == widths[len(widths)-1] {
			attempts = 50
		}
		for salt := 0; salt < attempts; salt++ {
			c.buildH(salt)
			lin, err := ec.NewLinear(c.h, c.n, c.r, c.parityCells)
			if err == nil && c.verify() {
				c.lin = lin
				return c, nil
			}
		}
	}
	return nil, fmt.Errorf("sd: could not construct a verified instance for %+v", cfg)
}

// W returns the Galois field word size the construction settled on.
func (c *Code) W() int { return c.f.W() }

// indexCells lists the parity cells, the last m chunks and then the
// bottom s sectors of the last data chunk (the globals), and the data
// cells, every other cell in row-major order.
func (c *Code) indexCells() {
	for col := c.n - c.m; col < c.n; col++ {
		for row := 0; row < c.r; row++ {
			c.parityCells = append(c.parityCells, ec.Cell{Col: col, Row: row})
		}
	}
	gcol := c.n - c.m - 1
	for k := 0; k < c.s; k++ {
		c.parityCells = append(c.parityCells, ec.Cell{Col: gcol, Row: c.r - 1 - k})
	}
	for row := 0; row < c.r; row++ {
		for col := 0; col < c.n-c.m; col++ {
			if col != gcol || row < c.r-c.s {
				c.dataCells = append(c.dataCells, ec.Cell{Col: col, Row: row})
			}
		}
	}
}

// buildH assembles the parity-check matrix: m Reed-Solomon constraints
// per row plus s global constraints. Salt 0 uses Vandermonde-power
// globals (coefficient α^{(m+t)·ℓ} for row-major stripe position
// ℓ = row·n+col, as in the SD papers); other salts draw seeded random
// coefficients in that order.
func (c *Code) buildH(salt int) {
	q := c.m*c.r + c.s
	c.h = matrix.New(c.f, q, c.n*c.r)
	row := 0
	for i := 0; i < c.r; i++ {
		for z := 0; z < c.m; z++ {
			for j := 0; j < c.n; j++ {
				c.h.Set(row, j*c.r+i, c.f.Exp(2, z*j))
			}
			row++
		}
	}
	var rng *rand.Rand
	if salt != 0 {
		rng = rand.New(rand.NewSource(int64(salt)*7919 + int64(c.n*1000+c.r*100+c.m*10+c.s)))
	}
	for t := 0; t < c.s; t++ {
		for l := 0; l < c.n*c.r; l++ {
			v := c.f.Exp(2, (c.m+t)*l%(c.f.Size()-1)) // salt 0's coefficient
			if rng != nil {
				v = uint32(1 + rng.Intn(c.f.Size()-1))
			}
			c.h.Set(row, l%c.n*c.r+l/c.n, v)
		}
		row++
	}
}

// verify checks the claimed coverage: exhaustively when the pattern
// space fits under exhaustiveLimit, otherwise on the canonical worst
// case plus a seeded sample of random patterns.
func (c *Code) verify() bool {
	if c.exhaustive() {
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
	rng := rand.New(rand.NewSource(int64(c.n*7 + c.r*11 + c.m*13 + c.s*17)))
	for trial, lost := 0, worst; trial <= verifySamples; trial++ {
		if !c.solvable(lost) {
			return false
		}
		lost = c.randomCoveredPattern(rng)
	}
	return true
}

// solvable reports whether H determines a pattern's cells, which must be
// distinct and at least one. It solves without compiling: the patterns
// verification samples never reach Repair.
func (c *Code) solvable(lost []ec.Cell) bool {
	idx := make([]int, len(lost))
	for i, cell := range lost {
		idx[i] = cell.Col*c.r + cell.Row
	}
	_, err := c.h.Solve(idx)
	return err == nil
}

// exhaustive reports whether the pattern space, C(n, m) × C(n·r − m·r,
// s), fits under exhaustiveLimit.
func (c *Code) exhaustive() bool {
	return binomial(c.n, c.m)*binomial((c.n-c.m)*c.r, c.s) <= exhaustiveLimit
}

// binomial returns C(n, k) in float64: exact while it fits 53 bits, and
// an overflow is +Inf, never a wrapped count.
func binomial(n, k int) float64 {
	res := 1.0
	for i := 0; i < k; i++ {
		res = res * float64(n-i) / float64(i+1)
	}
	return res
}

// verifyExhaustive checks every m-chunk subset combined with every
// s-sector subset of the surviving cells. Per chunk subset it reduces H
// over the subset's m·r cells once: they must all get pivots, and the s
// rows left without one are Z = Y·H for a basis Y of the left null space
// of those columns. A pattern adding sectors E is then solvable exactly
// when Z's columns at E are independent: with X the pivot rows,
// [X; Y]·H[:, base ∪ E] is block upper triangular with blocks I and
// Z[:, E].
func (c *Code) verifyExhaustive() bool {
	ok := true
	var z *matrix.Matrix
	if c.s > 0 {
		z = matrix.New(c.f, c.s, c.s)
	}
	forEachCombination(c.n, c.m, func(chunks []int) bool {
		var base, survivors []int
		for col := 0; col < c.n; col++ {
			for row := 0; row < c.r; row++ {
				if slices.Contains(chunks, col) {
					base = append(base, col*c.r+row)
				} else {
					survivors = append(survivors, col*c.r+row)
				}
			}
		}
		a := c.h.Clone()
		pivots := a.Reduce(base)
		if ok = !slices.Contains(pivots, -1); !ok || c.s == 0 {
			return ok
		}
		var free []int
		for row := 0; row < a.Rows(); row++ {
			if !slices.Contains(pivots, row) {
				free = append(free, row)
			}
		}
		forEachCombination(len(survivors), c.s, func(idx []int) bool {
			for i, row := range free {
				for j, e := range idx {
					z.Set(i, j, a.At(row, survivors[e]))
				}
			}
			ok = z.Rank() == c.s
			return ok
		})
		return ok
	})
	return ok
}

// forEachCombination visits every k-subset of 0..n-1 in lexicographic
// order until the visitor returns false.
func forEachCombination(n, k int, visit func([]int) bool) {
	idx := make([]int, 0, k)
	var next func(from int) bool
	next = func(from int) bool {
		if len(idx) == k {
			return visit(idx)
		}
		for i := from; i <= n-k+len(idx); i++ {
			if idx = append(idx, i); !next(i + 1) {
				return false
			}
			idx = idx[:len(idx)-1]
		}
		return true
	}
	next(0)
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

// N returns the number of chunks per stripe.
func (c *Code) N() int { return c.n }

// KernelName reports the GF region kernel this code's solves run on:
// the dispatched SIMD kernel at w=8, the widened portable one at w=16.
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
// by a single data-sector update (Figure 15's quantity): the encode
// solve's terms per data cell.
func (c *Code) MeanUpdatePenalty() float64 {
	if len(c.dataCells) == 0 {
		return 0
	}
	return float64(c.lin.EncodeSolve().Terms) / float64(len(c.dataCells))
}

// Encode fills the parity cells from the data cells using the standard
// method: every parity sector is a dense linear combination of all data
// sectors, with no intermediate reuse (the SD implementation the paper
// compares against, §6.2).
func (c *Code) Encode(cells [][]byte) error { return c.lin.Encode(cells) }

// Repair reconstructs the lost cells in place via a linear solve over the
// parity-check constraints, reading every surviving sector (the
// "decoding manner" of the SD implementation). The solve is compiled on
// a pattern's first Repair and cached.
func (c *Code) Repair(cells [][]byte, lost []ec.Cell) error { return c.lin.Repair(cells, lost) }

// CanRecover reports whether the pattern is repairable: whether the
// cached solve Repair runs exists.
func (c *Code) CanRecover(lost []ec.Cell) bool { return c.lin.CanRecover(lost) }

// CoverageContains reports whether a pattern lies within the SD coverage:
// after absorbing the m most-affected chunks, at most s sectors remain.
func (c *Code) CoverageContains(lost []ec.Cell) bool {
	seen := make(map[ec.Cell]bool, len(lost))
	perChunk := make([]int, c.n)
	for _, cell := range lost {
		if !seen[cell] {
			seen[cell] = true
			perChunk[cell.Col]++
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(perChunk)))
	rest := 0
	for i := c.m; i < len(perChunk); i++ {
		rest += perChunk[i]
	}
	return rest <= c.s
}
