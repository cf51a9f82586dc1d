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
// Encode and Repair are one operation, the linear solve over the
// parity-check matrix H (matrix.Solve) compiled into a gf.Op list over
// the stripe's cells. Encode's solve is the standard method with no
// parity reuse; Repair's reads every surviving sector and is cached per
// loss pattern.
package sd

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

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
	// maxSolveCacheEntries bounds the repair solve cache, as core bounds
	// its decode plan cache; a full cache starts over.
	maxSolveCacheEntries = 256
	// solveTile is the per-cell byte range one RunOps call covers: a
	// solve's destinations stay cache-resident while the sources stream.
	solveTile = 4096
)

// Code is a compiled SD code, safe for concurrent use. Its one mutable
// state is the repair solve cache, guarded by mu.
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

	encode *solve // the solve for the parity cells: K = H_P⁻¹·H_D

	mu     sync.Mutex
	solves map[string]*solve // repair solves by lost cells' bitset; nil: unrecoverable
}

// solve is one compiled linear solve, x_lost = K·x (matrix.Solve): the
// kernel ops that rewrite the lost cells from the others, source by
// source in stripe order, over the stripe's own cells (index col·r+row).
// Each lost cell's first term overwrites it, so it needs no zero-fill
// and may hold anything before a run.
type solve struct {
	ops   []gf.Op
	terms int // K's nonzero coefficients: the Mult_XORs one run makes
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
		parity := make([]int, len(c.parityCells))
		for i, cell := range c.parityCells {
			parity[i] = cell.Col*c.r + cell.Row
		}
		for salt := 0; salt < attempts; salt++ {
			c.buildH(salt)
			k, err := c.h.Solve(c.vars(parity))
			if err != nil {
				continue
			}
			if c.verify() {
				c.encode = c.compile(k, parity)
				c.solves = make(map[string]*solve)
				return c, nil
			}
		}
	}
	return nil, fmt.Errorf("sd: could not construct a verified instance for %+v", cfg)
}

// W returns the Galois field word size the construction settled on.
func (c *Code) W() int { return c.f.W() }

func (c *Code) indexCells() {
	isParity := make([]bool, c.n*c.r) // indexed row*n+col
	// Row parity chunks: the last m columns.
	for col := c.n - c.m; col < c.n; col++ {
		for row := 0; row < c.r; row++ {
			isParity[row*c.n+col] = true
			c.parityCells = append(c.parityCells, ec.Cell{Col: col, Row: row})
		}
	}
	// Global parities: the bottom s sectors of the last data chunk.
	gcol := c.n - c.m - 1
	for k := 0; k < c.s; k++ {
		row := c.r - 1 - k
		isParity[row*c.n+gcol] = true
		c.parityCells = append(c.parityCells, ec.Cell{Col: gcol, Row: row})
	}
	for row := 0; row < c.r; row++ {
		for col := 0; col < c.n; col++ {
			if !isParity[row*c.n+col] {
				c.dataCells = append(c.dataCells, ec.Cell{Col: col, Row: row})
			}
		}
	}
}

// buildH assembles the parity-check matrix: m Reed-Solomon constraints
// per row plus s global constraints. Salt 0 uses Vandermonde-power
// globals (coefficient α^{(m+t)·ℓ} for stripe position ℓ); other salts
// draw seeded random coefficients.
func (c *Code) buildH(salt int) {
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
		return
	}
	rng := rand.New(rand.NewSource(int64(salt)*7919 + int64(c.n*1000+c.r*100+c.m*10+c.s)))
	for t := 0; t < c.s; t++ {
		for l := 0; l < c.n*c.r; l++ {
			c.h.Set(row, l, uint32(1+rng.Intn(c.f.Size()-1)))
		}
		row++
	}
}

// vars maps stripe cell indices (col·r+row) to H's columns (row·n+col).
func (c *Code) vars(cells []int) []int {
	vs := make([]int, len(cells))
	for i, idx := range cells {
		vs[i] = idx%c.r*c.n + idx/c.r
	}
	return vs
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

// exhaustive reports whether the pattern space, C(n, m) × C(n·r − m·r,
// s), fits under exhaustiveLimit, an overflow counting as too large.
func (c *Code) exhaustive() bool {
	a, b := binomial(c.n, c.m), binomial((c.n-c.m)*c.r, c.s)
	return a >= 0 && b >= 0 && (a == 0 || a*b/a == b) && a*b <= exhaustiveLimit
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
					base = append(base, row*c.n+col)
				} else {
					survivors = append(survivors, row*c.n+col)
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

// patternSolvable reports whether the lost positions' parity-check
// submatrix has full column rank.
func (c *Code) patternSolvable(lost []ec.Cell) bool {
	if len(lost) == 0 || len(lost) > c.h.Rows() {
		return len(lost) == 0
	}
	cols := make([]int, len(lost))
	for i, cell := range lost {
		cols[i] = cell.Row*c.n + cell.Col
	}
	return c.h.SelectCols(cols).Rank() == len(lost)
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
// by a single data-sector update (Figure 15's quantity): the encode
// solve's terms per data cell.
func (c *Code) MeanUpdatePenalty() float64 {
	if len(c.dataCells) == 0 {
		return 0
	}
	return float64(c.encode.terms) / float64(len(c.dataCells))
}

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
	size, err := c.checkStripe(cells)
	if err != nil {
		return err
	}
	c.run(c.encode, cells, size)
	return nil
}

// Repair reconstructs the lost cells in place via a linear solve over the
// parity-check constraints, reading every surviving sector (the
// "decoding manner" of the SD implementation). The solve is compiled on
// a pattern's first Repair and cached.
func (c *Code) Repair(cells [][]byte, lost []ec.Cell) error {
	size, err := c.checkStripe(cells)
	if err == nil && len(lost) > 0 {
		var s *solve
		if s, err = c.repairSolve(lost); err == nil {
			c.run(s, cells, size)
		}
	}
	return err
}

// repairSolve returns lost's solve, cached under lost's bitset: built on
// the stack for stripes of up to 2 048 cells, so a hit allocates nothing.
func (c *Code) repairSolve(lost []ec.Cell) (*solve, error) {
	var kbuf [256]byte
	key := kbuf[:]
	if nb := (c.n*c.r + 7) / 8; nb <= len(kbuf) {
		key = kbuf[:nb]
	} else {
		key = make([]byte, nb)
	}
	count := 0
	for _, cell := range lost {
		if cell.Col < 0 || cell.Col >= c.n || cell.Row < 0 || cell.Row >= c.r {
			return nil, fmt.Errorf("sd: lost cell %v out of range", cell)
		}
		i := cell.Col*c.r + cell.Row
		if key[i>>3]&(1<<(i&7)) == 0 {
			key[i>>3] |= 1 << (i & 7)
			count++
		}
	}
	c.mu.Lock()
	s, hit := c.solves[string(key)]
	c.mu.Unlock()
	if !hit {
		idx := make([]int, 0, count)
		for i := 0; i < c.n*c.r; i++ {
			if key[i>>3]&(1<<(i&7)) != 0 {
				idx = append(idx, i)
			}
		}
		if k, err := c.h.Solve(c.vars(idx)); err == nil {
			s = c.compile(k, idx)
		}
		c.mu.Lock()
		if len(c.solves) >= maxSolveCacheEntries {
			clear(c.solves)
		}
		c.solves[string(key)] = s
		c.mu.Unlock()
	}
	if s == nil {
		return nil, fmt.Errorf("%w: %d lost cells", ErrUnrecoverable, count)
	}
	return s, nil
}

// compile lowers K, whose row i solves stripe cell lost[i], into a solve.
func (c *Code) compile(k *matrix.Matrix, lost []int) *solve {
	s := &solve{}
	terms := make([]int, len(lost)) // 0 until lost[i]'s first term, then 1
	var dsts [2][]int32             // [0]: first terms (overwrite), [1]: the rest
	var tabs [2][]*gf.MulTable
	for src := 0; src < c.n*c.r; src++ {
		v := src%c.r*c.n + src/c.r
		for a := range dsts {
			dsts[a], tabs[a] = dsts[a][:0], tabs[a][:0]
		}
		for i, dst := range lost {
			coeff := k.At(i, v)
			if coeff == 0 {
				continue
			}
			a := terms[i]
			terms[i] = 1
			dsts[a] = append(dsts[a], int32(dst))
			tabs[a] = append(tabs[a], c.f.Table(coeff))
			s.terms++
		}
		s.ops = gf.AppendOps(s.ops, false, int32(src), dsts[0], tabs[0])
		s.ops = gf.AppendOps(s.ops, true, int32(src), dsts[1], tabs[1])
	}
	// A lost cell no term reaches is zero in every codeword.
	for i, dst := range lost {
		if terms[i] == 0 {
			s.ops = append([]gf.Op{{Dst: [4]int32{int32(dst)}}}, s.ops...)
		}
	}
	return s
}

// run executes a solve over a checked stripe, one RunOps call per tile.
func (c *Code) run(s *solve, cells [][]byte, size int) {
	k := c.f.Kernel()
	for lo := 0; lo < size; lo += solveTile {
		k.RunOps(s.ops, cells, lo, min(lo+solveTile, size))
	}
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
