// Package rs implements systematic maximum-distance-separable (MDS)
// erasure codes over GF(2^w): Cauchy Reed-Solomon codes, the paper's
// building block (§3).
//
// An (eta, kappa) code transforms kappa data symbols into an eta-symbol
// codeword whose first kappa symbols are the data itself (systematic) and
// whose any kappa symbols suffice to recover the codeword (MDS). STAIR
// codes instantiate two of these: Crow = (n+m', n−m) applied to rows and
// Ccol = (r+e_max, r) applied to columns.
package rs

import (
	"fmt"
	"sync"

	"stair/internal/ec"
	"stair/internal/gf"
	"stair/internal/matrix"
)

// Kind selects the generator-matrix construction. Cauchy is the only
// one; the type stays because the benchmark module passes it to New.
type Kind int

// Cauchy builds the parity block from a Cauchy matrix (the paper's
// choice: Cauchy Reed-Solomon codes have no restriction on code length
// or fault tolerance beyond eta ≤ 2^w).
const Cauchy Kind = 0

func (k Kind) String() string {
	if k == Cauchy {
		return "cauchy"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Code is a systematic (eta, kappa) MDS code. Codewords are indexed
// 0..eta-1; positions 0..kappa-1 are data, kappa..eta-1 are parity.
// A Code is safe for concurrent use.
type Code struct {
	f     *gf.Field
	eta   int
	kappa int
	// gen is the eta×kappa generator: codeword = gen · data (column
	// vector), with the top kappa×kappa block the identity.
	gen *matrix.Matrix

	// encode is gen's parity block lowered over the cell vector [data,
	// parity], built on EncodeRegions' first call: core builds two codes
	// per STAIR code and encodes through its own plans.
	encodeOnce sync.Once
	encode     ec.Solve
}

// New constructs an (eta, kappa) systematic Cauchy MDS code. kind must
// be Cauchy.
func New(f *gf.Field, eta, kappa int, kind Kind) (*Code, error) {
	if kind != Cauchy {
		return nil, fmt.Errorf("rs: unknown kind %v", kind)
	}
	if kappa < 1 {
		return nil, fmt.Errorf("rs: kappa=%d must be ≥ 1", kappa)
	}
	if eta < kappa {
		return nil, fmt.Errorf("rs: eta=%d must be ≥ kappa=%d", eta, kappa)
	}
	if eta > f.Size() {
		return nil, fmt.Errorf("rs: eta=%d exceeds field size 2^%d=%d; use a wider field", eta, f.W(), f.Size())
	}
	c := &Code{f: f, eta: eta, kappa: kappa, gen: matrix.New(f, eta, kappa)}
	for j := 0; j < kappa; j++ {
		c.gen.Set(j, j, 1)
	}
	if eta == kappa {
		return c, nil
	}
	xs, ys := make([]uint32, eta-kappa), make([]uint32, kappa)
	for i := range xs {
		xs[i] = uint32(kappa + i)
	}
	for j := range ys {
		ys[j] = uint32(j)
	}
	// parity block A[i][j] = 1/(xs[i] + ys[j]); rows are parity
	// positions, columns are data positions.
	a, err := matrix.Cauchy(f, ys, xs) // |xs|×|ys| = rows over parity positions
	if err != nil {
		return nil, fmt.Errorf("rs: building Cauchy parity block: %w", err)
	}
	for i := 0; i < eta-kappa; i++ {
		for j := 0; j < kappa; j++ {
			c.gen.Set(kappa+i, j, a.At(i, j))
		}
	}
	return c, nil
}

// Kappa returns the number of data symbols.
func (c *Code) Kappa() int { return c.kappa }

// EncodeSymbols returns the eta−kappa parity symbols for the given kappa
// data symbols: the symbol-level reference EncodeRegions is tested
// against.
func (c *Code) EncodeSymbols(data []uint32) ([]uint32, error) {
	if len(data) != c.kappa {
		return nil, fmt.Errorf("rs: got %d data symbols, want %d", len(data), c.kappa)
	}
	parity := make([]uint32, c.eta-c.kappa)
	for p := range parity {
		var acc uint32
		for j, d := range data {
			if a := c.gen.At(c.kappa+p, j); a != 0 && d != 0 {
				acc ^= c.f.Mul(a, d)
			}
		}
		parity[p] = acc
	}
	return parity, nil
}

// EncodeRegions computes parity regions from data regions. data must hold
// kappa equal-length regions; parity must hold eta−kappa regions of the
// same length, which are overwritten. It runs the parity block as one
// compiled solve, source-major: each data region is read once, not once
// per parity row (the ec_encode_data shape).
func (c *Code) EncodeRegions(data, parity [][]byte) error {
	if len(data) != c.kappa {
		return fmt.Errorf("rs: got %d data regions, want %d", len(data), c.kappa)
	}
	if len(parity) != c.eta-c.kappa {
		return fmt.Errorf("rs: got %d parity regions, want %d", len(parity), c.eta-c.kappa)
	}
	size, sb := len(data[0]), c.f.SymbolBytes()
	cells := append(append(make([][]byte, 0, c.eta), data...), parity...)
	for i, region := range cells {
		if len(region) != size || size%sb != 0 {
			return fmt.Errorf("rs: region %d has %d bytes, want %d, a multiple of %d", i, len(region), size, sb)
		}
	}
	if len(parity) == 0 {
		return nil
	}
	c.encodeOnce.Do(func() {
		rows := make([]int, c.eta-c.kappa) // the parity rows, and cells
		for i := range rows {
			rows[i] = c.kappa + i
		}
		c.encode.Lower(c.gen.SelectRows(rows), nil, rows)
	})
	c.encode.Run(c.f, cells, size)
	return nil
}

// SolveCoeffs computes the linear map that reconstructs the codeword
// positions in want from the positions in have. Exactly the first kappa
// entries of have are used (an error is returned if fewer are supplied).
// The result K is a len(want)×kappa matrix:
//
//	value[want[i]] = Σ_j K[i][j] · value[have[j]]   for j < kappa.
//
// This is the primitive both STAIR decoding and STAIR's upstairs /
// downstairs encoding are built from: "a row with ≥ n−m available symbols
// determines all its symbols" (paper §4.2).
func (c *Code) SolveCoeffs(have, want []int) (*matrix.Matrix, error) {
	if len(have) < c.kappa {
		return nil, fmt.Errorf("rs: need %d known positions, have %d", c.kappa, len(have))
	}
	use := have[:c.kappa]
	for _, p := range append(append([]int{}, use...), want...) {
		if p < 0 || p >= c.eta {
			return nil, fmt.Errorf("rs: position %d out of range [0,%d)", p, c.eta)
		}
	}
	gh := c.gen.SelectRows(use)
	ghInv, err := gh.Invert()
	if err != nil {
		// Cannot happen for an MDS code with kappa distinct positions,
		// but the caller may have passed duplicates.
		return nil, fmt.Errorf("rs: positions %v do not determine the codeword: %w", use, err)
	}
	gw := c.gen.SelectRows(want)
	return gw.Mul(ghInv), nil
}
