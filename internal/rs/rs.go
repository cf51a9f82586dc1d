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
// A Code is immutable and safe for concurrent use.
type Code struct {
	f     *gf.Field
	eta   int
	kappa int
	// gen is the eta×kappa generator: codeword = gen · data (column
	// vector), with the top kappa×kappa block the identity.
	gen *matrix.Matrix
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
	c := &Code{f: f, eta: eta, kappa: kappa}
	if eta == kappa {
		c.gen = matrix.Identity(f, kappa)
		return c, nil
	}
	xs := make([]uint32, eta-kappa)
	ys := make([]uint32, kappa)
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
	c.gen = stack(matrix.Identity(f, kappa), a)
	return c, nil
}

// stack returns the vertical concatenation [top; bottom].
func stack(top, bottom *matrix.Matrix) *matrix.Matrix {
	if top.Cols() != bottom.Cols() {
		panic("rs: stack column mismatch")
	}
	m := matrix.New(top.Field(), top.Rows()+bottom.Rows(), top.Cols())
	for i := 0; i < top.Rows(); i++ {
		for j := 0; j < top.Cols(); j++ {
			m.Set(i, j, top.At(i, j))
		}
	}
	for i := 0; i < bottom.Rows(); i++ {
		for j := 0; j < bottom.Cols(); j++ {
			m.Set(top.Rows()+i, j, bottom.At(i, j))
		}
	}
	return m
}

// Field returns the underlying Galois field.
func (c *Code) Field() *gf.Field { return c.f }

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
// same length, which are overwritten.
func (c *Code) EncodeRegions(data, parity [][]byte) error {
	if len(data) != c.kappa {
		return fmt.Errorf("rs: got %d data regions, want %d", len(data), c.kappa)
	}
	if len(parity) != c.eta-c.kappa {
		return fmt.Errorf("rs: got %d parity regions, want %d", len(parity), c.eta-c.kappa)
	}
	// Source-major: one fused pass per data region updating every parity
	// region, so each data region is read once rather than once per
	// parity row (the ec_encode_data shape).
	for _, out := range parity {
		clear(out)
	}
	coeffs := make([]uint32, len(parity))
	for j, in := range data {
		for p := range parity {
			coeffs[p] = c.gen.At(c.kappa+p, j)
		}
		c.f.MultXORFused(parity, in, coeffs)
	}
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
