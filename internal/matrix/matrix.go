// Package matrix implements dense matrix algebra over GF(2^w), the
// linear-algebra substrate for the Reed-Solomon codes that STAIR codes
// are built from (paper §2-§3).
//
// Matrices are small (dimensions bounded by stripe geometry, at most a
// few hundred), so the implementation favours clarity over blocking or
// cache tricks: one Gauss-Jordan elimination (Reduce) behind inversion,
// rank and the parity-check solve, and naive multiplication.
package matrix

import (
	"errors"
	"fmt"
	"slices"

	"stair/internal/gf"
)

// ErrSingular is returned when a matrix that must be inverted has no
// inverse.
var ErrSingular = errors.New("matrix: singular matrix")

// Matrix is a dense rows×cols matrix over a Galois field. The zero value
// is not usable; construct with New or one of the builders.
type Matrix struct {
	f    *gf.Field
	rows int
	cols int
	data []uint32 // row-major
}

// New returns a zero rows×cols matrix over field f.
func New(f *gf.Field, rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{f: f, rows: rows, cols: cols, data: make([]uint32, rows*cols)}
}

// Cauchy builds the |ys|×|xs| Cauchy matrix A with A[i][j] = 1/(xs[j]+ys[i]).
// All xs and ys values must be distinct field elements (xs[j] != ys[i] for
// every pair), which guarantees every square submatrix is invertible — the
// property that makes Cauchy Reed-Solomon codes MDS.
func Cauchy(f *gf.Field, xs, ys []uint32) (*Matrix, error) {
	seen := make(map[uint32]bool, len(xs)+len(ys))
	for _, v := range append(append([]uint32{}, xs...), ys...) {
		if seen[v] {
			return nil, fmt.Errorf("matrix: Cauchy points not distinct (duplicate %d)", v)
		}
		seen[v] = true
	}
	m := New(f, len(ys), len(xs))
	for i, y := range ys {
		for j, x := range xs {
			m.Set(i, j, f.Inv(f.Add(x, y)))
		}
	}
	return m, nil
}

// Field returns the field the matrix is defined over.
func (m *Matrix) Field() *gf.Field { return m.f }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) uint32 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v uint32) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.f, m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Mul returns m·o. Panics on dimension mismatch (programming error).
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: dimension mismatch %dx%d · %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	r := New(m.f, m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.cols; j++ {
				if b := o.At(k, j); b != 0 {
					r.data[i*o.cols+j] ^= m.f.Mul(a, b)
				}
			}
		}
	}
	return r
}

// Reduce runs Gauss–Jordan elimination on m in place over the columns
// cols, in order, and returns each column's pivot row: the first row not
// yet a pivot that is nonzero in the column. The pivot row is scaled to 1
// there and the column cleared from every other row; rows do not move. A
// column that depends on the columns before it gets no pivot, -1. Every
// solve in this module is a view of it: Invert, Rank, Solve, and the SD
// code's coverage check, which reads the rows left without a pivot.
func (m *Matrix) Reduce(cols []int) []int {
	pivots := make([]int, len(cols))
	used := make([]bool, m.rows)
	for k, col := range cols {
		pivots[k] = -1
		for r := 0; r < m.rows; r++ {
			if !used[r] && m.At(r, col) != 0 {
				pivots[k] = r
				break
			}
		}
		p := pivots[k]
		if p < 0 {
			continue
		}
		used[p] = true
		m.scaleRow(p, m.f.Inv(m.At(p, col)))
		for r := 0; r < m.rows; r++ {
			if f := m.At(r, col); r != p && f != 0 {
				m.addScaledRow(r, p, f)
			}
		}
	}
	return pivots
}

// Invert returns the inverse of a square matrix, or ErrSingular: it
// reduces [m | I] over m's columns, and row k of the inverse is the right
// half of column k's pivot row.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	a := New(m.f, n, 2*n)
	for i := 0; i < n; i++ {
		copy(a.data[i*2*n:], m.data[i*n:(i+1)*n])
		a.Set(i, n+i, 1)
	}
	inv := New(m.f, n, n)
	for k, p := range a.Reduce(upTo(n)) {
		if p < 0 {
			return nil, ErrSingular
		}
		copy(inv.data[k*n:(k+1)*n], a.data[p*2*n+n:(p+1)*2*n])
	}
	return inv, nil
}

// Rank returns the rank of the matrix: the pivots of its reduction.
func (m *Matrix) Rank() int {
	pivots := m.Clone().Reduce(upTo(m.cols))
	return len(slices.DeleteFunc(pivots, func(p int) bool { return p < 0 }))
}

// Solve treats m as a parity-check matrix and returns K, len(lost) ×
// Cols() and zero in the lost columns, with x[lost[i]] = Σ_j K[i][j]·x[j]
// for every x with m·x = 0: lost[i]'s pivot row after reducing m over
// the lost columns. It returns ErrSingular when the lost columns, which
// must be distinct and at least one, are dependent.
func (m *Matrix) Solve(lost []int) (*Matrix, error) {
	a := m.Clone()
	k := New(m.f, len(lost), m.cols)
	for i, p := range a.Reduce(lost) {
		if p < 0 {
			return nil, ErrSingular
		}
		copy(k.data[i*m.cols:(i+1)*m.cols], a.data[p*m.cols:(p+1)*m.cols])
		for _, col := range lost {
			k.Set(i, col, 0)
		}
	}
	return k, nil
}

// upTo returns the columns 0..n-1.
func upTo(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

func (m *Matrix) scaleRow(i int, c uint32) {
	row := m.data[i*m.cols : (i+1)*m.cols]
	for k, v := range row {
		row[k] = m.f.Mul(v, c)
	}
}

// addScaledRow does row[dst] ^= c·row[src].
func (m *Matrix) addScaledRow(dst, src int, c uint32) {
	rd := m.data[dst*m.cols : (dst+1)*m.cols]
	rs := m.data[src*m.cols : (src+1)*m.cols]
	for k, v := range rs {
		if v != 0 {
			rd[k] ^= m.f.Mul(c, v)
		}
	}
}

// SelectRows returns a new matrix made of the given rows of m, in order.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	r := New(m.f, len(rows), m.cols)
	for i, src := range rows {
		copy(r.data[i*m.cols:(i+1)*m.cols], m.data[src*m.cols:(src+1)*m.cols])
	}
	return r
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%3d", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
