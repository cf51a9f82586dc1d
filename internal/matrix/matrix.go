// Package matrix implements dense matrix algebra over GF(2^w), the
// linear-algebra substrate for the Reed-Solomon codes that STAIR codes
// are built from (paper §2-§3).
//
// Matrices are small (dimensions bounded by stripe geometry, at most a
// few hundred), so the implementation favours clarity over blocking or
// cache tricks: Gauss-Jordan inversion, naive multiplication.
package matrix

import (
	"errors"
	"fmt"
	"sort"

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

// Identity returns the n×n identity matrix.
func Identity(f *gf.Field, n int) *Matrix {
	m := New(f, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
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

// Equal reports whether two matrices have identical dimensions and data.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if o.data[i] != v {
			return false
		}
	}
	return true
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

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination, or ErrSingular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	a := m.Clone()
	inv := Identity(m.f, n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			a.swapRows(pivot, col)
			inv.swapRows(pivot, col)
		}
		// Scale pivot row to make the pivot 1.
		p := a.At(col, col)
		if p != 1 {
			pinv := m.f.Inv(p)
			a.scaleRow(col, pinv)
			inv.scaleRow(col, pinv)
		}
		// Eliminate the column from all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := a.At(r, col)
			if factor == 0 {
				continue
			}
			a.addScaledRow(r, col, factor)
			inv.addScaledRow(r, col, factor)
		}
	}
	return inv, nil
}

func (m *Matrix) swapRows(i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
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

// IndependentRows returns, ascending, the rows of m that row echelon
// reduction on a copy takes as pivots, each column's pivot being the
// first candidate in row order: a maximal linearly independent set of
// rows. SD decoding picks its constraint rows with it.
func (m *Matrix) IndependentRows() []int {
	a := m.Clone()
	orig := make([]int, a.rows) // orig[i]: the row of m now at row i of a
	for i := range orig {
		orig[i] = i
	}
	var rows []int
	for col := 0; col < a.cols && len(rows) < a.rows; col++ {
		rank := len(rows)
		pivot := rank
		for pivot < a.rows && a.At(pivot, col) == 0 {
			pivot++
		}
		if pivot == a.rows {
			continue
		}
		a.swapRows(pivot, rank)
		orig[pivot], orig[rank] = orig[rank], orig[pivot]
		a.scaleRow(rank, a.f.Inv(a.At(rank, col)))
		for r := rank + 1; r < a.rows; r++ {
			if f := a.At(r, col); f != 0 {
				a.addScaledRow(r, rank, f)
			}
		}
		rows = append(rows, orig[rank])
	}
	sort.Ints(rows)
	return rows
}

// Rank returns the rank of the matrix.
func (m *Matrix) Rank() int { return len(m.IndependentRows()) }

// SelectRows returns a new matrix made of the given rows of m, in order.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	r := New(m.f, len(rows), m.cols)
	for i, src := range rows {
		copy(r.data[i*m.cols:(i+1)*m.cols], m.data[src*m.cols:(src+1)*m.cols])
	}
	return r
}

// SelectCols returns a new matrix made of the given columns of m, in order.
func (m *Matrix) SelectCols(cols []int) *Matrix {
	r := New(m.f, m.rows, len(cols))
	for i := 0; i < m.rows; i++ {
		for j, src := range cols {
			r.Set(i, j, m.At(i, src))
		}
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
