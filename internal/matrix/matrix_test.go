package matrix

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"stair/internal/gf"
)

func randMatrix(f *gf.Field, rng *rand.Rand, rows, cols int) *Matrix {
	m := New(f, rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, uint32(rng.Intn(f.Size())))
		}
	}
	return m
}

func TestIdentityMulIsNoop(t *testing.T) {
	f := gf.Get(8)
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(f, rng, 5, 7)
	i5 := identity(f, 5)
	i7 := identity(f, 7)
	if !equal(i5.Mul(m), m) {
		t.Error("I·M != M")
	}
	if !equal(m.Mul(i7), m) {
		t.Error("M·I != M")
	}
}

func TestInvertRoundtrip(t *testing.T) {
	for _, w := range []int{4, 8, 16} {
		f := gf.Get(w)
		rng := rand.New(rand.NewSource(int64(w)))
		for trial := 0; trial < 30; trial++ {
			n := 1 + rng.Intn(8)
			var m *Matrix
			// Retry until we draw an invertible matrix.
			for {
				m = randMatrix(f, rng, n, n)
				if m.Rank() == n {
					break
				}
			}
			inv, err := m.Invert()
			if err != nil {
				t.Fatalf("w=%d n=%d: unexpected Invert error: %v", w, n, err)
			}
			if !equal(m.Mul(inv), identity(f, n)) {
				t.Fatalf("w=%d n=%d: M·M^-1 != I", w, n)
			}
			if !equal(inv.Mul(m), identity(f, n)) {
				t.Fatalf("w=%d n=%d: M^-1·M != I", w, n)
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	f := gf.Get(8)
	m := New(f, 3, 3)
	m.Set(0, 0, 1)
	m.Set(1, 0, 1) // rows 0 and 1 identical in column 0, zero elsewhere
	if _, err := m.Invert(); !errors.Is(err, ErrSingular) {
		t.Errorf("expected ErrSingular, got %v", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	f := gf.Get(8)
	if _, err := New(f, 2, 3).Invert(); err == nil {
		t.Error("expected error inverting non-square matrix")
	}
}

func TestMulAssociativity(t *testing.T) {
	f := gf.Get(8)
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(f, rng, 3, 4)
	b := randMatrix(f, rng, 4, 5)
	c := randMatrix(f, rng, 5, 2)
	if !equal(a.Mul(b).Mul(c), a.Mul(b.Mul(c))) {
		t.Error("(AB)C != A(BC)")
	}
}

// TestMulVecMatchesMul holds Mul with a one-column operand to the
// definition of m·v: entry i is Σ_j m[i][j]·v[j].
func TestMulVecMatchesMul(t *testing.T) {
	f := gf.Get(8)
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(f, rng, 4, 6)
	v := make([]uint32, 6)
	for i := range v {
		v[i] = uint32(rng.Intn(256))
	}
	// Represent v as a 6x1 matrix and compare.
	vm := New(f, 6, 1)
	for i, x := range v {
		vm.Set(i, 0, x)
	}
	want := m.Mul(vm)
	for i := 0; i < m.Rows(); i++ {
		var got uint32
		for j, x := range v {
			got ^= f.Mul(m.At(i, j), x)
		}
		if got != want.At(i, 0) {
			t.Fatalf("(m·v)[%d] = %d by definition, Mul gives %d", i, got, want.At(i, 0))
		}
	}
}

// TestVecMulMatchesMul holds Mul with a one-row operand to the
// definition of v·m: entry j is Σ_i v[i]·m[i][j].
func TestVecMulMatchesMul(t *testing.T) {
	f := gf.Get(8)
	rng := rand.New(rand.NewSource(8))
	m := randMatrix(f, rng, 4, 6)
	v := make([]uint32, 4)
	for i := range v {
		v[i] = uint32(rng.Intn(256))
	}
	vm := New(f, 1, 4)
	for i, x := range v {
		vm.Set(0, i, x)
	}
	want := vm.Mul(m)
	for j := 0; j < m.Cols(); j++ {
		var got uint32
		for i, x := range v {
			got ^= f.Mul(x, m.At(i, j))
		}
		if got != want.At(0, j) {
			t.Fatalf("(v·m)[%d] = %d by definition, Mul gives %d", j, got, want.At(0, j))
		}
	}
}

// TestCauchySubmatricesInvertible is the MDS-enabling property: every
// square submatrix of a Cauchy matrix is invertible.
func TestCauchySubmatricesInvertible(t *testing.T) {
	f := gf.Get(8)
	xs := []uint32{10, 11, 12, 13}
	ys := []uint32{0, 1, 2, 3, 4}
	c, err := Cauchy(f, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(4)
		rows := rng.Perm(len(ys))[:k]
		cols := rng.Perm(len(xs))[:k]
		sub := selectCols(c.SelectRows(rows), cols)
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("Cauchy %dx%d submatrix rows=%v cols=%v singular", k, k, rows, cols)
		}
	}
}

func TestCauchyRejectsDuplicatePoints(t *testing.T) {
	f := gf.Get(8)
	if _, err := Cauchy(f, []uint32{1, 2}, []uint32{2, 3}); err == nil {
		t.Error("expected error for overlapping xs/ys")
	}
	if _, err := Cauchy(f, []uint32{1, 1}, []uint32{2, 3}); err == nil {
		t.Error("expected error for duplicate xs")
	}
}

func TestRank(t *testing.T) {
	f := gf.Get(8)
	if got := identity(f, 4).Rank(); got != 4 {
		t.Errorf("rank(I4) = %d", got)
	}
	z := New(f, 3, 3)
	if got := z.Rank(); got != 0 {
		t.Errorf("rank(0) = %d", got)
	}
	m := New(f, 3, 3)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2) // duplicate row
	m.Set(2, 2, 5)
	if got := m.Rank(); got != 2 {
		t.Errorf("rank = %d, want 2", got)
	}
	// Columns 0 and 1 are proportional, so they solve only apart.
	for _, tc := range []struct {
		lost []int
		ok   bool
	}{{[]int{0, 2}, true}, {[]int{1, 2}, true}, {[]int{0, 1}, false}} {
		if _, err := m.Solve(tc.lost); (err == nil) != tc.ok {
			t.Errorf("Solve(%v): err = %v, want ok = %v", tc.lost, err, tc.ok)
		}
	}
}

func TestSelectRowsCols(t *testing.T) {
	f := gf.Get(8)
	m := New(f, 3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, uint32(10*i+j))
		}
	}
	r := m.SelectRows([]int{2, 0})
	if r.At(0, 1) != 21 || r.At(1, 2) != 2 {
		t.Error("SelectRows wrong content")
	}
}

// equal reports whether two matrices have identical dimensions and data.
func equal(a, b *Matrix) bool {
	return a.rows == b.rows && a.cols == b.cols && slices.Equal(a.data, b.data)
}

// identity returns the n×n identity matrix.
func identity(f *gf.Field, n int) *Matrix {
	m := New(f, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// selectCols returns a new matrix made of the given columns of m, in
// order: the submatrix the rank checks below are taken over.
func selectCols(m *Matrix, cols []int) *Matrix {
	r := New(m.f, m.rows, len(cols))
	for i := 0; i < m.rows; i++ {
		for j, src := range cols {
			r.Set(i, j, m.At(i, src))
		}
	}
	return r
}

func TestCloneIsDeep(t *testing.T) {
	f := gf.Get(8)
	m := identity(f, 2)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestStringSmoke(t *testing.T) {
	f := gf.Get(8)
	if s := identity(f, 2).String(); s == "" {
		t.Error("empty String()")
	}
}

// TestSolveReproducesLostEntries: for random parity-check matrices
// H = [A | I] with columns shuffled, whose codewords are (u, A·u), every
// independent lost set's K recovers the lost entries of random codewords
// from the known ones, and every dependent set, including any set of
// more columns than H has rows, gets ErrSingular.
func TestSolveReproducesLostEntries(t *testing.T) {
	for _, w := range []int{4, 8, 16} {
		f := gf.Get(w)
		rng := rand.New(rand.NewSource(int64(w) + 40))
		for trial := 0; trial < 60; trial++ {
			q, k := 1+rng.Intn(6), 1+rng.Intn(8)
			a := randMatrix(f, rng, q, k)
			perm := rng.Perm(k + q) // perm[j]: the column of H holding column j of [A | I]
			h := New(f, q, k+q)
			for i := 0; i < q; i++ {
				for j := 0; j < k; j++ {
					h.Set(i, perm[j], a.At(i, j))
				}
				h.Set(i, perm[k+i], 1)
			}
			codeword := func() []uint32 {
				x := make([]uint32, k+q)
				u := make([]uint32, k)
				for j := range u {
					u[j] = uint32(rng.Intn(f.Size()))
					x[perm[j]] = u[j]
				}
				for i := 0; i < q; i++ {
					var p uint32
					for j, v := range u {
						p ^= f.Mul(a.At(i, j), v)
					}
					x[perm[k+i]] = p
				}
				return x
			}
			lost := rng.Perm(k + q)[:1+rng.Intn(k+q)]
			sol, err := h.Solve(lost)
			if independent := len(lost) <= q && selectCols(h, lost).Rank() == len(lost); !independent {
				if !errors.Is(err, ErrSingular) {
					t.Fatalf("w=%d H=%dx%d lost=%v dependent: err = %v, want ErrSingular", w, q, k+q, lost, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("w=%d H=%dx%d lost=%v: %v", w, q, k+q, lost, err)
			}
			for c := 0; c < 4; c++ {
				x := codeword()
				for i, l := range lost {
					var got uint32
					for j, v := range x {
						got ^= f.Mul(sol.At(i, j), v)
					}
					if got != x[l] || sol.At(i, l) != 0 {
						t.Fatalf("w=%d lost=%v: K gives x[%d] = %d, want %d", w, lost, l, got, x[l])
					}
				}
			}
		}
	}
}
