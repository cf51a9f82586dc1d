package matrix

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"stair/internal/gf"
)

// TestQuickInverseProperty: every full-rank random matrix inverts, and
// the inverse multiplies back to the identity.
func TestQuickInverseProperty(t *testing.T) {
	f := gf.Get(8)
	property := func(sizeRaw uint8, seed int64) bool {
		n := 1 + int(sizeRaw)%7
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(f, rng, n, n)
		inv, err := m.Invert()
		if err != nil {
			// Singular draws are legitimate; verify via rank.
			return m.Rank() < n
		}
		return equal(m.Mul(inv), identity(f, n)) && m.Rank() == n
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickMulDistributesOverXOR: matrix multiplication is linear over
// entrywise XOR of the right operand.
func TestQuickMulDistributesOverXOR(t *testing.T) {
	f := gf.Get(8)
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(f, rng, 3, 4)
		b := randMatrix(f, rng, 4, 2)
		c := randMatrix(f, rng, 4, 2)
		bc := New(f, 4, 2)
		for i := 0; i < 4; i++ {
			for j := 0; j < 2; j++ {
				bc.Set(i, j, b.At(i, j)^c.At(i, j))
			}
		}
		left := a.Mul(bc)
		ab, ac := a.Mul(b), a.Mul(c)
		for i := 0; i < 3; i++ {
			for j := 0; j < 2; j++ {
				if left.At(i, j) != ab.At(i, j)^ac.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickRankBounds: rank never exceeds min(rows, cols), is
// invariant under transpose-free row selection reorderings, and a set of
// columns solves exactly when the columns are independent.
func TestQuickRankBounds(t *testing.T) {
	f := gf.Get(8)
	property := func(rRaw, cRaw uint8, seed int64) bool {
		rows := 1 + int(rRaw)%6
		cols := 1 + int(cRaw)%6
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(f, rng, rows, cols)
		rank := m.Rank()
		if rank < 0 || rank > rows || rank > cols {
			return false
		}
		// Permuting rows preserves rank.
		perm := rng.Perm(rows)
		if m.SelectRows(perm).Rank() != rank {
			return false
		}
		lost := perm[:1+rng.Intn(rows)]
		for i := range lost {
			lost[i] %= cols
		}
		slices.Sort(lost)
		lost = slices.Compact(lost)
		_, err := m.Solve(lost)
		return (err == nil) == (selectCols(m, lost).Rank() == len(lost))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
