package rs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stair/internal/gf"
)

// TestQuickRoundtrip drives the MDS property with testing/quick: for a
// random shape, random data and a random erasure set of size ≤ η−κ,
// reconstruction recovers the original codeword.
func TestQuickRoundtrip(t *testing.T) {
	f := gf.Get(8)
	property := func(etaRaw, kappaRaw uint8, seed int64) bool {
		kappa := 1 + int(kappaRaw)%12
		eta := kappa + 1 + int(etaRaw)%8
		rng := rand.New(rand.NewSource(seed))
		c, err := New(f, eta, kappa, Cauchy)
		if err != nil {
			return false
		}
		data := make([]uint32, kappa)
		for i := range data {
			data[i] = uint32(rng.Intn(256))
		}
		parity, err := c.EncodeSymbols(data)
		if err != nil {
			return false
		}
		full := append(append([]uint32{}, data...), parity...)
		cw := append([]uint32{}, full...)
		present := make([]bool, eta)
		for i := range present {
			present[i] = true
		}
		nLost := 1 + rng.Intn(eta-kappa)
		for _, p := range rng.Perm(eta)[:nLost] {
			present[p] = false
			cw[p] = 0
		}
		if err := reconstruct(c, cw, present); err != nil {
			return false
		}
		for i := range cw {
			if cw[i] != full[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSolveCoeffsConsistency: reconstructing any position from any
// κ-subset gives the stored value.
func TestQuickSolveCoeffsConsistency(t *testing.T) {
	f := gf.Get(8)
	c, err := New(f, 10, 6, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]uint32, 6)
		for i := range data {
			data[i] = uint32(rng.Intn(256))
		}
		parity, err := c.EncodeSymbols(data)
		if err != nil {
			return false
		}
		full := append(append([]uint32{}, data...), parity...)
		have := rng.Perm(10)[:6]
		want := []int{rng.Intn(10)}
		k, err := c.SolveCoeffs(have, want)
		if err != nil {
			return false
		}
		var acc uint32
		for j := 0; j < 6; j++ {
			acc ^= f.Mul(k.At(0, j), full[have[j]])
		}
		return acc == full[want[0]]
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
