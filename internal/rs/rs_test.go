package rs

import (
	"math/rand"
	"testing"

	"stair/internal/gf"
)

func TestNewValidation(t *testing.T) {
	f := gf.Get(8)
	cases := []struct {
		eta, kappa int
		ok         bool
	}{
		{6, 4, true},
		{4, 4, true},
		{1, 1, true},
		{256, 200, true},
		{257, 200, false}, // eta > field size
		{3, 4, false},     // eta < kappa
		{5, 0, false},
	}
	for _, tc := range cases {
		_, err := New(f, tc.eta, tc.kappa, Cauchy)
		if (err == nil) != tc.ok {
			t.Errorf("New(%d,%d): err=%v, want ok=%v", tc.eta, tc.kappa, err, tc.ok)
		}
	}
	if _, err := New(f, 6, 4, Kind(1)); err == nil {
		t.Error("New accepted a kind other than Cauchy")
	}
}

func TestKindString(t *testing.T) {
	if Cauchy.String() != "cauchy" {
		t.Error("Kind.String wrong")
	}
	if Kind(42).String() == "" {
		t.Error("unknown Kind should still render")
	}
}

// reconstruct fills in the missing symbols of a codeword in place
// through SolveCoeffs: present[i] reports whether codeword[i] is valid.
func reconstruct(c *Code, codeword []uint32, present []bool) error {
	var have, want []int
	for i, ok := range present {
		if ok {
			have = append(have, i)
		} else {
			want = append(want, i)
		}
	}
	if len(want) == 0 {
		return nil
	}
	k, err := c.SolveCoeffs(have, want)
	if err != nil {
		return err
	}
	for i, w := range want {
		var acc uint32
		for j := 0; j < c.kappa; j++ {
			acc ^= c.f.Mul(k.At(i, j), codeword[have[j]])
		}
		codeword[w] = acc
	}
	return nil
}

func TestSystematicProperty(t *testing.T) {
	f := gf.Get(8)
	c, err := New(f, 9, 5, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	g := c.gen
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := uint32(0)
			if i == j {
				want = 1
			}
			if g.At(i, j) != want {
				t.Fatalf("generator top block not identity at (%d,%d)", i, j)
			}
		}
	}
}

// TestMDSProperty verifies the defining property: any kappa codeword
// symbols recover the data, across several shapes.
func TestMDSProperty(t *testing.T) {
	for _, w := range []int{8, 16} {
		f := gf.Get(w)
		for _, shape := range []struct{ eta, kappa int }{
			{6, 4}, {11, 6}, {6, 1}, {8, 7}, {18, 12},
		} {
			c, err := New(f, shape.eta, shape.kappa, Cauchy)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(w*100 + shape.eta)))
			data := make([]uint32, shape.kappa)
			for i := range data {
				data[i] = uint32(rng.Intn(f.Size()))
			}
			parity, err := c.EncodeSymbols(data)
			if err != nil {
				t.Fatal(err)
			}
			full := append(append([]uint32{}, data...), parity...)
			for trial := 0; trial < 40; trial++ {
				// Erase a random set of up to eta-kappa symbols.
				nLost := 1 + rng.Intn(shape.eta-shape.kappa)
				if shape.eta == shape.kappa {
					break
				}
				lost := rng.Perm(shape.eta)[:nLost]
				cw := append([]uint32{}, full...)
				present := make([]bool, shape.eta)
				for i := range present {
					present[i] = true
				}
				for _, l := range lost {
					cw[l] = 0xdead & uint32(f.Size()-1)
					present[l] = false
				}
				if err := reconstruct(c, cw, present); err != nil {
					t.Fatalf("w=%d shape=%v lost=%v: %v", w, shape, lost, err)
				}
				for i := range cw {
					if cw[i] != full[i] {
						t.Fatalf("w=%d shape=%v lost=%v: symbol %d = %d, want %d",
							w, shape, lost, i, cw[i], full[i])
					}
				}
			}
		}
	}
}

func TestEncodeSymbolsLengthCheck(t *testing.T) {
	f := gf.Get(8)
	c, _ := New(f, 6, 4, Cauchy)
	if _, err := c.EncodeSymbols(make([]uint32, 3)); err == nil {
		t.Error("expected length error")
	}
}

func TestEncodeRegionsMatchesSymbols(t *testing.T) {
	f := gf.Get(8)
	c, err := New(f, 7, 4, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const regionLen = 64
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, regionLen)
		rng.Read(data[i])
	}
	parity := make([][]byte, 3)
	for i := range parity {
		parity[i] = make([]byte, regionLen)
	}
	if err := c.EncodeRegions(data, parity); err != nil {
		t.Fatal(err)
	}
	// Check each byte position independently as a symbol codeword.
	for pos := 0; pos < regionLen; pos++ {
		syms := make([]uint32, 4)
		for i := range syms {
			syms[i] = uint32(data[i][pos])
		}
		want, err := c.EncodeSymbols(syms)
		if err != nil {
			t.Fatal(err)
		}
		for p := range parity {
			if uint32(parity[p][pos]) != want[p] {
				t.Fatalf("region encode mismatch at parity %d pos %d", p, pos)
			}
		}
	}
}

func TestSolveCoeffsIdentityOnKnownPosition(t *testing.T) {
	f := gf.Get(8)
	c, _ := New(f, 6, 4, Cauchy)
	// Reconstructing a position we already have must give the unit map.
	k, err := c.SolveCoeffs([]int{0, 1, 2, 3}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		want := uint32(0)
		if j == 2 {
			want = 1
		}
		if k.At(0, j) != want {
			t.Fatalf("coeff[0][%d] = %d, want %d", j, k.At(0, j), want)
		}
	}
}

func TestSolveCoeffsErrors(t *testing.T) {
	f := gf.Get(8)
	c, _ := New(f, 6, 4, Cauchy)
	if _, err := c.SolveCoeffs([]int{0, 1, 2}, []int{4}); err == nil {
		t.Error("expected error with too few known positions")
	}
	if _, err := c.SolveCoeffs([]int{0, 1, 2, 9}, []int{4}); err == nil {
		t.Error("expected error with out-of-range position")
	}
	if _, err := c.SolveCoeffs([]int{0, 1, 2, 2}, []int{4}); err == nil {
		t.Error("expected error with duplicate positions")
	}
}

func TestReconstructTooManyErasures(t *testing.T) {
	f := gf.Get(8)
	c, _ := New(f, 6, 4, Cauchy)
	cw := make([]uint32, 6)
	present := []bool{true, true, true, false, false, false}
	if err := reconstruct(c, cw, present); err == nil {
		t.Error("expected error with eta-kappa+1 erasures")
	}
}

func TestDegenerateFullRateCode(t *testing.T) {
	f := gf.Get(8)
	c, err := New(f, 4, 4, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.EncodeSymbols([]uint32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 0 {
		t.Errorf("full-rate code produced %d parities", len(p))
	}
}

// TestCrowCcolShapes exercises the exact code shapes STAIR uses in the
// paper's exemplary configuration (§3): Crow=(11,6), Ccol=(6,4).
func TestCrowCcolShapes(t *testing.T) {
	f := gf.Get(8)
	crow, err := New(f, 11, 6, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	ccol, err := New(f, 6, 4, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	if crow.eta != 11 || crow.Kappa() != 6 || ccol.eta != 6 || ccol.Kappa() != 4 {
		t.Error("unexpected shapes")
	}
}
