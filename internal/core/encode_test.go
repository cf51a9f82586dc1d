package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// fillData puts deterministic random bytes in every data cell.
func fillData(t *testing.T, c *Code, st *Stripe, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, cell := range c.DataCells() {
		rng.Read(st.Sector(cell.Col, cell.Row))
	}
}

func stripesEqual(a, b *Stripe) bool {
	for i := range a.Cells {
		if !bytes.Equal(a.Cells[i], b.Cells[i]) {
			return false
		}
	}
	for i := range a.Globals {
		if !bytes.Equal(a.Globals[i], b.Globals[i]) {
			return false
		}
	}
	return true
}

// TestEncodeMethodsAgree pins §5.1.3: upstairs, downstairs and standard
// encoding produce identical parity values, across configurations and
// placements.
func TestEncodeMethodsAgree(t *testing.T) {
	cases := []Config{
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}},
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, Placement: Outside},
		{N: 6, R: 4, M: 1, E: []int{4}},
		{N: 6, R: 4, M: 1, E: []int{4}, Placement: Outside},
		{N: 5, R: 4, M: 0, E: []int{1, 2}},
		{N: 6, R: 6, M: 2, E: []int{2, 2, 2, 2}},
		{N: 9, R: 5, M: 3, E: []int{1}},
		{N: 8, R: 4, M: 2, E: nil},
		{N: 8, R: 4, M: 2, E: []int{1, 2}, W: 16},
		{N: 6, R: 4, M: 1, E: []int{1, 2}, W: 4},
	}
	for _, cfg := range cases {
		t.Run(cfg.String(), func(t *testing.T) {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sectorSize := 16 * c.Field().SymbolBytes()
			mk := func(m Method) *Stripe {
				st, err := c.NewStripe(sectorSize)
				if err != nil {
					t.Fatal(err)
				}
				fillData(t, c, st, 42)
				if err := c.EncodeWith(st, m); err != nil {
					t.Fatalf("EncodeWith(%v): %v", m, err)
				}
				return st
			}
			up := mk(MethodUpstairs)
			down := mk(MethodDownstairs)
			std := mk(MethodStandard)
			if !stripesEqual(up, down) {
				t.Error("upstairs and downstairs disagree")
			}
			if !stripesEqual(up, std) {
				t.Error("upstairs and standard disagree")
			}
		})
	}
}

// TestHomomorphicProperty checks Theorem A.1 on encoded stripes: encode
// every chunk with Ccol to extend it by e_max virtual symbols; each
// augmented row of the canonical stripe must then be a Crow codeword
// whose parity positions match the column-extended intermediate chunks.
func TestHomomorphicProperty(t *testing.T) {
	for _, p := range []Placement{Inside, Outside} {
		c := exemplary(t, p)
		const sectorSize = 8
		st, err := c.NewStripe(sectorSize)
		if err != nil {
			t.Fatal(err)
		}
		fillData(t, c, st, 7)
		if err := c.Encode(st); err != nil {
			t.Fatal(err)
		}

		// Reconstruct the full canonical grid by direct arithmetic.
		grid := make([][]byte, c.rows*c.cols)
		for col := 0; col < c.n; col++ {
			for row := 0; row < c.r; row++ {
				grid[c.cellIdx(row, col)] = st.Sector(col, row)
			}
		}
		// Intermediate parity chunks via Crow on each real row.
		for row := 0; row < c.r; row++ {
			data := make([][]byte, c.n-c.m)
			for j := range data {
				data[j] = grid[c.cellIdx(row, j)]
			}
			parity := make([][]byte, c.m+c.mPrime)
			for k := range parity {
				parity[k] = make([]byte, sectorSize)
			}
			if err := c.crow.EncodeRegions(data, parity); err != nil {
				t.Fatal(err)
			}
			// Row parity chunks must match what Encode stored.
			for k := 0; k < c.m; k++ {
				if !bytes.Equal(parity[k], st.Sector(c.n-c.m+k, row)) {
					t.Fatalf("placement %v: row parity (%d,%d) mismatch", p, c.n-c.m+k, row)
				}
			}
			for l := 0; l < c.mPrime; l++ {
				grid[c.cellIdx(row, c.n+l)] = parity[c.m+l]
			}
		}
		// Augment every column with Ccol.
		for col := 0; col < c.cols; col++ {
			data := make([][]byte, c.r)
			for row := 0; row < c.r; row++ {
				data[row] = grid[c.cellIdx(row, col)]
			}
			parity := make([][]byte, c.eMax)
			for k := range parity {
				parity[k] = make([]byte, sectorSize)
			}
			if err := c.ccol.EncodeRegions(data, parity); err != nil {
				t.Fatal(err)
			}
			for h := 0; h < c.eMax; h++ {
				grid[c.cellIdx(c.r+h, col)] = parity[h]
			}
		}
		// Global parity positions: zero for Inside, the stored Globals
		// for Outside (§5.1 fixes outside globals to zero after
		// relocation).
		for l := 0; l < c.mPrime; l++ {
			for h := 0; h < c.e[l]; h++ {
				got := grid[c.cellIdx(c.r+h, c.n+l)]
				if p == Inside {
					for i, b := range got {
						if b != 0 {
							t.Fatalf("inside: outside-global g%d,%d byte %d = %d, want 0", h, l, i, b)
						}
					}
				} else if !bytes.Equal(got, st.Globals[c.globalOrd(l, h)]) {
					t.Fatalf("outside: stored global g%d,%d does not match column encoding", h, l)
				}
			}
		}
		// Homomorphic property: each augmented row is a Crow codeword.
		for h := 0; h < c.eMax; h++ {
			row := c.r + h
			data := make([][]byte, c.n-c.m)
			for j := range data {
				data[j] = grid[c.cellIdx(row, j)]
			}
			parity := make([][]byte, c.m+c.mPrime)
			for k := range parity {
				parity[k] = make([]byte, sectorSize)
			}
			if err := c.crow.EncodeRegions(data, parity); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < c.m+c.mPrime; k++ {
				if !bytes.Equal(parity[k], grid[c.cellIdx(row, c.n-c.m+k)]) {
					t.Fatalf("placement %v: augmented row %d is not a Crow codeword at parity %d", p, row, k)
				}
			}
		}
	}
}

// TestVerify: a fresh encode verifies, and one flipped byte in the last
// tile of any parity cell (Outside Globals included) or of a data cell
// fails it — for every field width and placement, at sector sizes below,
// at and ragged past the plan tile. Verify recomputes parity into scratch,
// so it must leave the stripe byte-identical whatever it finds.
func TestVerify(t *testing.T) {
	forEachPlanCase(t, func(t *testing.T, c *Code, sectorSize int) {
		st := newFilledStripe(t, c, sectorSize, 3)
		if err := c.Encode(st); err != nil {
			t.Fatal(err)
		}
		want := st.Clone()
		verify := func(what string, wantOK bool) {
			t.Helper()
			ok, err := c.Verify(st)
			if err != nil || ok != wantOK {
				t.Fatalf("%s: Verify = %v, %v; want %v", what, ok, err, wantOK)
			}
			if !stripesEqual(st, want) {
				t.Fatalf("%s: Verify changed the stripe", what)
			}
		}
		verify("fresh encode", true)
		rng := rand.New(rand.NewSource(5))
		lastTile := (sectorSize - 1) / defaultPlanTile * defaultPlanTile
		idxs := slices.Clone(c.parityCells)
		if c.R() == planTallConfig.R && sectorSize > defaultPlanTile {
			// Each flip costs a whole-stripe encode: past the tile, the
			// 512-cell stripe's 257 parity cells would take a minute under
			// -race. At 34 B every one is flipped; here every 32nd is, and
			// the global last.
			var some []int
			for i := 0; i < len(idxs); i += 32 {
				some = append(some, idxs[i])
			}
			idxs = append(some, idxs[len(idxs)-1])
		}
		idxs = append(idxs, c.dataCells[0], c.dataCells[len(c.dataCells)-1])
		for _, idx := range idxs {
			b := lastTile + rng.Intn(sectorSize-lastTile)
			flip := func() {
				c.stored(st, idx)[b] ^= 0x5a
				c.stored(want, idx)[b] ^= 0x5a
			}
			flip()
			verify(fmt.Sprintf("%s byte %d flipped", c.CellName(c.cellRC(idx)), b), false)
			flip()
		}
		verify("restored", true)
	})
}

func TestEncodeValidatesStripe(t *testing.T) {
	c := exemplary(t, Inside)
	if err := c.Encode(nil); err == nil {
		t.Error("nil stripe accepted")
	}
	st, _ := c.NewStripe(8)
	st.Cells[3] = st.Cells[3][:4]
	if err := c.Encode(st); err == nil {
		t.Error("ragged stripe accepted")
	}
	st2, _ := c.NewStripe(8)
	st2.N = 7
	if err := c.Encode(st2); err == nil {
		t.Error("wrong geometry accepted")
	}
	st3, _ := c.NewStripe(8)
	st3.Globals = make([][]byte, 1)
	if err := c.Encode(st3); err == nil {
		t.Error("inside placement with Globals accepted")
	}
	// Outside placement requires Globals.
	out := exemplary(t, Outside)
	st4, _ := out.NewStripe(8)
	st4.Globals = nil
	if err := out.Encode(st4); err == nil {
		t.Error("outside placement without Globals accepted")
	}
}

func TestNewStripeValidation(t *testing.T) {
	c := exemplary(t, Inside)
	if _, err := c.NewStripe(0); err == nil {
		t.Error("zero sector size accepted")
	}
	c16, err := New(Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, W: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c16.NewStripe(7); err == nil {
		t.Error("odd sector size accepted for w=16")
	}
}

// TestEncodeDeterministic ensures repeated encodes of the same data are
// byte-identical (schedules are deterministic).
func TestEncodeDeterministic(t *testing.T) {
	c := exemplary(t, Inside)
	a, _ := c.NewStripe(32)
	b, _ := c.NewStripe(32)
	fillData(t, c, a, 9)
	fillData(t, c, b, 9)
	if err := c.Encode(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Encode(b); err != nil {
		t.Fatal(err)
	}
	if !stripesEqual(a, b) {
		t.Error("two encodes of identical data differ")
	}
}

// TestConcurrentEncode exercises the scratch pool under concurrency.
func TestConcurrentEncode(t *testing.T) {
	c := exemplary(t, Inside)
	want, _ := c.NewStripe(64)
	fillData(t, c, want, 11)
	if err := c.Encode(want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _ := c.NewStripe(64)
			fillData(t, c, st, 11)
			if err := c.Encode(st); err != nil {
				errs <- err
				return
			}
			if !stripesEqual(st, want) {
				errs <- fmt.Errorf("concurrent encode mismatch")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestZeroDataEncodesToZeroParity: the code is linear, so the all-zero
// stripe must encode to all-zero parity.
func TestZeroDataEncodesToZeroParity(t *testing.T) {
	c := exemplary(t, Inside)
	st, _ := c.NewStripe(16)
	if err := c.Encode(st); err != nil {
		t.Fatal(err)
	}
	for i, s := range st.Cells {
		for j, b := range s {
			if b != 0 {
				t.Fatalf("cell %d byte %d = %d, want 0", i, j, b)
			}
		}
	}
}

// TestEncodeLinearity: encode(a) XOR encode(b) == encode(a XOR b),
// checked on parity cells.
func TestEncodeLinearity(t *testing.T) {
	c := exemplary(t, Inside)
	a, _ := c.NewStripe(16)
	b, _ := c.NewStripe(16)
	ab, _ := c.NewStripe(16)
	fillData(t, c, a, 1)
	fillData(t, c, b, 2)
	for i := range ab.Cells {
		for j := range ab.Cells[i] {
			ab.Cells[i][j] = a.Cells[i][j] ^ b.Cells[i][j]
		}
	}
	for _, st := range []*Stripe{a, b, ab} {
		if err := c.Encode(st); err != nil {
			t.Fatal(err)
		}
	}
	for _, pc := range c.ParityCells() {
		pa := a.Sector(pc.Col, pc.Row)
		pb := b.Sector(pc.Col, pc.Row)
		pab := ab.Sector(pc.Col, pc.Row)
		for i := range pab {
			if pab[i] != pa[i]^pb[i] {
				t.Fatalf("linearity violated at %v byte %d", pc, i)
			}
		}
	}
}

func TestCostActualNeverExceedsModel(t *testing.T) {
	for _, cfg := range []Config{
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}},
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, Placement: Outside},
		{N: 16, R: 16, M: 2, E: []int{1, 1, 2}},
		{N: 6, R: 4, M: 1, E: []int{4}},
	} {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Method{MethodUpstairs, MethodDownstairs, MethodStandard} {
			if c.CostActual(m) > c.Cost(m) {
				t.Errorf("%v %v: actual %d > model %d", cfg, m, c.CostActual(m), c.Cost(m))
			}
		}
	}
}
