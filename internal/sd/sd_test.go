package sd

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"stair/internal/ec"
	"stair/internal/gf"
)

func newCode(t *testing.T, n, r, m, s int) *Code {
	t.Helper()
	c, err := New(Config{N: n, R: r, M: m, S: s})
	if err != nil {
		t.Fatalf("New(n=%d r=%d m=%d s=%d): %v", n, r, m, s, err)
	}
	return c
}

func newStripe(c *Code, sectorSize int, seed int64) [][]byte {
	cells := make([][]byte, c.N()*c.R())
	for i := range cells {
		cells[i] = make([]byte, sectorSize)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, cell := range c.DataCells() {
		rng.Read(cells[cell.Col*c.R()+cell.Row])
	}
	return cells
}

func cloneStripe(cells [][]byte) [][]byte {
	out := make([][]byte, len(cells))
	for i, s := range cells {
		out[i] = append([]byte{}, s...)
	}
	return out
}

func stripesEqual(a, b [][]byte) bool {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{N: 8, R: 4, M: 2, S: 2}, true},
		{Config{N: 8, R: 4, M: 2, S: 0}, true},
		{Config{N: 8, R: 4, M: 0, S: 1}, true},
		{Config{N: 0, R: 4, M: 0, S: 1}, false},
		{Config{N: 8, R: 0, M: 2, S: 1}, false},
		{Config{N: 8, R: 4, M: 8, S: 1}, false},
		{Config{N: 8, R: 4, M: -1, S: 1}, false},
		{Config{N: 8, R: 4, M: 2, S: 5}, false}, // s > r
		{Config{N: 8, R: 4, M: 2, S: 1, W: 7}, false},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if (err == nil) != tc.ok {
			t.Errorf("New(%+v): err=%v, want ok=%v", tc.cfg, err, tc.ok)
		}
	}
}

func TestGeometry(t *testing.T) {
	c := newCode(t, 8, 4, 2, 2)
	if len(c.DataCells()) != 8*4-2*4-2 {
		t.Errorf("data cells = %d, want %d", len(c.DataCells()), 8*4-2*4-2)
	}
	if len(c.parityCells) != 2*4+2 {
		t.Errorf("parity cells = %d, want %d", len(c.parityCells), 2*4+2)
	}
}

// TestEncodeRepairWorstCase: the defining SD property on the canonical
// worst case — any m chunks plus any s sectors.
func TestEncodeRepairWorstCase(t *testing.T) {
	for _, shape := range []struct{ n, r, m, s int }{
		{8, 4, 1, 1}, {8, 4, 2, 2}, {8, 4, 2, 3}, {6, 8, 1, 2}, {16, 16, 2, 3}, {8, 4, 3, 1},
	} {
		c := newCode(t, shape.n, shape.r, shape.m, shape.s)
		cells := newStripe(c, 16, 1)
		if err := c.Encode(cells); err != nil {
			t.Fatal(err)
		}
		want := cloneStripe(cells)
		var lost []ec.Cell
		for col := 0; col < shape.m; col++ {
			for row := 0; row < shape.r; row++ {
				lost = append(lost, ec.Cell{Col: col, Row: row})
			}
		}
		for k := 0; k < shape.s; k++ {
			lost = append(lost, ec.Cell{Col: shape.m + k%(shape.n-shape.m), Row: k / (shape.n - shape.m)})
		}
		for _, cell := range lost {
			for i := range cells[cell.Col*c.R()+cell.Row] {
				cells[cell.Col*c.R()+cell.Row][i] = 0xEE
			}
		}
		if err := c.Repair(cells, lost); err != nil {
			t.Fatalf("shape %+v: %v", shape, err)
		}
		if !stripesEqual(cells, want) {
			t.Fatalf("shape %+v: wrong bytes after repair", shape)
		}
	}
}

// TestRepairRandomCoveredPatterns fuzzes coverage repair.
func TestRepairRandomCoveredPatterns(t *testing.T) {
	c := newCode(t, 8, 4, 2, 2)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 80; trial++ {
		cells := newStripe(c, 8, int64(trial))
		if err := c.Encode(cells); err != nil {
			t.Fatal(err)
		}
		want := cloneStripe(cells)
		lost := c.randomCoveredPattern(rng)
		for _, cell := range lost {
			for i := range cells[cell.Col*c.R()+cell.Row] {
				cells[cell.Col*c.R()+cell.Row][i] = 0xEE
			}
		}
		if err := c.Repair(cells, lost); err != nil {
			t.Fatalf("trial %d: %v (lost %v)", trial, err, lost)
		}
		if !stripesEqual(cells, want) {
			t.Fatalf("trial %d: wrong bytes (lost %v)", trial, lost)
		}
	}
}

// worstPattern is the canonical worst case: the first m chunks plus s
// sectors in row order across the surviving chunks.
func worstPattern(c *Code) []ec.Cell {
	var lost []ec.Cell
	for col := 0; col < c.M(); col++ {
		for row := 0; row < c.R(); row++ {
			lost = append(lost, ec.Cell{Col: col, Row: row})
		}
	}
	for k := 0; k < c.S(); k++ {
		lost = append(lost, ec.Cell{Col: c.M() + k%(c.N()-c.M()), Row: k / (c.N() - c.M())})
	}
	return lost
}

// TestEncodeSatisfiesParityCheck: after Encode, every row of H sums to
// zero over the stripe, symbol by symbol, in both field widths, at
// sector sizes that leave a ragged kernel tail and cross a tile.
func TestEncodeSatisfiesParityCheck(t *testing.T) {
	for _, cfg := range []Config{{N: 8, R: 8, M: 2, S: 3, W: 8}, {N: 8, R: 4, M: 2, S: 2, W: 16}} {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sb := c.f.SymbolBytes()
		for _, size := range []int{50, 4096 + 6} {
			cells := newStripe(c, size, int64(size))
			for _, p := range c.parityCells {
				for i := range cells[p.Col*c.R()+p.Row] {
					cells[p.Col*c.R()+p.Row][i] = 0xA5 // Encode must overwrite, not accumulate
				}
			}
			if err := c.Encode(cells); err != nil {
				t.Fatal(err)
			}
			for off := 0; off < size; off += sb {
				for row := 0; row < c.h.Rows(); row++ {
					var sum uint32
					for v := 0; v < c.h.Cols(); v++ {
						cell := cells[v]
						x := uint32(cell[off])
						if sb == 2 {
							x |= uint32(cell[off+1]) << 8 // little-endian symbols
						}
						sum ^= c.f.Mul(c.h.At(row, v), x)
					}
					if sum != 0 {
						t.Fatalf("%+v size %d: H row %d sums to %d at byte %d", cfg, size, row, sum, off)
					}
				}
			}
		}
	}
}

// TestRepairAllocs: once a pattern's solve is cached, Repair (and
// Encode) allocate nothing.
func TestRepairAllocs(t *testing.T) {
	c := newCode(t, 16, 16, 2, 3)
	cells := newStripe(c, 64, 1)
	if err := c.Encode(cells); err != nil {
		t.Fatal(err)
	}
	lost := worstPattern(c)
	if err := c.Repair(cells, lost); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := c.Repair(cells, lost); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("cached Repair makes %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := c.Encode(cells); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Encode makes %v allocations, want 0", a)
	}
}

// TestConcurrentRepair: goroutines repair the same pattern and different
// patterns of one code at once, each on its own copy of the stripe,
// starting from a cold solve cache; every repaired byte must be exact.
func TestConcurrentRepair(t *testing.T) {
	c := newCode(t, 8, 4, 2, 2)
	want := newStripe(c, 64, 7)
	if err := c.Encode(want); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	patterns := [][]ec.Cell{worstPattern(c), c.randomCoveredPattern(rng), c.randomCoveredPattern(rng)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lost := patterns[(g+i)%len(patterns)]
				cells := cloneStripe(want)
				for _, cell := range lost {
					clear(cells[cell.Col*c.R()+cell.Row])
				}
				if err := c.Repair(cells, lost); err != nil {
					t.Error(err)
					return
				}
				if !stripesEqual(cells, want) {
					t.Errorf("goroutine %d: wrong bytes after repairing %v", g, lost)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestVerifyExhaustiveMatchesRankCheck: the per-chunk-set reduction
// gives the verdict a rank check of every covered pattern gives, on
// parity-check matrices that verify and on ones that do not.
func TestVerifyExhaustiveMatchesRankCheck(t *testing.T) {
	verdicts := map[bool]int{}
	for _, cfg := range []Config{
		{N: 8, R: 4, M: 2, S: 2, W: 8}, {N: 6, R: 8, M: 1, S: 2, W: 8}, {N: 8, R: 4, M: 1, S: 1, W: 8},
		{N: 8, R: 4, M: 3, S: 1, W: 8}, {N: 8, R: 4, M: 0, S: 2, W: 8}, {N: 8, R: 4, M: 2, S: 0, W: 8},
	} {
		c := &Code{n: cfg.N, r: cfg.R, m: cfg.M, s: cfg.S, f: gf.Get(cfg.W)}
		c.indexCells()
		for salt := 0; salt < 4; salt++ {
			c.buildH(salt)
			want := true
			forEachCombination(c.n, c.m, func(chunks []int) bool {
				var base, survivors []ec.Cell
				for col := 0; col < c.n; col++ {
					for row := 0; row < c.r; row++ {
						if slices.Contains(chunks, col) {
							base = append(base, ec.Cell{Col: col, Row: row})
						} else {
							survivors = append(survivors, ec.Cell{Col: col, Row: row})
						}
					}
				}
				forEachCombination(len(survivors), c.s, func(idx []int) bool {
					lost := slices.Clone(base)
					for _, i := range idx {
						lost = append(lost, survivors[i])
					}
					want = c.solvable(lost)
					return want
				})
				return want
			})
			if got := c.verifyExhaustive(); got != want {
				t.Errorf("%+v salt %d: verifyExhaustive = %v, rank checks say %v", cfg, salt, got, want)
			}
			verdicts[want]++
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: the cases must include both", verdicts)
	}
}

func TestBeyondCoverageRejected(t *testing.T) {
	c := newCode(t, 8, 4, 2, 2)
	// m+1 full chunks.
	var lost []ec.Cell
	for col := 0; col < 3; col++ {
		for row := 0; row < 4; row++ {
			lost = append(lost, ec.Cell{Col: col, Row: row})
		}
	}
	if c.CanRecover(lost) {
		t.Error("m+1 chunks claimed recoverable")
	}
	if c.CoverageContains(lost) {
		t.Error("m+1 chunks claimed covered")
	}
	cells := newStripe(c, 8, 9)
	if err := c.Encode(cells); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(cells, lost); err == nil {
		t.Error("Repair of m+1 chunks succeeded")
	}
}

func TestCoverageContains(t *testing.T) {
	c := newCode(t, 8, 4, 2, 2)
	if !c.CoverageContains([]ec.Cell{{Col: 0, Row: 0}, {Col: 1, Row: 0}}) {
		t.Error("two sectors should be covered")
	}
	// Three single sectors in three chunks: the m=2 chunk slots absorb
	// two of them, leaving 1 ≤ s — covered.
	if !c.CoverageContains([]ec.Cell{{Col: 0, Row: 0}, {Col: 1, Row: 0}, {Col: 2, Row: 0}}) {
		t.Error("three spread sectors should be covered (chunk slots absorb)")
	}
	// Five single sectors in five chunks: 2 absorbed, 3 > s=2.
	if c.CoverageContains([]ec.Cell{{Col: 0, Row: 0}, {Col: 1, Row: 0}, {Col: 2, Row: 0}, {Col: 3, Row: 0}, {Col: 4, Row: 0}}) {
		t.Error("five spread sectors must exceed coverage")
	}
}

func TestCoverageAbsorbsChunks(t *testing.T) {
	c := newCode(t, 8, 4, 2, 2)
	// Sectors in 4 chunks: the two most-affected absorb into m.
	lost := []ec.Cell{{Col: 0, Row: 0}, {Col: 0, Row: 1}, {Col: 1, Row: 0}, {Col: 1, Row: 1}, {Col: 2, Row: 0}, {Col: 3, Row: 0}}
	if !c.CoverageContains(lost) {
		t.Error("pattern should be covered (m absorbs chunks 0,1; 2 sectors remain)")
	}
}

func TestUpdatePenalty(t *testing.T) {
	// Every data sector affects its m row parities plus (generically)
	// all s globals; because the globals sit inside the stripe, the row
	// parities of the global-hosting rows cascade too (the same uneven
	// parity-relation effect §5.2 describes for STAIR), giving a mean
	// near m + s + m·s.
	c := newCode(t, 16, 16, 2, 2)
	got := c.MeanUpdatePenalty()
	lo, hi := float64(c.M()+c.S()), float64(c.M()+c.S()+c.M()*c.S())+1.0
	if got < lo || got > hi {
		t.Errorf("mean update penalty %v outside [%v, %v]", got, lo, hi)
	}
}

func TestEncodeCostIsDense(t *testing.T) {
	// Standard encoding touches nearly every (data, parity) pair; with
	// no reuse the cost (a Mult_XOR per nonzero coefficient of the
	// encode solve) must be much larger than STAIR-style reuse costs
	// (cf. Figure 9): at least data×s for the globals alone.
	c := newCode(t, 8, 8, 2, 3)
	got := c.lin.EncodeSolve().Terms
	if got < len(c.DataCells())*c.S() {
		t.Errorf("encode cost %d suspiciously small", got)
	}
}

func TestRepairValidation(t *testing.T) {
	c := newCode(t, 8, 4, 2, 2)
	cells := newStripe(c, 8, 3)
	if err := c.Repair(cells, []ec.Cell{{Col: 42, Row: 0}}); err == nil {
		t.Error("out-of-range cell accepted")
	}
	if err := c.Repair(cells, nil); err != nil {
		t.Errorf("empty lost set: %v", err)
	}
	if err := c.Encode(cells[:3]); err == nil {
		t.Error("short stripe accepted")
	}
	ragged := newStripe(c, 8, 3)
	ragged[2] = ragged[2][:4]
	if err := c.Encode(ragged); err == nil {
		t.Error("ragged stripe accepted")
	}
}

func TestZeroDataZeroParity(t *testing.T) {
	c := newCode(t, 8, 4, 2, 2)
	cells := make([][]byte, c.N()*c.R())
	for i := range cells {
		cells[i] = make([]byte, 8)
	}
	if err := c.Encode(cells); err != nil {
		t.Fatal(err)
	}
	for i, s := range cells {
		for j, b := range s {
			if b != 0 {
				t.Fatalf("cell %d byte %d = %d", i, j, b)
			}
		}
	}
}
