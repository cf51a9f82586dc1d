package sd

import (
	"bytes"
	"math/rand"
	"testing"

	"stair/internal/ec"
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
	// no reuse the cost (a Mult_XOR per nonzero generator coefficient)
	// must be much larger than STAIR-style reuse costs (cf. Figure 9):
	// at least data×s for the globals alone.
	c := newCode(t, 8, 8, 2, 3)
	got := 0
	for p := 0; p < c.gen.Rows(); p++ {
		for d := 0; d < c.gen.Cols(); d++ {
			if c.gen.At(p, d) != 0 {
				got++
			}
		}
	}
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
