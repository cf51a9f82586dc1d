package idr

import (
	"bytes"
	"math/rand"
	"testing"

	"stair/internal/ec"
)

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

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{N: 8, R: 4, M: 2, Epsilon: 1}, true},
		{Config{N: 8, R: 8, M: 2, Epsilon: 4}, true},
		{Config{N: 8, R: 4, M: 0, Epsilon: 1}, true},
		{Config{N: 8, R: 4, M: 2, Epsilon: 0}, true},
		{Config{N: 0, R: 4, M: 0, Epsilon: 1}, false},
		{Config{N: 8, R: 4, M: 8, Epsilon: 1}, false},
		{Config{N: 8, R: 4, M: 2, Epsilon: 4}, false}, // eps >= r
		{Config{N: 8, R: 4, M: 2, Epsilon: -1}, false},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("New(%+v): err=%v, want ok=%v", tc.cfg, err, tc.ok)
		}
	}
}

func TestSection2SpaceExample(t *testing.T) {
	// §2: n=8, m=2, β=4 → IDR spends 4×6 = 24 redundant sectors.
	c, err := New(Config{N: 8, R: 8, M: 2, Epsilon: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RedundantSectors(); got != 24 {
		t.Errorf("redundant sectors = %d, want 24", got)
	}
}

func TestEncodeRepairRoundtrip(t *testing.T) {
	c, err := New(Config{N: 6, R: 6, M: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		cells := newStripe(c, 16, int64(trial))
		if err := c.Encode(cells); err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, len(cells))
		for i := range cells {
			want[i] = append([]byte{}, cells[i]...)
		}
		// Fail up to m chunks fully plus ≤ ϵ sectors in the others.
		cols := rng.Perm(c.N())
		var lost []ec.Cell
		nFull := rng.Intn(c.M() + 1)
		for i := 0; i < nFull; i++ {
			for row := 0; row < c.R(); row++ {
				lost = append(lost, ec.Cell{Col: cols[i], Row: row})
			}
		}
		for _, col := range cols[nFull:] {
			k := rng.Intn(c.Epsilon() + 1)
			for _, row := range rng.Perm(c.R())[:k] {
				lost = append(lost, ec.Cell{Col: col, Row: row})
			}
		}
		if !c.CoverageContains(lost) {
			t.Fatal("generated pattern should be covered")
		}
		for _, cell := range lost {
			for i := range cells[cell.Col*c.R()+cell.Row] {
				cells[cell.Col*c.R()+cell.Row][i] = 0xDD
			}
		}
		if err := c.Repair(cells, lost); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range cells {
			if !bytes.Equal(cells[i], want[i]) {
				t.Fatalf("trial %d: cell %d wrong after repair", trial, i)
			}
		}
	}
}

func TestBeyondCoverage(t *testing.T) {
	c, err := New(Config{N: 6, R: 6, M: 1, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two chunks exceed ϵ.
	lost := []ec.Cell{{Col: 0, Row: 0}, {Col: 0, Row: 1}, {Col: 1, Row: 0}, {Col: 1, Row: 1}}
	if c.CoverageContains(lost) {
		t.Error("two over-ϵ chunks claimed covered with m=1")
	}
	cells := newStripe(c, 8, 1)
	if err := c.Encode(cells); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(cells, lost); err == nil {
		t.Error("repair beyond coverage succeeded")
	}
}

func TestCellCounts(t *testing.T) {
	c, err := New(Config{N: 8, R: 8, M: 2, Epsilon: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(c.DataCells()), (8-2)*(8-4); got != want {
		t.Errorf("data cells = %d, want %d", got, want)
	}
	if got, want := len(c.ParityCells()), 6*4+2*8; got != want {
		t.Errorf("parity cells = %d, want %d", got, want)
	}
}
