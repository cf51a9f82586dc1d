package ec_test

import (
	"bytes"
	"math/rand"
	"testing"

	"stair/internal/core"
	"stair/internal/ec"
	"stair/internal/sd"
)

// SD satisfies the contract directly; STAIR through the one adapter,
// (*core.Code).EC.
var _ ec.Code = (*sd.Code)(nil)

// wholeChunks lists every cell of chunks [0, k) of a stripe with r rows.
func wholeChunks(k, r int) []ec.Cell {
	var cells []ec.Cell
	for col := 0; col < k; col++ {
		for row := 0; row < r; row++ {
			cells = append(cells, ec.Cell{Col: col, Row: row})
		}
	}
	return cells
}

// TestConformance drives every code of the repository through ec.Code
// alone, on one 8×4 stripe shape with m = 2: fill DataCells, Encode,
// zero a pattern at the edge of the code's coverage (m whole chunks plus
// its full sector allowance), Repair, and compare every byte; then m+1
// whole chunks, which every code must refuse in both CanRecover and
// Repair. The SD row forced to W=16 runs ec.Linear's solves on the
// GF(2^16) kernel, whatever width the unforced construction settles on.
func TestConformance(t *testing.T) {
	const n, r, m = 8, 4, 2
	stair := func(e []int) ec.Code {
		c, err := core.New(core.Config{N: n, R: r, M: m, E: e})
		if err != nil {
			t.Fatal(err)
		}
		return c.EC()
	}
	sdCode := func(w int) ec.Code {
		c, err := sd.New(sd.Config{N: n, R: r, M: m, S: 2, W: w})
		if err != nil {
			t.Fatal(err)
		}
		if w != 0 && c.W() != w {
			t.Fatalf("SD W=%d built over GF(2^%d)", w, c.W())
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		code    ec.Code
		sectors []ec.Cell // the sector allowance, on top of chunks 0..m-1
	}{
		{"STAIR e=(1,1,2)", stair([]int{1, 1, 2}),
			[]ec.Cell{{Col: 3, Row: 0}, {Col: 5, Row: 3}, {Col: 6, Row: 1}, {Col: 6, Row: 2}}},
		{"STAIR e=∅ (Reed-Solomon)", stair(nil), nil},
		{"SD s=2", sdCode(0), []ec.Cell{{Col: 2, Row: 0}, {Col: 7, Row: 3}}},
		{"SD s=2 W=16", sdCode(16), []ec.Cell{{Col: 2, Row: 0}, {Col: 7, Row: 3}}},
	} {
		code := tc.code
		if code.N() != n || code.R() != r {
			t.Fatalf("%s: geometry %d×%d, want %d×%d", tc.name, code.N(), code.R(), n, r)
		}
		covered := append(wholeChunks(m, r), tc.sectors...)
		beyond := wholeChunks(m+1, r)
		if !code.CanRecover(nil) || !code.CanRecover(covered) {
			t.Errorf("%s: CanRecover false inside coverage", tc.name)
		}
		if code.CanRecover(beyond) {
			t.Errorf("%s: CanRecover true for %d whole chunks", tc.name, m+1)
		}
		// 64 is a multiple of every kernel's vector width; 50 is not, but
		// is still a whole number of GF(2^16) symbols, which SD may use.
		for _, size := range []int{64, 50} {
			cells := make([][]byte, n*r)
			for i := range cells {
				cells[i] = make([]byte, size)
			}
			rng := rand.New(rand.NewSource(int64(size)))
			for _, cell := range code.DataCells() {
				rng.Read(cells[cell.Col*r+cell.Row])
			}
			if err := code.Encode(cells); err != nil {
				t.Fatalf("%s size %d: Encode: %v", tc.name, size, err)
			}
			want := make([][]byte, len(cells))
			for i := range cells {
				want[i] = append([]byte(nil), cells[i]...)
			}
			zero := func(lost []ec.Cell) {
				for _, cell := range lost {
					clear(cells[cell.Col*r+cell.Row])
				}
			}
			zero(covered)
			if err := code.Repair(cells, covered); err != nil {
				t.Fatalf("%s size %d: Repair inside coverage: %v", tc.name, size, err)
			}
			for i := range cells {
				if !bytes.Equal(cells[i], want[i]) {
					t.Fatalf("%s size %d: cell (%d,%d) differs after Repair", tc.name, size, i/r, i%r)
				}
			}
			zero(beyond)
			if err := code.Repair(cells, beyond); err == nil {
				t.Errorf("%s size %d: Repair of %d whole chunks succeeded", tc.name, size, m+1)
			}
		}
	}
}
