package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// columnSets lists every non-empty set of at most k columns out of n,
// each ascending.
func columnSets(n, k int) [][]int {
	var out [][]int
	var rec func(from int, cur []int)
	rec = func(from int, cur []int) {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == k {
			return
		}
		for col := from; col < n; col++ {
			rec(col+1, append(cur, col))
		}
	}
	rec(0, nil)
	return out
}

// TestRepairRowMatchesRepair sweeps every (row, ≤ m lost columns, wanted
// column) of each configuration and checks the row-local repair against
// the whole-stripe Repair of the same losses — rows holding inside
// global parities included, at both field widths and at sector sizes no
// SIMD width divides. The lost siblings are handed over as nil, so a
// plan that read one would fault rather than pass.
func TestRepairRowMatchesRepair(t *testing.T) {
	cases := []struct {
		cfg        Config
		sectorSize int
	}{
		{Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}, W: 8}, 130},
		{Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}, W: 16}, 130},
		{Config{N: 6, R: 4, M: 2, W: 8}, defaultPlanTile + 130}, // e=∅: Reed-Solomon
		{Config{N: 6, R: 4, M: 2, W: 16}, defaultPlanTile + 130},
		{Config{N: 5, R: 4, M: 1, E: []int{2}, W: 8}, 2*defaultPlanTile + 130},
		{Config{N: 5, R: 4, M: 1, E: []int{2}, W: 16}, 130},
	}
	for _, tc := range cases {
		c, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%v/sector=%d", c.Config(), tc.sectorSize), func(t *testing.T) {
			pristine := newFilledStripe(t, c, tc.sectorSize, 11)
			if err := c.Encode(pristine); err != nil {
				t.Fatal(err)
			}
			sets := columnSets(c.N(), c.M())
			cells := make([][]byte, c.N())
			for _, set := range sets {
				for row := 0; row < c.R(); row++ {
					var lost []Cell
					for _, col := range set {
						lost = append(lost, Cell{Col: col, Row: row})
					}
					oracle := pristine.Clone()
					corrupt(oracle, lost)
					broken := oracle.Clone()
					if err := c.Repair(oracle, lost); err != nil {
						t.Fatalf("oracle Repair(%v): %v", lost, err)
					}
					st := broken.Clone()
					for _, want := range set {
						clear(cells)
						for col := 0; col < c.N(); col++ {
							cells[col] = st.Sector(col, row)
						}
						for _, col := range set {
							if col != want {
								cells[col] = nil
							}
						}
						if err := c.RepairRow(cells, set, want); err != nil {
							t.Fatalf("RepairRow(row %d, lost %v, want %d): %v", row, set, want, err)
						}
						if !bytes.Equal(st.Sector(want, row), oracle.Sector(want, row)) {
							t.Fatalf("RepairRow(row %d, lost %v, want %d) differs from Repair", row, set, want)
						}
						copy(st.Sector(want, row), broken.Sector(want, row))
					}
					if !stripesEqual(st, broken) {
						t.Fatalf("RepairRow(row %d, lost %v) wrote outside the wanted cell", row, set)
					}
				}
			}
			// One solve per column set, whatever the row — and none of them
			// in the whole-stripe plan cache, which holds the oracle's
			// patterns only (wiped whenever it fills).
			if got := len(c.rowSolves); got != len(sets) {
				t.Errorf("%d row solves cached, want one per column set (%d)", got, len(sets))
			}
		})
	}
}

// TestRepairRowRefusesBeyondM: a row with m+1 unavailable columns is
// refused with the sentinel before a byte is written or a solve built,
// and the refusal leaves both plan tables alone.
func TestRepairRowRefusesBeyondM(t *testing.T) {
	c, err := New(Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := newFilledStripe(t, c, 64, 3)
	if err := c.Encode(st); err != nil {
		t.Fatal(err)
	}
	before := st.Clone()
	cells := make([][]byte, c.N())
	for col := range cells {
		cells[col] = st.Sector(col, 5)
	}
	for _, tc := range []struct {
		lost []int
		want int
	}{
		{[]int{0, 3, 6}, 3}, // the wanted column among m+1 lost
		{[]int{1, 7}, 4},    // m lost siblings plus the wanted column
		{[]int{7, 1, 1}, 2}, // unsorted, duplicated
	} {
		if err := c.RepairRow(cells, tc.lost, tc.want); !errors.Is(err, ErrRowNotLocal) {
			t.Errorf("RepairRow(lost %v, want %d): err=%v, want ErrRowNotLocal", tc.lost, tc.want, err)
		}
	}
	if !stripesEqual(st, before) {
		t.Error("a refused row-local repair wrote to the row")
	}
	if len(c.rowSolves) != 0 || len(c.decodeCache) != 0 {
		t.Errorf("refusals left %d row solves and %d decode plans behind", len(c.rowSolves), len(c.decodeCache))
	}
	// Out-of-range columns and a short row are errors of their own.
	if err := c.RepairRow(cells, []int{8}, 0); err == nil || errors.Is(err, ErrRowNotLocal) {
		t.Errorf("column 8 of 8: err=%v, want a range error", err)
	}
	if err := c.RepairRow(cells[:7], nil, 0); err == nil {
		t.Error("a 7-cell row was accepted for n=8")
	}
	// A code with m = 0 has no row parity to solve through.
	rs0, err := New(Config{N: 5, R: 4, M: 0, E: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs0.RepairRow(make([][]byte, 5), nil, 2); !errors.Is(err, ErrRowNotLocal) {
		t.Errorf("m=0: err=%v, want ErrRowNotLocal", err)
	}
}

// TestRepairRowLeavesDecodeCacheAlone: row-local solves neither enter
// nor evict the whole-stripe plans rebuild and scrub reuse.
func TestRepairRowLeavesDecodeCacheAlone(t *testing.T) {
	c, err := New(Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := newFilledStripe(t, c, 64, 5)
	if err := c.Encode(st); err != nil {
		t.Fatal(err)
	}
	lost := worstCaseLost(c)
	corrupt(st, lost)
	if err := c.Repair(st, lost); err != nil {
		t.Fatal(err)
	}
	c.decodeMu.Lock()
	var cached *plan
	for _, pl := range c.decodeCache {
		cached = pl
	}
	entries := len(c.decodeCache)
	c.decodeMu.Unlock()
	cells := make([][]byte, c.N())
	for _, set := range columnSets(c.N(), c.M()) {
		for col := range cells {
			cells[col] = st.Sector(col, 0)
		}
		if err := c.RepairRow(cells, set, set[0]); err != nil {
			t.Fatal(err)
		}
	}
	c.decodeMu.Lock()
	defer c.decodeMu.Unlock()
	if len(c.decodeCache) != entries {
		t.Fatalf("decode cache went from %d to %d entries under row-local repairs", entries, len(c.decodeCache))
	}
	for _, pl := range c.decodeCache {
		if pl != cached {
			t.Fatal("the cached whole-stripe plan was replaced")
		}
	}
}

// TestRepairRowConcurrent: goroutines racing to solve the same cold
// column sets (each over its own row of one shared, read-only stripe)
// all get the right cell, and the table ends with one solve per set.
func TestRepairRowConcurrent(t *testing.T) {
	c, err := New(Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := newFilledStripe(t, c, 130, 13)
	if err := c.Encode(st); err != nil {
		t.Fatal(err)
	}
	sets := columnSets(c.N(), c.M())
	var wg sync.WaitGroup
	for row := 0; row < c.R(); row++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells, got := make([][]byte, c.N()), make([]byte, st.SectorSize)
			for _, set := range sets {
				for col := range cells {
					cells[col] = st.Sector(col, row)
				}
				for _, col := range set {
					cells[col] = nil
				}
				cells[set[0]] = got
				if err := c.RepairRow(cells, set, set[0]); err != nil {
					t.Errorf("row %d, lost %v: %v", row, set, err)
					return
				}
				if !bytes.Equal(got, st.Sector(set[0], row)) {
					t.Errorf("row %d, lost %v: wrong cell", row, set)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(c.rowSolves); got != len(sets) {
		t.Errorf("%d row solves cached, want %d", got, len(sets))
	}
}

// TestPlanReadRowCase: for one wanted lost cell whose row holds at most
// m losses, PlanRead's sources are the n−m lowest other columns of that row —
// the cells RepairRow reads, which it is handed and nothing else, so a
// read of any other would fault — and Decode computes the cell from them
// as RepairRow does.
func TestPlanReadRowCase(t *testing.T) {
	for _, cfg := range []Config{
		{N: 8, R: 16, M: 2, E: []int{1, 1, 2}},
		{N: 5, R: 4, M: 1, E: []int{2}},
	} {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pristine := newFilledStripe(t, c, 64, 5)
		if err := c.Encode(pristine); err != nil {
			t.Fatal(err)
		}
		for _, set := range columnSets(c.N(), c.M()) {
			for row := 0; row < c.R(); row++ {
				var lost []Cell
				for _, col := range set {
					lost = append(lost, Cell{Col: col, Row: row})
				}
				for _, want := range set {
					var rp ReadPlan
					if err := c.PlanRead(&rp, cellPattern(c, lost), cellPattern(c, []Cell{{Col: want, Row: row}})); err != nil {
						t.Fatalf("%v: PlanRead(%v, want %d): %v", cfg, lost, want, err)
					}
					srcs := rp.Sources
					if len(srcs) != c.N()-c.M() {
						t.Fatalf("%v: sources of PlanRead(%v, want %d) = %v, want n−m = %d cells", cfg, lost, want, srcs, c.N()-c.M())
					}
					cells := make([][]byte, c.N())
					for i, col := 0, 0; i < len(srcs); col++ {
						if slices.Contains(set, col) {
							continue
						}
						if srcs[i] != (Cell{Col: col, Row: row}) {
							t.Fatalf("%v: sources of PlanRead(%v, want %d) = %v, want the n−m lowest other columns of row %d",
								cfg, lost, want, srcs, row)
						}
						cells[col] = pristine.Sector(col, row)
						i++
					}
					cells[want] = make([]byte, 64)
					if err := c.RepairRow(cells, set, want); err != nil {
						t.Fatal(err)
					}
					st := pristine.Clone()
					corrupt(st, lost)
					if err := c.Decode(st, &rp); err != nil {
						t.Fatal(err)
					}
					if got := pristine.Sector(want, row); !bytes.Equal(cells[want], got) || !bytes.Equal(st.Sector(want, row), got) {
						t.Fatalf("%v: row %d lost %v: RepairRow or Decode of column %d differs from the encoded cell", cfg, row, set, want)
					}
				}
			}
		}
	}
}
