package store

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"stair/internal/core"
)

// TestPlannedLoadReadsSources: for every loss pattern within the
// coverage of a small Inside configuration, with want set to each single
// lost cell and to the whole pattern, a planned load that knows the losses
// lands the sources core.PlanRead names — each exactly once, and nothing
// else: rows between two of a column's sources are holes — gives a
// checksum verdict to exactly those, and decodes the wanted cells to what
// core.Repair of the whole stripe gives. With the losses on the devices,
// two more shapes are checked. A load of every cell (scrub's, repair's,
// recovery's) reads each column in one call, verifies every live sector
// once and decodes what Repair gives. A rebuild of a column reads its
// chunk alone when the chunk has no loss; with a hole, it reads each other
// column once more and not the chunk again, and writes back every loss.
func TestPlannedLoadReadsSources(t *testing.T) {
	v := newDeltaVolume(t, core.Config{N: 4, R: 3, M: 1, E: []int{1}}, 1, 16, deltaOpts{integrity: true})
	s := v.s
	sh := s.shard(0)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	whole, ld, err := s.loadAll(bg, 0, true)
	if err != nil || ld.lost.Count() != 0 {
		t.Fatalf("loading the healthy stripe: %d lost, %v", ld.lost.Count(), err)
	}
	v.takeReads()
	patterns := 0
	for mask := 1; mask < 1<<len(s.allCells); mask++ {
		var lost []core.Cell
		for i, cell := range s.allCells {
			if mask&(1<<i) != 0 {
				lost = append(lost, cell)
			}
		}
		if ok, err := s.code.CoverageContains(lost); err != nil || !ok {
			continue
		}
		patterns++
		repaired := whole.Clone()
		for _, cell := range lost {
			clear(repaired.Sector(cell.Col, cell.Row))
		}
		if err := s.code.Repair(repaired, lost); err != nil {
			t.Fatalf("Repair(%v): %v", lost, err)
		}
		wants := [][]core.Cell{lost}
		for _, cell := range lost {
			wants = append(wants, []core.Cell{cell})
		}
		for _, want := range wants {
			ld := s.startLoad(0, true)
			ld.lost.Union(cellPattern(s, lost))
			ld.want.Union(cellPattern(s, want))
			st := garbageStripe(s)
			verified := s.Stats().VerifiedSectors
			if err := s.loadPlanned(bg, ld, st); err != nil || ld.lost.Count() != len(lost) {
				t.Fatalf("loadPlanned(%v, %v): %v, lost %v", lost, want, err, ld.lost.AppendCells(nil))
			}
			var rp core.ReadPlan
			if err := s.code.PlanRead(&rp, cellPattern(s, lost), cellPattern(s, want)); err != nil {
				t.Fatalf("PlanRead(%v, %v): %v", lost, want, err)
			}
			srcs := rp.Sources
			read := map[core.Cell]int{}
			for col, reads := range v.takeReads() {
				for _, e := range reads {
					for i := range e.n {
						if e.landed&(1<<i) != 0 {
							read[core.Cell{Col: col, Row: e.start + i}]++
						}
					}
				}
			}
			for _, cell := range srcs {
				if read[cell] != 1 {
					t.Fatalf("lost %v, want %v: source %v read %d times", lost, want, cell, read[cell])
				}
			}
			for cell := range read {
				if !slices.Contains(srcs, cell) {
					t.Fatalf("lost %v, want %v: landed %v, which is no source", lost, want, cell)
				}
			}
			if got := s.Stats().VerifiedSectors - verified; got != uint64(len(srcs)) {
				t.Fatalf("lost %v, want %v: %d sectors verified, want the %d sources", lost, want, got, len(srcs))
			}
			for _, cell := range want {
				if !bytes.Equal(st.Sector(cell.Col, cell.Row), repaired.Sector(cell.Col, cell.Row)) {
					t.Fatalf("lost %v, want %v: cell %v differs from Repair's", lost, want, cell)
				}
			}
			s.releaseStripe(st)
		}
		checkWholeLoads(t, v, whole, repaired, lost)
	}
	s.releaseStripe(whole)
	if patterns < 100 {
		t.Fatalf("only %d covered patterns", patterns)
	}
	t.Logf("%d covered patterns", patterns)
}

// checkWholeLoads puts lost on the devices of v's stripe 0 as sector
// errors and checks the load of every cell and the rebuild of each column
// against it (see TestPlannedLoadReadsSources); whole is the stripe's
// content and repaired what core.Repair makes of it. The caller holds the
// shard mutex. The rebuild heals every loss.
func checkWholeLoads(t *testing.T, v *deltaVolume, whole, repaired *core.Stripe, lost []core.Cell) {
	t.Helper()
	s := v.s
	live := s.n*s.r - len(lost)
	for _, cell := range lost {
		if err := v.devs[cell.Col].InjectSectorError(cell.Row); err != nil {
			t.Fatal(err)
		}
	}
	verified := s.Stats().VerifiedSectors
	st, ld := garbageStripe(s), s.startLoad(0, true)
	ld.want.Union(cellPattern(s, s.allCells))
	if err := s.loadPlanned(bg, ld, st); err != nil || !sameCells(ld.lost.AppendCells(nil), lost) {
		t.Fatalf("lost %v, want every cell: %v, found lost %v", lost, err, ld.lost.AppendCells(nil))
	}
	for col, reads := range v.takeReads() {
		if !slices.Equal(reads, []extent{wholeExtent(0, s.r)}) {
			t.Fatalf("lost %v, want every cell: column %d read %v, want one call of its %d rows", lost, col, reads, s.r)
		}
	}
	if got := s.Stats().VerifiedSectors - verified; got != uint64(live) {
		t.Fatalf("lost %v, want every cell: %d sectors verified, want the %d live ones", lost, got, live)
	}
	for _, cell := range s.allCells {
		if !bytes.Equal(st.Sector(cell.Col, cell.Row), repaired.Sector(cell.Col, cell.Row)) {
			t.Fatalf("lost %v, want every cell: cell %v differs from Repair's", lost, cell)
		}
	}
	s.releaseStripe(st)

	// Rebuild each column without a loss, then the first with one.
	sh, hole := s.shard(0), lost[0].Col
	for dev := 0; dev < s.n; dev++ {
		if slices.ContainsFunc(lost, func(c core.Cell) bool { return c.Col == dev }) {
			continue
		}
		verified := s.Stats().VerifiedSectors
		s.rebuildStripeLocked(bg, sh, 0, dev)
		for col, reads := range v.takeReads() {
			if want := []extent{wholeExtent(0, s.r)}; col == dev && !slices.Equal(reads, want) || col != dev && len(reads) > 0 {
				t.Fatalf("lost %v, rebuild of whole column %d: column %d read %v, want its chunk only", lost, dev, col, reads)
			}
		}
		if got := s.Stats().VerifiedSectors - verified; got != uint64(s.r) {
			t.Fatalf("lost %v, rebuild of whole column %d: %d sectors verified, want %d", lost, dev, got, s.r)
		}
	}
	verified = s.Stats().VerifiedSectors
	s.rebuildStripeLocked(bg, sh, 0, hole)
	for col, reads := range v.takeReads() {
		if !slices.Equal(reads, []extent{wholeExtent(0, s.r)}) {
			t.Fatalf("lost %v, rebuild of column %d: column %d read %v, want one call of its %d rows", lost, hole, col, reads, s.r)
		}
	}
	if got := s.Stats().VerifiedSectors - verified; got != uint64(live) {
		t.Fatalf("lost %v, rebuild of column %d: %d sectors verified, want the %d live ones", lost, hole, got, live)
	}
	st, ld, err := s.loadAll(bg, 0, true)
	if err != nil || ld.lost.Count() != 0 {
		t.Fatalf("lost %v, after the rebuild of column %d: %v, lost %v", lost, hole, err, ld.lost.AppendCells(nil))
	}
	v.takeReads()
	for _, cell := range s.allCells {
		if !bytes.Equal(st.Sector(cell.Col, cell.Row), whole.Sector(cell.Col, cell.Row)) {
			t.Fatalf("lost %v, after the rebuild of column %d: cell %v is wrong", lost, hole, cell)
		}
	}
	s.releaseStripe(st)
}

// garbageStripe is a pooled stripe of s filled with garbage, so that a
// cell a load neither reads nor decodes shows.
func garbageStripe(s *Store) *core.Stripe {
	st := s.acquireStripe()
	for _, cell := range st.Cells {
		for i := range cell {
			cell[i] = byte(0xA5 + i)
		}
	}
	return st
}

// cellPattern is the pattern of cells in a stripe of s.
func cellPattern(s *Store, cells []core.Cell) core.Pattern {
	p := core.NewPattern(s.n, s.r)
	for _, cell := range cells {
		p.Set(s.cellIdx(cell))
	}
	return p
}

// sameCells reports whether a and b list the same cells, in any order.
func sameCells(a, b []core.Cell) bool {
	byColRow := func(x, y core.Cell) int { return cmp.Or(x.Col-y.Col, x.Row-y.Row) }
	return slices.Equal(slices.SortedFunc(slices.Values(a), byColRow), slices.SortedFunc(slices.Values(b), byColRow))
}
