package store

import (
	"bytes"
	"slices"
	"testing"

	"stair/internal/core"
)

// TestPlannedLoadReadsSources: for every loss pattern within the
// coverage of a small Inside configuration, with want set to each single
// lost cell and to the whole pattern, a planned load that knows the losses
// reads the sources core.PlanRead names — each exactly once, and nothing
// else but rows between two of a column's sources — gives a checksum
// verdict to exactly those, and decodes the wanted cells to what
// core.Repair of the whole stripe gives.
func TestPlannedLoadReadsSources(t *testing.T) {
	v := newDeltaVolume(t, core.Config{N: 4, R: 3, M: 1, E: []int{1}}, 1, 16, deltaOpts{integrity: true})
	s := v.s
	sh := s.shard(0)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	whole, lost, _, err := s.loadStripe(bg, 0, true)
	if err != nil || len(lost) != 0 {
		t.Fatalf("loading the healthy stripe: %d lost, %v", len(lost), err)
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
			ld.lost = append(ld.lost, lost...)
			ld.want = append(ld.want, want...)
			st := s.acquireStripe()
			verified := s.Stats().VerifiedSectors
			if err := s.loadPlanned(bg, ld, st); err != nil || len(ld.lost) != len(lost) {
				t.Fatalf("loadPlanned(%v, %v): %v, lost %v", lost, want, err, ld.lost)
			}
			var rp core.ReadPlan
			if err := s.code.PlanRead(&rp, lost, want); err != nil {
				t.Fatalf("PlanRead(%v, %v): %v", lost, want, err)
			}
			srcs := rp.Sources
			read := map[core.Cell]int{}
			for col, reads := range v.takeReads() {
				for _, e := range reads {
					for row := e.start; row < e.start+e.n; row++ {
						read[core.Cell{Col: col, Row: row}]++
					}
				}
			}
			for _, cell := range srcs {
				if read[cell] != 1 {
					t.Fatalf("lost %v, want %v: source %v read %d times", lost, want, cell, read[cell])
				}
			}
			for cell, times := range read {
				if slices.Contains(srcs, cell) {
					continue
				}
				below := slices.ContainsFunc(srcs, func(c core.Cell) bool { return c.Col == cell.Col && c.Row < cell.Row })
				above := slices.ContainsFunc(srcs, func(c core.Cell) bool { return c.Col == cell.Col && c.Row > cell.Row })
				if times != 1 || !below || !above || slices.Contains(lost, cell) {
					t.Fatalf("lost %v, want %v: read %v (%d times), which is no source and lies between none", lost, want, cell, times)
				}
			}
			if got := s.Stats().VerifiedSectors - verified; got != uint64(len(srcs)) {
				t.Fatalf("lost %v, want %v: %d sectors verified, want the %d sources", lost, want, got, len(srcs))
			}
			if err := s.code.Decode(st, &rp); err != nil {
				t.Fatalf("Decode(%v, %v): %v", lost, want, err)
			}
			for _, cell := range want {
				if !bytes.Equal(st.Sector(cell.Col, cell.Row), repaired.Sector(cell.Col, cell.Row)) {
					t.Fatalf("lost %v, want %v: cell %v differs from Repair's", lost, want, cell)
				}
			}
			s.releaseStripe(st)
		}
	}
	s.releaseStripe(whole)
	if patterns < 100 {
		t.Fatalf("only %d covered patterns", patterns)
	}
	t.Logf("%d covered patterns", patterns)
}
