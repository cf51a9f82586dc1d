package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// corrupt zeroes the payloads of the lost cells so a repair that merely
// leaves data in place cannot pass.
func corrupt(st *Stripe, lost []Cell) {
	for _, cell := range lost {
		s := st.Sector(cell.Col, cell.Row)
		for i := range s {
			s[i] = 0xAA
		}
	}
}

// encodeAndBreak returns an encoded stripe, a pristine copy, and applies
// the corruption.
func encodeAndBreak(t *testing.T, c *Code, lost []Cell, seed int64) (*Stripe, *Stripe) {
	t.Helper()
	st, err := c.NewStripe(16 * c.Field().SymbolBytes())
	if err != nil {
		t.Fatal(err)
	}
	fillData(t, c, st, seed)
	if err := c.Encode(st); err != nil {
		t.Fatal(err)
	}
	want := st.Clone()
	corrupt(st, lost)
	return st, want
}

func repairAndCheck(t *testing.T, c *Code, lost []Cell, seed int64) {
	t.Helper()
	st, want := encodeAndBreak(t, c, lost, seed)
	if err := c.Repair(st, lost); err != nil {
		t.Fatalf("Repair(%v): %v", lost, err)
	}
	if !stripesEqual(st, want) {
		t.Fatalf("Repair(%v): stripe content wrong after repair", lost)
	}
}

// worstCaseLost builds the §6.2.2 worst-case pattern: the m leftmost
// chunks entirely lost, plus e-defined sector losses at the bottoms of
// the next m' chunks.
func worstCaseLost(c *Code) []Cell {
	var lost []Cell
	for col := 0; col < c.m; col++ {
		for row := 0; row < c.r; row++ {
			lost = append(lost, Cell{Col: col, Row: row})
		}
	}
	for l, el := range c.E() {
		col := c.m + l
		for h := 0; h < el; h++ {
			lost = append(lost, Cell{Col: col, Row: c.r - 1 - h})
		}
	}
	return lost
}

func TestRepairWorstCase(t *testing.T) {
	for _, cfg := range []Config{
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}},
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, Placement: Outside},
		{N: 6, R: 4, M: 1, E: []int{4}},
		{N: 5, R: 4, M: 0, E: []int{1, 2}},
		{N: 6, R: 6, M: 2, E: []int{2, 2, 2, 2}},
		{N: 9, R: 5, M: 3, E: []int{1}},
		{N: 16, R: 16, M: 2, E: []int{1, 3}},
		{N: 8, R: 4, M: 2, E: []int{1, 2}, W: 16},
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			repairAndCheck(t, c, worstCaseLost(c), 17)
		})
	}
}

// TestRepairDeviceFailuresOnly: pure device failures decode like
// Reed-Solomon (§6.2.2), for every choice of m failed chunks.
func TestRepairDeviceFailuresOnly(t *testing.T) {
	c := exemplary(t, Inside)
	for a := 0; a < c.N(); a++ {
		for b := a + 1; b < c.N(); b++ {
			var lost []Cell
			for row := 0; row < c.R(); row++ {
				lost = append(lost, Cell{Col: a, Row: row}, Cell{Col: b, Row: row})
			}
			repairAndCheck(t, c, lost, int64(a*10+b))
		}
	}
}

// TestRepairSingleSector: one lost sector is repaired locally via its
// row, costing exactly n−m Mult_XORs (§4.3 local recovery).
func TestRepairSingleSector(t *testing.T) {
	c := exemplary(t, Inside)
	for col := 0; col < c.N(); col++ {
		for row := 0; row < c.R(); row++ {
			lost := []Cell{{Col: col, Row: row}}
			repairAndCheck(t, c, lost, int64(col*7+row))
			pl, err := c.repairPlan(lost)
			if err != nil {
				t.Fatal(err)
			}
			if cost := pl.sch.actualCost; cost > c.N()-c.M() {
				t.Errorf("single sector %v repair cost %d, want ≤ n−m=%d", lost[0], cost, c.N()-c.M())
			}
		}
	}
}

// TestRepairAllCoveragePatterns enumerates, for the exemplary config,
// every assignment of m failed chunks and m' partial chunks with the
// maximal per-chunk loss counts in random row positions.
func TestRepairAllCoveragePatterns(t *testing.T) {
	c := exemplary(t, Inside)
	rng := rand.New(rand.NewSource(23))
	n, r := c.N(), c.R()
	e := c.E()
	count := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			// Choose m'=3 partial chunks from the rest, a few random
			// draws per (a, b) pair to bound runtime.
			rest := make([]int, 0, n-2)
			for col := 0; col < n; col++ {
				if col != a && col != b {
					rest = append(rest, col)
				}
			}
			for trial := 0; trial < 3; trial++ {
				perm := rng.Perm(len(rest))[:len(e)]
				var lost []Cell
				for row := 0; row < r; row++ {
					lost = append(lost, Cell{Col: a, Row: row}, Cell{Col: b, Row: row})
				}
				for i, pi := range perm {
					rows := rng.Perm(r)[:e[i]]
					for _, row := range rows {
						lost = append(lost, Cell{Col: rest[pi], Row: row})
					}
				}
				ok, err := c.CoverageContains(lost)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("pattern should be within coverage: %v", lost)
				}
				repairAndCheck(t, c, lost, int64(count))
				count++
			}
		}
	}
}

// TestRepairBeyondCoverage: patterns that exceed the coverage must be
// rejected with ErrUnrecoverable, not silently mis-repaired.
func TestRepairBeyondCoverage(t *testing.T) {
	c := exemplary(t, Inside)
	n, r := c.N(), c.R()

	t.Run("m+1 full chunks", func(t *testing.T) {
		var lost []Cell
		for col := 0; col < c.M()+1; col++ {
			for row := 0; row < r; row++ {
				lost = append(lost, Cell{Col: col, Row: row})
			}
		}
		st, _ := encodeAndBreak(t, c, lost, 5)
		err := c.Repair(st, lost)
		if !errors.Is(err, ErrUnrecoverable) {
			t.Errorf("Repair = %v, want ErrUnrecoverable", err)
		}
		if ok, _ := c.CoverageContains(lost); ok {
			t.Error("CoverageContains claims m+1 chunks covered")
		}
	})

	t.Run("too many sector failures in one chunk", func(t *testing.T) {
		// m full chunks + e_max+1 sectors in another chunk, all in a
		// row pattern that defeats local repair: spread them over the
		// bottom rows where the other partial chunks also lose data.
		var lost []Cell
		for col := 0; col < c.M(); col++ {
			for row := 0; row < r; row++ {
				lost = append(lost, Cell{Col: col, Row: row})
			}
		}
		for h := 0; h < 3; h++ { // e_max = 2, so 3 in one chunk
			lost = append(lost, Cell{Col: 4, Row: r - 1 - h})
		}
		lost = append(lost, Cell{Col: 5, Row: r - 1}, Cell{Col: 6, Row: r - 1})
		if ok, _ := c.CoverageContains(lost); ok {
			t.Error("CoverageContains claims pattern covered")
		}
		ok, err := c.CanRecover(lost)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("pattern beyond coverage recovered unexpectedly")
		}
	})

	t.Run("too many partial chunks", func(t *testing.T) {
		// m'=3 but bottom-row losses in 4 chunks beyond the m failed
		// ones cannot all be covered.
		var lost []Cell
		for col := 0; col < c.M(); col++ {
			for row := 0; row < r; row++ {
				lost = append(lost, Cell{Col: col, Row: row})
			}
		}
		for col := c.M(); col < c.M()+4; col++ {
			lost = append(lost, Cell{Col: col, Row: r - 1})
		}
		if ok, _ := c.CoverageContains(lost); ok {
			t.Error("CoverageContains claims 4 partial chunks covered")
		}
		ok, err := c.CanRecover(lost)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("4 partial chunks recovered; coverage is m'=3")
		}
	})

	_ = n
}

// TestLuckyPatternBeyondCoverage: some patterns outside the formal
// coverage still peel (e.g. extra losses repairable row-locally). The
// decoder should recover them rather than give up.
func TestLuckyPatternBeyondCoverage(t *testing.T) {
	c := exemplary(t, Inside)
	// 4 chunks with one loss each, all in different rows: every row has
	// a single loss (≤ m), so local repair recovers everything even
	// though 4 partial chunks exceed m'=3... with m=2 full chunks NOT
	// failed.
	lost := []Cell{{Col: 0, Row: 0}, {Col: 1, Row: 1}, {Col: 2, Row: 2}, {Col: 3, Row: 3}, {Col: 4, Row: 0}, {Col: 5, Row: 1}}
	ok, err := c.CanRecover(lost)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("row-local pattern not recovered")
	}
	repairAndCheck(t, c, lost, 31)
}

func TestRepairValidation(t *testing.T) {
	c := exemplary(t, Inside)
	st, _ := c.NewStripe(8)
	if err := c.Repair(st, []Cell{{Col: 99, Row: 0}}); err == nil {
		t.Error("out-of-range lost cell accepted")
	}
	if err := c.Repair(st, nil); err != nil {
		t.Errorf("empty lost set should be a no-op, got %v", err)
	}
	// Duplicate cells are tolerated.
	lost := []Cell{{Col: 0, Row: 0}, {Col: 0, Row: 0}}
	repairAndCheck(t, c, lost, 3)
}

func TestRepairStairCellLoss(t *testing.T) {
	// Losing inside global parity cells is a sector failure like any
	// other and must be repairable.
	c := exemplary(t, Inside)
	lost := []Cell{{Col: 3, Row: 3}, {Col: 5, Row: 2}, {Col: 5, Row: 3}} // ĝ0,0, ĝ0,2, ĝ1,2
	repairAndCheck(t, c, lost, 37)
}

func TestRepairCostWorstCaseReasonable(t *testing.T) {
	c := exemplary(t, Inside)
	pl, err := c.repairPlan(worstCaseLost(c))
	if err != nil {
		t.Fatal(err)
	}
	cost := pl.sch.actualCost
	if cost <= 0 {
		t.Error("worst-case repair cost should be positive")
	}
	// Must not exceed the full upstairs decode model bound by much; use
	// the encode model cost as a sanity ceiling (decode recovers fewer
	// symbols than a full re-encode of everything plus virtuals).
	if cost > 2*c.Cost(MethodUpstairs) {
		t.Errorf("worst-case repair cost %d suspiciously high (encode model %d)", cost, c.Cost(MethodUpstairs))
	}
}

func TestDecodeCacheReuse(t *testing.T) {
	c := exemplary(t, Inside)
	lost := worstCaseLost(c)
	if _, err := c.repairPlan(lost); err != nil {
		t.Fatal(err)
	}
	c.decodeMu.Lock()
	entries := len(c.decodeCache)
	c.decodeMu.Unlock()
	if entries != 1 {
		t.Errorf("cache has %d entries, want 1", entries)
	}
	// Same pattern in different order must hit the same entry.
	shuffled := append([]Cell{}, lost...)
	sort.Slice(shuffled, func(i, j int) bool { return shuffled[i].Row < shuffled[j].Row })
	if _, err := c.repairPlan(shuffled); err != nil {
		t.Fatal(err)
	}
	c.decodeMu.Lock()
	entries = len(c.decodeCache)
	c.decodeMu.Unlock()
	if entries != 1 {
		t.Errorf("cache has %d entries after reordered query, want 1", entries)
	}
}

// TestSpecialCaseEEqualsR: e=(r) gives the same function as a systematic
// (n, n−m−1) code (§2): any m+1 chunk failures are recoverable.
func TestSpecialCaseEEqualsR(t *testing.T) {
	c, err := New(Config{N: 6, R: 4, M: 1, E: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			var lost []Cell
			for row := 0; row < 4; row++ {
				lost = append(lost, Cell{Col: a, Row: row}, Cell{Col: b, Row: row})
			}
			repairAndCheck(t, c, lost, int64(a*6+b))
		}
	}
}

// TestSpecialCaseSD1: e=(1) is a new construction of a PMDS/SD code with
// s=1 (§2): any m chunks plus any one additional sector.
func TestSpecialCaseSD1(t *testing.T) {
	c, err := New(Config{N: 6, R: 4, M: 2, E: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		perm := rng.Perm(6)
		a, b, extra := perm[0], perm[1], perm[2]
		var lost []Cell
		for row := 0; row < 4; row++ {
			lost = append(lost, Cell{Col: a, Row: row}, Cell{Col: b, Row: row})
		}
		lost = append(lost, Cell{Col: extra, Row: rng.Intn(4)})
		repairAndCheck(t, c, lost, int64(trial))
	}
}

// TestSpecialCaseIDR: e=(ϵ,…,ϵ) with m'=n−m acts like intra-device
// redundancy: every surviving chunk may lose up to ϵ sectors.
func TestSpecialCaseIDR(t *testing.T) {
	c, err := New(Config{N: 5, R: 4, M: 1, E: []int{2, 2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		failed := rng.Intn(5)
		var lost []Cell
		for row := 0; row < 4; row++ {
			lost = append(lost, Cell{Col: failed, Row: row})
		}
		for col := 0; col < 5; col++ {
			if col == failed {
				continue
			}
			for _, row := range rng.Perm(4)[:2] {
				lost = append(lost, Cell{Col: col, Row: row})
			}
		}
		repairAndCheck(t, c, lost, int64(trial+100))
	}
}

// TestCoverageContainsTable drives the coverage predicate directly.
func TestCoverageContainsTable(t *testing.T) {
	c := exemplary(t, Inside) // m=2, e=(1,1,2)
	fullChunk := func(col int) []Cell {
		var cs []Cell
		for row := 0; row < 4; row++ {
			cs = append(cs, Cell{Col: col, Row: row})
		}
		return cs
	}
	cases := []struct {
		name string
		lost []Cell
		want bool
	}{
		{"empty", nil, true},
		{"one sector", []Cell{{Col: 0, Row: 0}}, true},
		{"two full chunks", append(fullChunk(0), fullChunk(1)...), true},
		{"three full chunks", append(append(fullChunk(0), fullChunk(1)...), fullChunk(2)...), false},
		{"2 chunks + (1,1,2) sectors", append(append(fullChunk(0), fullChunk(1)...),
			Cell{Col: 2, Row: 0}, Cell{Col: 3, Row: 1}, Cell{Col: 4, Row: 2}, Cell{Col: 4, Row: 3}), true},
		{"2 chunks + (2,2) sectors", append(append(fullChunk(0), fullChunk(1)...),
			Cell{Col: 2, Row: 0}, Cell{Col: 2, Row: 1}, Cell{Col: 3, Row: 2}, Cell{Col: 3, Row: 3}), false},
		{"(2,2) sectors no chunk failures", []Cell{{Col: 2, Row: 0}, {Col: 2, Row: 1}, {Col: 3, Row: 2}, {Col: 3, Row: 3}}, true},
		{"one chunk + 3 sectors in another", append(fullChunk(0),
			Cell{Col: 2, Row: 0}, Cell{Col: 2, Row: 1}, Cell{Col: 2, Row: 2}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := c.CoverageContains(tc.lost)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("CoverageContains = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestAllCoveredPatternsRecoverable cross-checks CoverageContains against
// CanRecover on random patterns: covered ⇒ recoverable (the paper's
// fault-tolerance theorem).
func TestAllCoveredPatternsRecoverable(t *testing.T) {
	cfgs := []Config{
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}},
		{N: 6, R: 5, M: 1, E: []int{2, 3}},
		{N: 5, R: 3, M: 0, E: []int{1, 1}},
		{N: 7, R: 4, M: 2, E: []int{1, 1, 2}, Placement: Outside},
	}
	rng := rand.New(rand.NewSource(47))
	for _, cfg := range cfgs {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 150; trial++ {
			nLost := rng.Intn(c.N() * c.R() / 2)
			seen := map[Cell]bool{}
			var lost []Cell
			for len(lost) < nLost {
				cell := Cell{Col: rng.Intn(c.N()), Row: rng.Intn(c.R())}
				if !seen[cell] {
					seen[cell] = true
					lost = append(lost, cell)
				}
			}
			covered, err := c.CoverageContains(lost)
			if err != nil {
				t.Fatal(err)
			}
			if !covered {
				continue
			}
			ok, err := c.CanRecover(lost)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("cfg %v: covered pattern not recoverable: %v", cfg, lost)
			}
			repairAndCheck(t, c, lost, int64(trial))
		}
	}
}

// TestDecodeReadsOnlySources: for covered patterns of two
// configurations, Decode of each single lost cell, of the whole pattern
// and of the pattern plus surviving cells computes the wanted cells right
// with every cell outside the plan's sources overwritten by garbage, and
// writes no cell outside lost.
func TestDecodeReadsOnlySources(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, cfg := range []Config{
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}},
		{N: 6, R: 5, M: 1, E: []int{2, 3}},
	} {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 60; trial++ {
			var lost []Cell
			for _, i := range rng.Perm(c.N() * c.R())[:1+rng.Intn(c.N()*c.R()/2)] {
				lost = append(lost, Cell{Col: i / c.R(), Row: i % c.R()})
			}
			if ok, err := c.CoverageContains(lost); err != nil || !ok {
				continue
			}
			broken, pristine := encodeAndBreak(t, c, lost, int64(trial))
			wants := [][]Cell{lost, append(slices.Clone(lost), Cell{Col: 0, Row: 0}, Cell{Col: c.N() - 1, Row: c.R() - 1})}
			for _, cell := range lost {
				wants = append(wants, []Cell{cell})
			}
			for _, want := range wants {
				var rp ReadPlan
				if err := c.PlanRead(&rp, cellPattern(c, lost), cellPattern(c, want)); err != nil {
					t.Fatalf("%v: PlanRead(%v, %v): %v", cfg, lost, want, err)
				}
				srcs := rp.Sources
				st := broken.Clone()
				for col := 0; col < c.N(); col++ {
					for row := 0; row < c.R(); row++ {
						if cell := (Cell{Col: col, Row: row}); !slices.Contains(srcs, cell) && !slices.Contains(want, cell) {
							rng.Read(st.Sector(col, row))
						}
					}
				}
				before := st.Clone()
				if err := c.Decode(st, &rp); err != nil {
					t.Fatalf("%v: Decode(%v, %v): %v", cfg, lost, want, err)
				}
				for col := 0; col < c.N(); col++ {
					for row := 0; row < c.R(); row++ {
						cell, got := Cell{Col: col, Row: row}, st.Sector(col, row)
						switch {
						case slices.Contains(want, cell) && !bytes.Equal(got, pristine.Sector(col, row)):
							t.Fatalf("%v: Decode(%v, %v): cell %v wrong", cfg, lost, want, cell)
						case !slices.Contains(lost, cell) && !bytes.Equal(got, before.Sector(col, row)):
							t.Fatalf("%v: Decode(%v, %v) wrote cell %v, which is not lost", cfg, lost, want, cell)
						}
					}
				}
			}
		}
	}
}

// TestDecodeRefusesUnplanned: Decode of a nil or zero ReadPlan, or of one
// whose PlanRead failed, is an error, not a decode or a panic.
func TestDecodeRefusesUnplanned(t *testing.T) {
	c, err := New(Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := newFilledStripe(t, c, 64, 7)
	if err := c.Encode(st); err != nil {
		t.Fatal(err)
	}
	var failed ReadPlan
	if err := c.PlanRead(&failed, cellPattern(c, []Cell{{Col: 0, Row: 0}}), cellPattern(c, []Cell{{Col: 8, Row: 0}})); err == nil {
		t.Fatal("PlanRead of a cell outside the stripe succeeded")
	}
	for name, rp := range map[string]*ReadPlan{"nil": nil, "zero": {}, "failed": &failed} {
		if err := c.Decode(st, rp); err == nil {
			t.Errorf("Decode of a %s ReadPlan succeeded", name)
		}
	}
}

// TestPlanReadEveryCell: with want every cell, PlanRead's sources are
// every cell not lost, in (Col, Row) order, and a warm plan — of every
// cell or of an update set, clean or with two dead columns — allocates
// nothing once rp has grown.
func TestPlanReadEveryCell(t *testing.T) {
	c, err := New(Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var all []Cell
	for col := 0; col < c.N(); col++ {
		for row := 0; row < c.R(); row++ {
			all = append(all, Cell{Col: col, Row: row})
		}
	}
	lost := append(slices.Clone(all[c.R():2*c.R()]), Cell{Col: 5, Row: 3}, Cell{Col: 1, Row: 2}, Cell{Col: 0, Row: 7})
	var rp ReadPlan
	for _, lost := range [][]Cell{nil, lost} {
		// want in reverse, with a repeat: the order and repeats of want
		// must not show in Sources.
		want := append(slices.Clone(all), all[9])
		slices.Reverse(want)
		if err := c.PlanRead(&rp, cellPattern(c, lost), cellPattern(c, want)); err != nil {
			t.Fatalf("PlanRead(%v, every cell): %v", lost, err)
		}
		srcs := slices.DeleteFunc(slices.Clone(all), func(cell Cell) bool { return slices.Contains(lost, cell) })
		if !slices.Equal(rp.Sources, srcs) {
			t.Fatalf("PlanRead(%v, every cell): sources %v, want every cell not lost in (Col, Row) order", lost, rp.Sources)
		}
	}
	deps, err := c.ParityDependencies(Cell{})
	if err != nil {
		t.Fatal(err)
	}
	dead := all[:2*c.R()]
	for _, tc := range []struct {
		name       string
		lost, want []Cell
	}{
		{"nothing lost, every cell", nil, all},
		{"two dead columns, every cell", dead, all},
		{"two dead columns, an update set", dead, append([]Cell{{}}, deps...)},
	} {
		lost, want := cellPattern(c, tc.lost), cellPattern(c, tc.want)
		if allocs := testing.AllocsPerRun(100, func() { _ = c.PlanRead(&rp, lost, want) }); allocs != 0 {
			t.Errorf("PlanRead(%s): %.1f allocations, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkPlanRead times PlanRead on the benchmark geometry (n=8, r=16,
// m=2, e=(1,1,2)) for the wants the store plans — one cell (a degraded
// read), an update set (a sub-stripe flush) and every cell (scrub, repair,
// rebuild) — with nothing lost, one dead column and m dead columns. The
// plan cache is warm, so this is the per-call cost.
func BenchmarkPlanRead(b *testing.B) {
	c, err := New(Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		b.Fatal(err)
	}
	target := Cell{Col: 0, Row: 0}
	deps, err := c.ParityDependencies(target)
	if err != nil {
		b.Fatal(err)
	}
	var all, dead []Cell
	for col := 0; col < c.N(); col++ {
		for row := 0; row < c.R(); row++ {
			all = append(all, Cell{Col: col, Row: row})
		}
	}
	wants := []struct {
		name string
		want []Cell
	}{{"one", []Cell{target}}, {"update", append([]Cell{target}, deps...)}, {"all", all}}
	for _, w := range wants {
		for k := 0; k <= c.M(); k++ {
			dead = all[:k*c.R()]
			b.Run(fmt.Sprintf("want=%s/dead=%d", w.name, k), func(b *testing.B) {
				var rp ReadPlan
				dead, want := cellPattern(c, dead), cellPattern(c, w.want)
				if err := c.PlanRead(&rp, dead, want); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = c.PlanRead(&rp, dead, want)
				}
			})
		}
	}
}
