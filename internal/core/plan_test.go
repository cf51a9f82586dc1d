package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"stair/internal/gf"
)

// The planner is the only executor, so its reference lives here: run
// walks a schedule op by op, destination-major, through the per-region
// Field primitives — no staging, regrouping, coefficient merging, tiling
// or fused calls. The differential tests below hold every public surface
// (encode with each method, repair, incremental update) byte-identical
// to it, for every field width, at sector sizes below, at and ragged
// past the plan tile.

// run executes a schedule, whose ops name canonical cells, over the
// environment. Each op overwrites its destination with a linear
// combination of its sources.
func (c *Code) run(sch *schedule, cells [][]byte) {
	for i := range sch.ops {
		o := &sch.ops[i]
		dst := cells[c.slot[o.dst]]
		clear(dst)
		for _, t := range o.terms {
			c.f.MultXOR(dst, cells[c.slot[t.src]], t.coeff)
		}
	}
}

// oracleEncode encodes st through the schedule walk.
func oracleEncode(t *testing.T, c *Code, st *Stripe, m Method) {
	t.Helper()
	p, err := c.planFor(m)
	if err != nil {
		t.Fatal(err)
	}
	e := c.env(st)
	defer c.releaseEnv(e)
	c.run(p.sch, e.cells)
}

// oracleRepair repairs st through the schedule walk.
func oracleRepair(t *testing.T, c *Code, st *Stripe, lost []Cell) {
	t.Helper()
	p, err := c.patternOf(lost)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := c.buildDecodeSchedule(p, p)
	if err != nil || sch == nil {
		t.Fatalf("no decode schedule for %v: %v", lost, err)
	}
	e := c.env(st)
	defer c.releaseEnv(e)
	c.run(sch, e.cells)
}

// oracleUpdate applies the §5.2 parity relations one Mult_XOR at a time.
func oracleUpdate(c *Code, st *Stripe, cell Cell, newData []byte) {
	old := st.Sector(cell.Col, cell.Row)
	delta := append([]byte(nil), old...)
	gf.XORRegion(delta, newData)
	for _, pr := range c.dataDeps[c.dataOrd[c.cellIdx(cell.Row, cell.Col)]] {
		c.f.MultXOR(c.stored(st, int(pr.cell)), delta, pr.coeff)
	}
	copy(old, newData)
}

// planTallConfig leaves W unset: R+e_max = 257 > 256 auto-selects
// GF(2^16), the only way a caller who never names a field reaches it.
var planTallConfig = Config{N: 2, R: 256, M: 1, E: []int{1}}

func planTestConfigs() []Config {
	return []Config{
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}},
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, Placement: Outside},
		{N: 6, R: 4, M: 1, E: []int{4}},
		{N: 5, R: 4, M: 0, E: []int{1, 2}},
		{N: 6, R: 4, M: 1, E: []int{1, 2}, W: 4},
		{N: 8, R: 4, M: 2, E: []int{1, 2}, W: 16},
		{N: 6, R: 4, M: 1, E: []int{1, 2}, W: 16, Placement: Outside},
		planTallConfig,
	}
}

// planSectorSizes: below the tile, exactly one tile, a ragged second
// tile, and two tiles plus a ragged tail. All even, so they are valid
// for two-byte symbols.
var planSectorSizes = []int{34, defaultPlanTile, defaultPlanTile + 130, 2*defaultPlanTile + 130}

// planTallSectorSizes is what the 512-cell planTallConfig stripes are
// swept at: tiling does not depend on geometry, and under -race the full
// list costs this one config more than every other case together.
var planTallSectorSizes = []int{34, defaultPlanTile + 130}

func forEachPlanCase(t *testing.T, fn func(t *testing.T, c *Code, sectorSize int)) {
	for _, cfg := range planTestConfigs() {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sizes := planSectorSizes
		if c.R() == planTallConfig.R {
			sizes = planTallSectorSizes
		}
		for _, sectorSize := range sizes {
			t.Run(fmt.Sprintf("%v/sector=%d", c.Config(), sectorSize), func(t *testing.T) {
				fn(t, c, sectorSize)
			})
		}
	}
}

func newFilledStripe(t *testing.T, c *Code, sectorSize int, seed int64) *Stripe {
	t.Helper()
	st, err := c.NewStripe(sectorSize)
	if err != nil {
		t.Fatal(err)
	}
	fillData(t, c, st, seed)
	return st
}

func TestPlanMatchesOracleEncode(t *testing.T) {
	forEachPlanCase(t, func(t *testing.T, c *Code, sectorSize int) {
		for _, m := range []Method{MethodUpstairs, MethodDownstairs, MethodStandard} {
			want := newFilledStripe(t, c, sectorSize, 7)
			oracleEncode(t, c, want, m)
			got := newFilledStripe(t, c, sectorSize, 7)
			if err := c.EncodeWith(got, m); err != nil {
				t.Fatalf("method=%v: %v", m, err)
			}
			if !stripesEqual(got, want) {
				t.Fatalf("method=%v: plan and oracle encodes differ", m)
			}
		}
	})
}

func TestPlanMatchesOracleRepair(t *testing.T) {
	forEachPlanCase(t, func(t *testing.T, c *Code, sectorSize int) {
		rng := rand.New(rand.NewSource(11))
		st := newFilledStripe(t, c, sectorSize, 9)
		if err := c.Encode(st); err != nil {
			t.Fatal(err)
		}
		// In-coverage patterns: a single sector, the worst case the code
		// is built for (m chunks plus the stair), and whatever scattered
		// pair happens to be recoverable.
		patterns := [][]Cell{
			{{Col: 0, Row: 0}},
			worstCaseLost(c),
			{{Col: 1, Row: 2}, {Col: c.N() - 1, Row: 1}},
		}
		for pi, lost := range patterns {
			if ok, err := c.CanRecover(lost); err != nil {
				t.Fatal(err)
			} else if !ok {
				continue
			}
			broken := st.Clone()
			for _, cell := range lost {
				rng.Read(broken.Sector(cell.Col, cell.Row))
			}
			want := broken.Clone()
			oracleRepair(t, c, want, lost)
			got := broken.Clone()
			if err := c.Repair(got, lost); err != nil {
				t.Fatalf("pattern %d: %v", pi, err)
			}
			if !stripesEqual(got, want) {
				t.Fatalf("pattern %d: plan and oracle repairs differ", pi)
			}
		}
	})
}

func TestPlanMatchesOracleUpdate(t *testing.T) {
	forEachPlanCase(t, func(t *testing.T, c *Code, sectorSize int) {
		rng := rand.New(rand.NewSource(13))
		got := newFilledStripe(t, c, sectorSize, 17)
		if err := c.Encode(got); err != nil {
			t.Fatal(err)
		}
		want := got.Clone()
		cells := c.DataCells()
		for _, cell := range []Cell{cells[0], cells[len(cells)-1]} {
			newData := make([]byte, sectorSize)
			rng.Read(newData)
			if err := c.Update(got, cell, newData); err != nil {
				t.Fatal(err)
			}
			oracleUpdate(c, want, cell, newData)
			if !stripesEqual(got, want) {
				t.Fatalf("cell %v: fused and per-relation updates differ", cell)
			}
		}
		if ok, err := c.Verify(got); err != nil {
			t.Fatal(err)
		} else if !ok {
			t.Fatal("stripe does not verify after update")
		}
	})
}

// TestPlanInfo: every code reports a compiled plan, whatever its field.
func TestPlanInfo(t *testing.T) {
	for _, cfg := range planTestConfigs() {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		info := c.PlanInfo()
		if info.TileBytes != defaultPlanTile {
			t.Errorf("%v: TileBytes = %d, want %d", c.Config(), info.TileBytes, defaultPlanTile)
		}
		if info.Stages == 0 || info.FusedCalls == 0 || info.MaxFanout == 0 {
			t.Errorf("%v: plan shape empty: %+v", c.Config(), info)
		}
		if info.Kernel != c.KernelName() {
			t.Errorf("%v: Kernel = %q, want %q", c.Config(), info.Kernel, c.KernelName())
		}
	}
	auto, err := New(planTallConfig)
	if err != nil {
		t.Fatal(err)
	}
	if w := auto.Config().W; w != 16 {
		t.Fatalf("R+e_max=257 resolved to w=%d, want 16", w)
	}
	if d := PlanDefaults(); d.TileBytes != defaultPlanTile || d.Kernel != gf.ActiveKernelName() {
		t.Errorf("PlanDefaults() = %+v", d)
	}
}

// TestPlanMergesDuplicateTerms: duplicate (src,dst) terms merge by XOR of
// their coefficients, and a pair merging to zero leaves the destination
// to the explicit clear — in every field, since the planner carries the
// coefficient itself rather than reading it back out of a table.
func TestPlanMergesDuplicateTerms(t *testing.T) {
	for _, w := range []int{4, 8, 16} {
		c, err := New(Config{N: 6, R: 4, M: 1, E: []int{1, 2}, W: w})
		if err != nil {
			t.Fatal(err)
		}
		src, dstSum, dstZero := int32(c.cellIdx(0, 0)), int32(c.cellIdx(0, 1)), int32(c.cellIdx(0, 2))
		sch := &schedule{ops: []op{
			{dst: dstSum, terms: []term{{src: src, coeff: 3}, {src: src, coeff: 5}}},
			{dst: dstZero, terms: []term{{src: src, coeff: 9}, {src: src, coeff: 9}}},
		}}
		p := c.compilePlan(sch)
		zero, init := p.ops[0], p.ops[len(p.ops)-1]
		if len(p.ops) != 2 || p.stages != 1 || zero.N != 0 || zero.Dst[0] != c.slotOf(dstZero) ||
			init.N != 1 || init.Acc || init.Dst[0] != c.slotOf(dstSum) {
			t.Fatalf("w=%d: plan ops = %+v, want a zero-fill of %d and one overwrite of %d", w, p.ops, dstZero, dstSum)
		}
		const sectorSize = 66
		got := newFilledStripe(t, c, sectorSize, 21)
		want := got.Clone()
		e := c.env(got)
		c.runPlan(p, e.cells, sectorSize)
		c.releaseEnv(e)
		e = c.env(want)
		c.run(sch, e.cells)
		c.releaseEnv(e)
		if !stripesEqual(got, want) {
			t.Fatalf("w=%d: merged plan and schedule walk differ", w)
		}
	}
}

// TestPlanDecodeCacheReusesPlan: repairing twice through the cache must
// reuse the compiled plan (same pointer) rather than recompiling.
func TestPlanDecodeCacheReusesPlan(t *testing.T) {
	c, err := New(Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	lost := cellPattern(c, []Cell{{Col: 2, Row: 1}})
	p1, err := c.peelPlan(lost, lost)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.peelPlan(lost, lost)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == nil || p1 != p2 {
		t.Fatalf("decode plan not cached: %p vs %p", p1, p2)
	}
}

// randomCells returns n random cells of size bytes, and a copy.
func randomCells(rng *rand.Rand, n, size int) (cells, clone [][]byte) {
	cells, clone = make([][]byte, n), make([][]byte, n)
	for i := range cells {
		cells[i] = make([]byte, size)
		rng.Read(cells[i])
		clone[i] = append([]byte(nil), cells[i]...)
	}
	return cells, clone
}

// TestPlanKindsMatchTermByTerm holds every kind of compiled plan — the
// three encode methods, decode plans, update patches and row-local
// solves — to what it compiles, applied term by term: run over a vector
// of random cells, every cell must come out byte-identical to the
// schedule walk (encode, decode), the parity relations (update) or the
// row solve's coefficients (row-local) applied one Mult_XOR at a time,
// for w ∈ {4, 8, 16} at sizes inside one tile, exactly one, ragged past
// it and over several.
func TestPlanKindsMatchTermByTerm(t *testing.T) {
	forEachPlanCase(t, func(t *testing.T, c *Code, size int) {
		rng := rand.New(rand.NewSource(int64(size)))
		check := func(what string, p *plan, ncells int, ref func(cells [][]byte)) {
			t.Helper()
			got, want := randomCells(rng, ncells, size)
			c.runPlan(p, got, size)
			ref(want)
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: cell %d differs from the term-by-term reference", what, i)
				}
			}
		}
		for _, m := range []Method{MethodUpstairs, MethodDownstairs, MethodStandard} {
			p, err := c.planFor(m)
			if err != nil {
				t.Fatal(err)
			}
			check(m.String(), p, c.envLen, func(cells [][]byte) { c.run(p.sch, cells) })
		}
		for _, lost := range [][]Cell{{{Col: 0, Row: 0}}, worstCaseLost(c)} {
			pat := cellPattern(c, lost)
			p, err := c.peelPlan(pat, pat)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("decode %v", lost), p, c.envLen, func(cells [][]byte) { c.run(p.sch, cells) })
		}
		for _, ord := range []int{0, len(c.dataDeps) - 1} {
			deps := c.dataDeps[ord]
			check(fmt.Sprintf("update of data cell %d", ord), &c.updPlans[ord], len(deps)+1, func(cells [][]byte) {
				for i, pr := range deps {
					c.f.MultXOR(cells[i+1], cells[0], pr.coeff)
				}
			})
		}
		var sets [][]int // a row solve covers at most m lost columns
		if c.M() >= 1 {
			sets = append(sets, []int{0}, []int{c.N() - 1})
		}
		if c.M() >= 2 {
			sets = append(sets, []int{0, c.N() - 1})
		}
		for _, set := range sets {
			rs, err := c.rowSolveFor(set)
			if err != nil {
				t.Fatal(err)
			}
			coeffs, err := c.crow.SolveCoeffs(rs.have, set)
			if err != nil {
				t.Fatal(err)
			}
			for i, col := range set {
				check(fmt.Sprintf("row-local %v col %d", set, col), &rs.plans[i], c.N(), func(cells [][]byte) {
					clear(cells[col])
					for j, src := range rs.have {
						c.f.MultXOR(cells[col], cells[src], coeffs.At(i, j))
					}
				})
			}
		}
	})
}

// TestPlanShortCellPanicsBeforeWriting: the kernels write through raw
// pointers, so runPlan checks every cell a plan names before its first
// op. A destination one byte short of the run, or a source left nil,
// must panic with every cell as it was.
func TestPlanShortCellPanicsBeforeWriting(t *testing.T) {
	c, err := New(Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.planFor(MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	const size = 512
	last := p.ops[len(p.ops)-1]
	for _, tc := range []struct {
		what string
		cell int32
		keep int
	}{
		{"destination of the last op one byte short", last.Dst[0], size - 1},
		{"source of the last op nil", last.Src, -1},
	} {
		t.Run(tc.what, func(t *testing.T) {
			cells, before := randomCells(rand.New(rand.NewSource(3)), c.envLen, size)
			if tc.keep < 0 {
				cells[tc.cell], before[tc.cell] = nil, nil
			} else {
				cells[tc.cell], before[tc.cell] = cells[tc.cell][:tc.keep], before[tc.cell][:tc.keep]
			}
			defer func() {
				if recover() == nil {
					t.Fatal("runPlan did not panic")
				}
				for i := range cells {
					if !bytes.Equal(cells[i][:cap(cells[i])], before[i][:cap(before[i])]) {
						t.Fatalf("cell %d changed before the panic", i)
					}
				}
			}()
			c.runPlan(p, cells, size)
		})
	}
}
