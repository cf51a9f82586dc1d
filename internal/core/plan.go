package core

import (
	"fmt"
	"slices"

	"stair/internal/gf"
)

// A plan is the source-major, tiled execution form of a schedule — the
// ISA-L ec_encode_data shape. A schedule lists its Mult_XORs destination
// by destination, which would stream every source region from memory once
// per parity row; a plan regroups the same Mult_XORs by *source* and
// executes fused kernel calls per source cell, updating up to four of its
// destinations while the source tile is register/cache-resident. The
// whole stripe is then swept tile-by-tile (an L1/L2-sized block of every
// cell at the same byte range) so sources and destinations both stay
// cache-hot across the plan — region ops are symbol-wise linear, so
// running all stages over one byte range before advancing is identical
// to running each op full-width.
//
// Correct regrouping must respect producer→consumer order: an op may read
// cells written by earlier ops. Compilation levels the op DAG into
// stages — an op's stage is one past the deepest stage producing any of
// its sources (plan inputs are stage 0) — so within a stage no op reads
// another's destination. Each destination's first term runs as an
// overwrite (init) call and the rest accumulate, so fresh output regions
// are neither zero-filled nor re-read.
//
// The compiled form is a flat list of gf.Ops addressed by environment
// index (see indexEnv), stage by stage: zero-fills, then overwrites,
// then accumulations, each source's destinations split into the 4-, 2-
// and 1-destination calls the SIMD kernels take. A run hands the whole
// list to the field's kernel once per tile.
//
// The plan is the only executor, for every field: gf.Table hides the
// symbol width behind the coefficient tables the ops carry.

// defaultPlanTile is the per-cell tile size the stripe sweep uses. One op
// touches 1 source + up to 4 destination tiles, and a source's ops run
// back to back, so 8 KiB keeps a typical group inside a 48 KiB L1 and
// even the widest schedules inside L2.
const defaultPlanTile = 8192

type plan struct {
	sch    *schedule // the schedule this plan executes (costs, traces)
	ops    []gf.Op   // every stage's kernel calls, in execution order
	cells  []int32   // every cell the ops read or write, checked per run
	stages int
	// sources holds, for a decode plan, the real cells it reads without
	// having written them (see ReadPlan).
	sources Pattern
}

// sourceTerms collects, during compilation, every Mult_XOR one stage
// reads from one source cell: coeffs[i]·src accumulates into dsts[i].
type sourceTerms struct {
	src    int32
	dsts   []int32
	coeffs []uint32
}

// compilePlan lowers a schedule into its source-major plan. A count pass
// sizes the per-source term lists and the stage outputs before the pass
// that fills them, so their number of allocations does not grow with the
// schedule.
func (c *Code) compilePlan(sch *schedule) *plan {
	// Stage leveling: plan inputs sit at stage 0, an op lands one past
	// the deepest producer it reads. Schedules are in execution order and
	// write each cell exactly once, so one forward pass suffices.
	nCells := c.rows * c.cols
	stageOf := make([]int32, nCells)
	maxStage := int32(0)
	opStage := make([]int32, len(sch.ops))
	for i := range sch.ops {
		o := &sch.ops[i]
		s := int32(1)
		for _, t := range o.terms {
			if ps := stageOf[t.src] + 1; ps > s {
				s = ps
			}
		}
		opStage[i] = s
		stageOf[o.dst] = s
		if s > maxStage {
			maxStage = s
		}
	}
	// Each stage's terms are regrouped per source cell, in first-use
	// order: srcIx[si·nCells+src] is one past stage si's group index of
	// source cell src, 0 while it has none, and terms[si·nCells+src]
	// bounds that group's terms (merging only shrinks it). The count
	// pass fills both and counts each stage's groups and outputs.
	srcIx := make([]int32, int(maxStage)*nCells)
	terms := make([]int32, int(maxStage)*nCells)
	stageGroups := make([]int, maxStage+1)
	stageOuts := make([]int, maxStage+1)
	nTerms := 0
	for i := range sch.ops {
		o := &sch.ops[i]
		si := int(opStage[i] - 1)
		stageOuts[si+1]++
		for _, t := range o.terms {
			if t.coeff&uint32(c.f.Size()-1) == 0 {
				continue
			}
			at := si*nCells + int(t.src)
			if srcIx[at] == 0 {
				stageGroups[si+1]++
				srcIx[at] = int32(stageGroups[si+1])
			}
			terms[at]++
			nTerms++
		}
	}
	// Prefix sums turn the counts into each stage's offsets in the flat
	// group and output lists; every group's terms get their own run of
	// the flat term lists.
	for si := 1; si <= int(maxStage); si++ {
		stageGroups[si] += stageGroups[si-1]
		stageOuts[si] += stageOuts[si-1]
	}
	groups := make([]sourceTerms, stageGroups[maxStage])
	dstTerms, coeffTerms := make([]int32, nTerms), make([]uint32, nTerms)
	off := 0
	for at, ix := range srcIx {
		if ix != 0 {
			n := off + int(terms[at])
			groups[stageGroups[at/nCells]+int(ix)-1] = sourceTerms{src: int32(at % nCells),
				dsts: dstTerms[off:off:n], coeffs: coeffTerms[off:off:n]}
			off = n
		}
	}
	// outs lists each stage's outputs, in schedule order, from the
	// stage's offset on; next is where the stage's next one goes.
	outs, next := make([]int32, len(sch.ops)), slices.Clone(stageOuts)
	for i := range sch.ops {
		o := &sch.ops[i]
		si := int(opStage[i] - 1)
		outs[next[si]] = o.dst
		next[si]++
		for _, t := range o.terms {
			coeff := t.coeff & uint32(c.f.Size()-1)
			if coeff == 0 {
				continue
			}
			at := si*nCells + int(t.src)
			g := &groups[stageGroups[si]+int(srcIx[at])-1]
			// Merge duplicate (src,dst) terms: c1·v ^ c2·v = (c1^c2)·v.
			// An op's destinations must not overlap, and a merged term is
			// cheaper anyway.
			merged := false
			for di, d := range g.dsts {
				if d == o.dst {
					g.coeffs[di] ^= coeff
					merged = true
					break
				}
			}
			if !merged {
				g.dsts = append(g.dsts, o.dst)
				g.coeffs = append(g.coeffs, coeff)
			}
		}
	}
	p := &plan{sch: sch, stages: int(maxStage)}
	// Drop terms merged down to coefficient zero and split each
	// destination's first surviving term into an overwrite (init) op:
	// outputs are written by their first term instead of zero-filled and
	// accumulated, saving one write plus one read of every destination
	// region per execution. Only destinations every term of which merged
	// away still need a zero-fill.
	// claimer[d] is one past the group index of the source whose term
	// initialises destination d in the stage at hand, 0 while none does.
	claimer := make([]int, nCells)
	var dsts []int32
	var tabs []*gf.MulTable
	for si := range int(maxStage) {
		stage, out := groups[stageGroups[si]:stageGroups[si+1]], outs[stageOuts[si]:stageOuts[si+1]]
		for gi, g := range stage {
			for i, d := range g.dsts {
				if claimer[d] == 0 && g.coeffs[i] != 0 {
					claimer[d] = gi + 1
				}
			}
		}
		for _, d := range out {
			if claimer[d] == 0 {
				p.ops = append(p.ops, gf.Op{Dst: [4]int32{c.slotOf(d)}})
			}
		}
		for _, acc := range []bool{false, true} {
			for gi, g := range stage {
				dsts, tabs = dsts[:0], tabs[:0]
				for i, d := range g.dsts {
					if g.coeffs[i] != 0 && (claimer[d] != gi+1) == acc {
						dsts = append(dsts, c.slotOf(d))
						tabs = append(tabs, c.f.Table(g.coeffs[i]))
					}
				}
				p.ops = gf.AppendOps(p.ops, acc, c.slotOf(g.src), dsts, tabs)
			}
		}
		for _, d := range out {
			claimer[d] = 0
		}
	}
	p.cells = c.touched(p.ops)
	return p
}

// slotOf is a canonical cell's environment index.
func (c *Code) slotOf(idx int32) int32 { return c.slot[idx] }

// touched lists, once each, the environment cells an op list reads or
// writes.
func (c *Code) touched(ops []gf.Op) []int32 {
	cells := make([]int32, 0, c.envLen)
	seen := make([]bool, c.envLen)
	add := func(i int32) {
		if !seen[i] {
			seen[i] = true
			cells = append(cells, i)
		}
	}
	for _, o := range ops {
		if o.N > 0 {
			add(o.Src)
		}
		for _, d := range o.Dst[:max(o.N, 1)] {
			add(d)
		}
	}
	return cells
}

// runPlan executes a plan over size bytes of the environment's cells,
// sweeping every op over one tile before advancing to the next. The
// kernels write through raw pointers, so it first checks, before any
// byte is written, that every cell the plan names holds size bytes.
func (c *Code) runPlan(p *plan, cells [][]byte, size int) {
	for _, i := range p.cells {
		if len(cells[i]) < size {
			panic(fmt.Sprintf("core: plan cell %d has %d bytes, want %d", i, len(cells[i]), size))
		}
	}
	k := c.f.Kernel()
	for lo := 0; lo < size; lo += defaultPlanTile {
		k.RunOps(p.ops, cells, lo, min(lo+defaultPlanTile, size))
	}
}

// planFor resolves a method to its compiled plan.
func (c *Code) planFor(m Method) (*plan, error) {
	switch m {
	case MethodAuto:
		return c.planFor(c.method)
	case MethodUpstairs:
		return c.upPlan, nil
	case MethodDownstairs:
		return c.downPlan, nil
	case MethodStandard:
		return c.stdPlan, nil
	default:
		return nil, fmt.Errorf("core: unknown method %v", m)
	}
}

// PlanInfo describes the stripe data path for observability surfaces
// (stairstore stats, the stairbench banner, staird metrics). Stages,
// FusedCalls and MaxFanout describe the auto-method encode plan:
// FusedCalls counts the kernel ops it runs per tile (zero-fills
// included), MaxFanout the most destinations one op writes (at most 4,
// the widest SIMD routine).
type PlanInfo struct {
	Kernel     string `json:"kernel"`
	TileBytes  int    `json:"tile_bytes"`
	Stages     int    `json:"stages"`
	FusedCalls int    `json:"fused_calls"`
	MaxFanout  int    `json:"max_fanout"`
}

// PlanDefaults reports the data-path configuration codes built in this
// process will use — tile size and the dispatched kernel — without
// needing a compiled Code. Banner/startup surfaces use it; per-code shape
// (stages, ops, fan-out) comes from Code.PlanInfo.
func PlanDefaults() PlanInfo {
	return PlanInfo{Kernel: gf.ActiveKernelName(), TileBytes: defaultPlanTile}
}

// PlanInfo reports the shape of the encode data path: the tile size, the
// GF kernel this code's field dispatches to, and the compiled shape of
// the auto-method encode plan.
func (c *Code) PlanInfo() PlanInfo {
	p, _ := c.planFor(MethodAuto)
	fan := 0
	for _, o := range p.ops {
		fan = max(fan, int(o.N))
	}
	return PlanInfo{
		Kernel:     c.KernelName(),
		TileBytes:  defaultPlanTile,
		Stages:     p.stages,
		FusedCalls: len(p.ops),
		MaxFanout:  fan,
	}
}
