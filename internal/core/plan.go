package core

import (
	"fmt"

	"stair/internal/gf"
)

// A plan is the source-major, tiled execution form of a schedule — the
// ISA-L ec_encode_data shape. A schedule lists its Mult_XORs destination
// by destination, which would stream every source region from memory once
// per parity row; a plan regroups the same Mult_XORs by *source* and
// executes one fused kernel call per source cell, updating all of its
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
// another's destination and the fused calls of a stage can run in any
// order. Each destination's first term runs as an overwrite (init) call
// and the rest accumulate, so fresh output regions are neither
// zero-filled nor re-read.
//
// The plan is the only executor, for every field: gf.Table hides the
// symbol width behind the coefficient tables the fused calls take.

// defaultPlanTile is the per-cell tile size the stripe sweep uses. One
// fused call touches 1 source + up-to-maxFan destination tiles, so the
// working set is (fanout+1)·tile bytes: 8 KiB keeps a typical 4-wide
// group inside a 48 KiB L1 and even the widest schedules inside L2.
const defaultPlanTile = 8192

// fusedGroup is one fused kernel call: every destination cell the plan
// accumulates coeff·src into within one stage, with the coefficient
// tables pre-resolved at compile time.
type fusedGroup struct {
	src  int32
	dsts []int32
	tabs []*gf.MulTable
}

type planStage struct {
	zero   []int32      // destinations with no surviving terms (rare)
	inits  []fusedGroup // overwrite calls: each destination's first term
	groups []fusedGroup // accumulate calls for the remaining terms
}

type plan struct {
	sch    *schedule // the schedule this plan executes (costs, traces)
	stages []planStage
	maxFan int // widest fused group, sizes the per-run dst scratch
	calls  int // fused calls per full execution (observability)
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

// compilePlan lowers a schedule into its source-major plan.
func (c *Code) compilePlan(sch *schedule) *plan {
	p := &plan{sch: sch}
	// Stage leveling: plan inputs sit at stage 0, an op lands one past
	// the deepest producer it reads. Schedules are in execution order and
	// write each cell exactly once, so one forward pass suffices.
	stageOf := make([]int32, c.rows*c.cols)
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
	p.stages = make([]planStage, maxStage)
	// bySrc holds each stage's terms regrouped per source cell, in first-
	// use order; srcIx maps a stage's source cell to its bySrc index.
	bySrc := make([][]sourceTerms, maxStage)
	srcIx := make([]map[int32]int, maxStage)
	for i := range srcIx {
		srcIx[i] = make(map[int32]int)
	}
	for i := range sch.ops {
		o := &sch.ops[i]
		si := opStage[i] - 1
		p.stages[si].zero = append(p.stages[si].zero, o.dst)
		for _, t := range o.terms {
			coeff := t.coeff & uint32(c.f.Size()-1)
			if coeff == 0 {
				continue
			}
			ix, ok := srcIx[si][t.src]
			if !ok {
				ix = len(bySrc[si])
				srcIx[si][t.src] = ix
				bySrc[si] = append(bySrc[si], sourceTerms{src: t.src})
			}
			g := &bySrc[si][ix]
			// Merge duplicate (src,dst) terms: c1·v ^ c2·v = (c1^c2)·v.
			// The fused kernels forbid overlapping destinations, and a
			// merged term is cheaper anyway.
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
	// add appends a non-empty fused call to a stage list and counts it.
	add := func(list *[]fusedGroup, g fusedGroup) {
		if len(g.dsts) == 0 {
			return
		}
		*list = append(*list, g)
		p.calls++
		if len(g.dsts) > p.maxFan {
			p.maxFan = len(g.dsts)
		}
	}
	// Drop terms merged down to coefficient zero, resolve the surviving
	// coefficients to their kernel tables, and split each destination's
	// first surviving term into an overwrite (init) group: outputs are
	// written by their first term instead of zero-filled and accumulated,
	// saving one write plus one read of every destination region per
	// execution. st.zero keeps only destinations every term of which
	// merged away — those still need the explicit clear.
	for si := range p.stages {
		st := &p.stages[si]
		claimed := make(map[int32]bool, len(st.zero))
		for _, g := range bySrc[si] {
			first, rest := fusedGroup{src: g.src}, fusedGroup{src: g.src}
			for i, d := range g.dsts {
				if g.coeffs[i] == 0 {
					continue
				}
				into := &rest
				if !claimed[d] {
					claimed[d] = true
					into = &first
				}
				into.dsts = append(into.dsts, d)
				into.tabs = append(into.tabs, c.f.Table(g.coeffs[i]))
			}
			add(&st.inits, first)
			add(&st.groups, rest)
		}
		zero := st.zero[:0]
		for _, d := range st.zero {
			if !claimed[d] {
				zero = append(zero, d)
			}
		}
		st.zero = zero
	}
	return p
}

// runPlan executes a plan over the environment, sweeping all stages over
// one tile of every cell before advancing to the next tile.
func (c *Code) runPlan(p *plan, cells [][]byte) {
	size := 0
	for _, s := range cells {
		if s != nil {
			size = len(s)
			break
		}
	}
	fan, _ := c.fanPool.Get().(*[][]byte)
	if fan == nil || cap(*fan) < p.maxFan {
		b := make([][]byte, p.maxFan)
		fan = &b
	}
	dstbuf := (*fan)[:p.maxFan]
	defer func() {
		clear(dstbuf)
		c.fanPool.Put(fan)
	}()
	// Compilation fixed every group's arity and the field, so the kernel
	// is resolved once here rather than re-checked on each fused call:
	// at 512-byte sectors a call moves a few vectors, and the package
	// entry points' checks were a measurable share of it.
	k := c.f.Kernel()
	for lo := 0; lo < size; lo += defaultPlanTile {
		hi := lo + defaultPlanTile
		if hi > size {
			hi = size
		}
		for si := range p.stages {
			st := &p.stages[si]
			for _, d := range st.zero {
				gf.Zero(cells[d][lo:hi])
			}
			for gi := range st.inits {
				g := &st.inits[gi]
				dsts := dstbuf[:len(g.dsts)]
				for i, d := range g.dsts {
					dsts[i] = cells[d][lo:hi]
				}
				k.MulRegionFused(dsts, cells[g.src][lo:hi], g.tabs)
			}
			for gi := range st.groups {
				g := &st.groups[gi]
				dsts := dstbuf[:len(g.dsts)]
				for i, d := range g.dsts {
					dsts[i] = cells[d][lo:hi]
				}
				k.MultXORFused(dsts, cells[g.src][lo:hi], g.tabs)
			}
		}
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
// FusedCalls and MaxFanout describe the auto-method encode plan.
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
// (stages, fan-out) comes from Code.PlanInfo.
func PlanDefaults() PlanInfo {
	return PlanInfo{Kernel: gf.ActiveKernelName(), TileBytes: defaultPlanTile}
}

// PlanInfo reports the shape of the encode data path: the tile size, the
// GF kernel this code's field dispatches to, and the compiled shape of
// the auto-method encode plan.
func (c *Code) PlanInfo() PlanInfo {
	p, _ := c.planFor(MethodAuto)
	return PlanInfo{
		Kernel:     c.KernelName(),
		TileBytes:  defaultPlanTile,
		Stages:     len(p.stages),
		FusedCalls: p.calls,
		MaxFanout:  p.maxFan,
	}
}
