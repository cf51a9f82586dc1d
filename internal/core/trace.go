package core

import (
	"fmt"
	"strings"
)

// TraceStep describes one solve step of an encoding or decoding schedule
// in the paper's presentation style (Tables 2 and 3): which codeword was
// solved (a canonical row via Crow or a column via Ccol), which symbols
// were consumed and which were produced.
type TraceStep struct {
	// Coding is "Crow" for row solves and "Ccol" for column solves.
	Coding string
	// Index is the canonical row or column index that was solved.
	Index int
	// Inputs and Outputs are symbol names in the paper's notation.
	Inputs  []string
	Outputs []string
}

func (t TraceStep) String() string {
	return fmt.Sprintf("%s ⇒ %s  (%s)",
		strings.Join(t.Inputs, ","), strings.Join(t.Outputs, ","), t.Coding)
}

// traceOf reconstructs per-event steps from a (pruned) schedule. Inputs
// are the union of source cells of the event's surviving ops that were
// not produced by the same event, in first-use order.
func (c *Code) traceOf(sch *schedule) []TraceStep {
	if len(sch.events) == 0 {
		return nil
	}
	type group struct {
		ops []*op
	}
	groups := make([]group, len(sch.events))
	for i := range sch.ops {
		o := &sch.ops[i]
		if o.event >= 0 {
			groups[o.event].ops = append(groups[o.event].ops, o)
		}
	}
	var steps []TraceStep
	for ev, g := range groups {
		if len(g.ops) == 0 {
			continue
		}
		e := sch.events[ev]
		step := TraceStep{Coding: "Crow", Index: e.index}
		if e.isCol {
			step.Coding = "Ccol"
		}
		seen := make(map[int32]bool)
		produced := make(map[int32]bool)
		for _, o := range g.ops {
			produced[o.dst] = true
		}
		for _, o := range g.ops {
			for _, t := range o.terms {
				if produced[t.src] || seen[t.src] {
					continue
				}
				seen[t.src] = true
				row, col := c.cellRC(int(t.src))
				step.Inputs = append(step.Inputs, c.CellName(row, col))
			}
			row, col := c.cellRC(int(o.dst))
			step.Outputs = append(step.Outputs, c.CellName(row, col))
		}
		steps = append(steps, step)
	}
	return steps
}

// EncodeTrace returns the solve-step sequence of the given encoding
// method. For the paper's exemplary configuration (n=8, r=4, m=2,
// e=(1,1,2)), EncodeTrace(MethodDownstairs) reproduces Table 3.
// MethodStandard has no step structure and returns nil.
func (c *Code) EncodeTrace(m Method) ([]TraceStep, error) {
	p, err := c.planFor(m)
	if err != nil {
		return nil, err
	}
	return c.traceOf(p.sch), nil
}

// UpstairsDecodeTrace returns the strict §4.2 upstairs decoding step
// sequence for a failure pattern. For the exemplary configuration with
// the worst-case stair erasure it reproduces Table 2. The schedule is
// built with the Outside-placement symbol names when the code uses
// Outside placement.
func (c *Code) UpstairsDecodeTrace(lost []Cell) ([]TraceStep, error) {
	lp, err := c.patternOf(lost)
	if err != nil {
		return nil, err
	}
	idxs := c.canonical(lp)
	p := c.decodePeeler(idxs)
	if err := p.upstairs(idxs); err != nil {
		return nil, err
	}
	if !p.allKnown(idxs) {
		return nil, ErrUnrecoverable
	}
	p.sched.prune(idxs, c.rows*c.cols)
	return c.traceOf(p.sched), nil
}
