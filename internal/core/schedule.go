package core

// A schedule is a pre-compiled sequence of region linear combinations over
// the canonical grid. Executing a schedule is the only work Encode and
// Repair do at runtime; everything data-independent (peeling order, matrix
// inversions, coefficient computation) happens once at schedule-build
// time.
//
// Each op carries two costs. The model cost counts one Mult_XOR per input
// of the solve that produced the symbol (κ = n−m for row solves, r for
// column solves; the number of contributing data symbols for standard
// encoding) — exactly the paper's §5.3 accounting, so schedule model costs
// reproduce Eqs. 5 and 6. The actual cost counts the terms really
// executed, which can be lower because multiplications by the zeroed
// outside global parities (§5.1) and by zero matrix coefficients are
// elided.

// term is one executed Mult_XOR: accumulate coeff·cells[src] into dst.
type term struct {
	src   int32
	coeff uint32
}

// op computes cells[dst] = Σ coeff·cells[src] over its terms. Each dst is
// written by exactly one op in a schedule.
type op struct {
	dst   int32
	event int32 // index into schedule.events (solve-step provenance)
	width int32 // model Mult_XORs for this symbol (κ of the solve)
	terms []term
}

// solveEvent records which row or column solve produced a group of ops;
// the tracer uses events to reproduce the paper's Tables 2 and 3.
type solveEvent struct {
	isCol bool
	index int // row or column index in the canonical grid
}

type schedule struct {
	ops    []op
	events []solveEvent
	// modelCost is the paper-model Mult_XOR count (Figure 9's quantity).
	modelCost int
	// actualCost is the number of Mult_XORs actually executed.
	actualCost int
}

func (s *schedule) recount() {
	s.modelCost, s.actualCost = 0, 0
	for i := range s.ops {
		s.modelCost += int(s.ops[i].width)
		s.actualCost += len(s.ops[i].terms)
	}
}

// prune removes ops whose destination contributes neither to any target
// cell nor to any kept op, sweeping backwards. Because each cell is
// written exactly once and ops only read cells written by earlier ops,
// one backward pass suffices. This is what makes the schedule costs match
// the paper's closed forms: e.g. upstairs encoding never materialises the
// p* virtual parities of row-parity chunks (Eq. 5).
func (s *schedule) prune(targets []int, totalCells int) {
	needed := make([]bool, totalCells)
	for _, t := range targets {
		needed[t] = true
	}
	kept := make([]op, 0, len(s.ops))
	for i := len(s.ops) - 1; i >= 0; i-- {
		o := s.ops[i]
		if !needed[o.dst] {
			continue
		}
		for _, t := range o.terms {
			needed[t.src] = true
		}
		kept = append(kept, o)
	}
	// Restore forward execution order.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	s.ops = kept
	s.recount()
}
