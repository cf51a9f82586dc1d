package core

import "fmt"

// The peeling scheduler generalises the paper's upstairs decoding (§4.2):
// repeatedly find a canonical row with ≥ n−m known symbols (a Crow
// codeword determines its remaining symbols) or a canonical column with
// ≥ r known symbols (a Ccol codeword likewise), emit the linear ops that
// recover the unknown symbols, and mark them known. The paper's proof of
// fault tolerance shows this process completes for every failure pattern
// within the coverage defined by m and e.
//
// Different scan orders reproduce the paper's different algorithms:
//
//   - upstairs order (chunk columns left→right, then augmented rows,
//     looped; real rows last) reproduces upstairs decoding/encoding and
//     Table 2;
//   - downstairs order (real rows top→bottom, then intermediate columns
//     right→left, looped) reproduces downstairs encoding and Table 3;
//   - practical order (real rows first — local repair via row parities —
//     then the upstairs loop, then real rows again) reproduces §4.3.
//
// Following §4.2/§4.3, the upstairs machinery never column-solves the
// "deferred" chunks — the m chunks with the most lost symbols (for
// encoding, the m row-parity chunks) — which are recovered row by row at
// the end, and never column-solves intermediate chunks. A separate
// unrestricted generic order exists as a best-effort fallback for
// patterns outside the coverage.

type peeler struct {
	c *Code
	// known marks canonical cells whose value is available; zero marks
	// known cells whose value is identically zero (the zeroed outside
	// global parities of §5.1), which are elided from emitted terms.
	known []bool
	zero  []bool
	// deferred marks chunk columns excluded from upstairs column solves
	// (§4.3: the m chunks with the most lost symbols are recovered last
	// via row parities).
	deferred []bool
	sched    *schedule
}

func newPeeler(c *Code) *peeler {
	return &peeler{
		c:        c,
		known:    make([]bool, c.rows*c.cols),
		zero:     make([]bool, c.rows*c.cols),
		deferred: make([]bool, c.cols),
		sched:    &schedule{},
	}
}

// markKnown marks a canonical cell as available input.
func (p *peeler) markKnown(row, col int, isZero bool) {
	i := p.c.cellIdx(row, col)
	p.known[i] = true
	p.zero[i] = isZero
}

// solve checks whether canonical row index — with isCol, column index —
// has at least κ known symbols (κ = n−m of Crow for a row, r of Ccol for
// a column, whose codeword then determines the rest) and, if so, emits
// ops recovering every unknown symbol in it. Returns true if it was
// solved.
func (p *peeler) solve(isCol bool, index int) (bool, error) {
	c, code, size, kind := p.c, p.c.crow, p.c.cols, "row"
	cell := func(i int) int { return c.cellIdx(index, i) }
	if isCol {
		code, size, kind = c.ccol, c.rows, "column"
		cell = func(i int) int { return c.cellIdx(i, index) }
	}
	var have, want []int
	for i := 0; i < size; i++ {
		if p.known[cell(i)] {
			have = append(have, i)
		} else {
			want = append(want, i)
		}
	}
	if len(want) == 0 || len(have) < code.Kappa() {
		return false, nil
	}
	k, err := code.SolveCoeffs(have, want)
	if err != nil {
		return false, fmt.Errorf("core: %s %d solve: %w", kind, index, err)
	}
	ev := int32(len(p.sched.events))
	p.sched.events = append(p.sched.events, solveEvent{isCol: isCol, index: index})
	for wi, w := range want {
		o := op{dst: int32(cell(w)), event: ev, width: int32(code.Kappa())}
		for hi := 0; hi < code.Kappa(); hi++ {
			if coeff, src := k.At(wi, hi), cell(have[hi]); coeff != 0 && !p.zero[src] {
				o.terms = append(o.terms, term{src: int32(src), coeff: coeff})
			}
		}
		p.sched.ops = append(p.sched.ops, o)
		p.known[o.dst] = true
	}
	return true, nil
}

// pass solves in turn every row — with isCol every column not deferred —
// from index from up to, or down to, index to (exclusive), and reports
// whether it solved any.
func (p *peeler) pass(isCol bool, from, to int) (progress bool, err error) {
	step := 1
	if to < from {
		step = -1
	}
	for i := from; i != to && err == nil; i += step {
		if !isCol || !p.deferred[i] {
			var ok bool
			ok, err = p.solve(isCol, i)
			progress = progress || ok
		}
	}
	return progress, err
}

func (p *peeler) allKnown(cells []int) bool {
	for _, i := range cells {
		if !p.known[i] {
			return false
		}
	}
	return true
}

// upstairsLoop runs the §4.2 core: alternate full passes of chunk-column
// solves (left to right, skipping deferred chunks) and augmented-row
// solves (top to bottom) until neither makes progress or all targets are
// known.
func (p *peeler) upstairsLoop(targets []int) error {
	for {
		cols, err := p.pass(true, 0, p.c.n)
		if err != nil {
			return err
		}
		rows, err := p.pass(false, p.c.r, p.c.rows)
		if err != nil {
			return err
		}
		if p.allKnown(targets) || !cols && !rows {
			return nil
		}
	}
}

// upstairs runs strict upstairs order (§4.2, Table 2): columns and
// augmented rows to a fixpoint, then real rows, repeated until stall.
func (p *peeler) upstairs(targets []int) error {
	for {
		if err := p.upstairsLoop(targets); err != nil {
			return err
		}
		if p.allKnown(targets) {
			return nil
		}
		progress, err := p.pass(false, 0, p.c.r)
		if err != nil {
			return err
		}
		if p.allKnown(targets) || !progress {
			return nil
		}
	}
}

// practical runs the §4.3 order: local row repair (a pass over the real
// rows, solved from their row parities) first, then the upstairs
// machinery, then deferred row repairs, until stall.
func (p *peeler) practical(targets []int) error {
	for {
		if _, err := p.pass(false, 0, p.c.r); err != nil {
			return err
		}
		if p.allKnown(targets) {
			return nil
		}
		before := len(p.sched.ops)
		if err := p.upstairsLoop(targets); err != nil {
			return err
		}
		if p.allKnown(targets) {
			return nil
		}
		progress, err := p.pass(false, 0, p.c.r)
		if err != nil {
			return err
		}
		if p.allKnown(targets) {
			return nil
		}
		if !progress && len(p.sched.ops) == before {
			return nil // stalled; caller detects missing targets
		}
	}
}

// downstairs runs the §5.1.2 order: real rows top→bottom, then
// intermediate columns right→left, looped. Only valid for encoding (the
// paper notes this order cannot decode general failure patterns).
func (p *peeler) downstairs(targets []int) error {
	for {
		rows, err := p.pass(false, 0, p.c.r)
		if err != nil {
			return err
		}
		if p.allKnown(targets) {
			return nil
		}
		cols, err := p.pass(true, p.c.cols-1, p.c.n-1)
		if err != nil {
			return err
		}
		if p.allKnown(targets) || !rows && !cols {
			return nil
		}
	}
}

// generic runs an unrestricted fixpoint over every row and column (its
// peeler defers no chunk). It is the best-effort fallback for failure
// patterns outside the constructed coverage that nevertheless happen to
// be peelable.
func (p *peeler) generic(targets []int) error {
	for {
		rows, err := p.pass(false, 0, p.c.rows)
		if err != nil {
			return err
		}
		cols, err := p.pass(true, 0, p.c.cols)
		if err != nil {
			return err
		}
		if p.allKnown(targets) || !rows && !cols {
			return nil
		}
	}
}
