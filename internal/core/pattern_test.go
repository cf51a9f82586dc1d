package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// cellPattern is the tests' conversion of cells to a pattern of c's
// stripe. It checks no range: a cell past the stripe's last cell sets a
// bit past n·r all the same, for PlanRead to refuse.
func cellPattern(c *Code, cells []Cell) Pattern {
	p := NewPattern(c.N(), c.R())
	for _, cell := range cells {
		p.Set(cell.Col*c.R() + cell.Row)
	}
	return p
}

// TestPattern holds Pattern to a []bool model on ragged widths — 65 bits,
// one past a word; exactly 128; and 391, past 256 — through Set, Has,
// Union, Count, Clear and both iterations, which must yield the cells in
// (Col, Row) order. Patterns that differ only in their last word must get
// different cache keys.
func TestPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []struct{ n, r int }{{5, 13}, {8, 16}, {17, 23}} {
		size := g.n * g.r
		check := func(what string, p Pattern, model []bool) {
			t.Helper()
			var cells []Cell
			var idxs []int
			for i, in := range model {
				if p.Has(i) != in {
					t.Fatalf("%d×%d %s: Has(%d)=%t, want %t", g.n, g.r, what, i, !in, in)
				}
				if in {
					cells, idxs = append(cells, Cell{Col: i / g.r, Row: i % g.r}), append(idxs, i)
				}
			}
			if got := p.Count(); got != len(cells) {
				t.Fatalf("%d×%d %s: Count()=%d, want %d", g.n, g.r, what, got, len(cells))
			}
			var next []int
			for i := p.Next(0); i >= 0; i = p.Next(i + 1) {
				next = append(next, i)
			}
			if !slices.Equal(next, idxs) {
				t.Fatalf("%d×%d %s: Next yields %v, want %v", g.n, g.r, what, next, idxs)
			}
			got := p.AppendCells(nil)
			byColRow := func(a, b Cell) int { return cmp.Or(a.Col-b.Col, a.Row-b.Row) }
			if !slices.Equal(got, cells) || !slices.IsSortedFunc(got, byColRow) {
				t.Fatalf("%d×%d %s: AppendCells yields %v, want %v in (Col, Row) order", g.n, g.r, what, got, cells)
			}
		}
		p, q := NewPattern(g.n, g.r), NewPattern(g.n, g.r)
		pm, qm := make([]bool, size), make([]bool, size)
		check("empty", p, pm)
		for _, i := range append(rng.Perm(size)[:size/3], 0, size-1) {
			p.Set(i)
			pm[i] = true
		}
		for _, i := range append(rng.Perm(size)[:size/4], 63, 64) {
			q.Set(i)
			qm[i] = true
		}
		check("p", p, pm)
		check("q", q, qm)
		p.Union(q)
		for i := range pm {
			pm[i] = pm[i] || qm[i]
		}
		check("p ∪ q", p, pm)
		q.Clear()
		check("cleared", q, make([]bool, size))

		a, b := NewPattern(g.n, g.r), NewPattern(g.n, g.r)
		a.Set(0)
		b.Set(0)
		if string(a.appendKey(nil)) != string(b.appendKey(nil)) {
			t.Fatalf("%d×%d: equal patterns, different keys", g.n, g.r)
		}
		b.Set(size - 1)
		if size-1 < 64 || string(a.appendKey(nil)) == string(b.appendKey(nil)) {
			t.Fatalf("%d×%d: patterns differing in their last word have the same key", g.n, g.r)
		}
	}
}
