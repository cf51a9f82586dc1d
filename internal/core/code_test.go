package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// exemplary returns the paper's running example: n=8, r=4, m=2, e=(1,1,2)
// (Figure 2), with the requested placement.
func exemplary(t *testing.T, p Placement) *Code {
	t.Helper()
	c, err := New(Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, Placement: p})
	if err != nil {
		t.Fatalf("exemplary config: %v", err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"exemplary", Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}}, true},
		{"no sector tolerance", Config{N: 8, R: 4, M: 2}, true},
		{"m zero", Config{N: 4, R: 4, M: 0, E: []int{1}}, true},
		{"e equals r", Config{N: 6, R: 4, M: 1, E: []int{4}}, true},
		{"idr style", Config{N: 5, R: 4, M: 1, E: []int{2, 2, 2, 2}}, true},
		{"unsorted e ok", Config{N: 8, R: 4, M: 2, E: []int{2, 1, 1}}, true},
		{"outside", Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, Placement: Outside}, true},
		{"w16", Config{N: 8, R: 4, M: 2, E: []int{1, 2}, W: 16}, true},
		{"n too small", Config{N: 0, R: 4, M: 0}, false},
		{"r too small", Config{N: 4, R: 0, M: 1}, false},
		{"m negative", Config{N: 4, R: 4, M: -1}, false},
		{"m >= n", Config{N: 4, R: 4, M: 4}, false},
		{"e too long", Config{N: 4, R: 4, M: 2, E: []int{1, 1, 1}}, false},
		{"e element zero", Config{N: 8, R: 4, M: 2, E: []int{0, 1}}, false},
		{"e element > r", Config{N: 8, R: 4, M: 2, E: []int{5}}, false},
		{"bad w", Config{N: 8, R: 4, M: 2, E: []int{1}, W: 7}, false},
		{"w4 too small", Config{N: 20, R: 4, M: 2, E: []int{1}, W: 4}, false},
		{"huge for w8", Config{N: 300, R: 4, M: 2, E: []int{1}, W: 8}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if (err == nil) != tc.ok {
				t.Errorf("New(%+v) err=%v, want ok=%v", tc.cfg, err, tc.ok)
			}
		})
	}
}

func TestConfigNormalizationSortsE(t *testing.T) {
	c, err := New(Config{N: 8, R: 4, M: 2, E: []int{2, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	e := c.E()
	if e[0] != 1 || e[1] != 1 || e[2] != 2 {
		t.Errorf("E not sorted: %v", e)
	}
}

// TestParseE pins the one command-line form of the coverage vector. The
// empty string must parse to the empty vector and build the
// Reed-Solomon degeneration: `staird serve -e ""` used to be rejected
// while stairstore accepted it.
func TestParseE(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"", nil},
		{"1,1,2", []int{1, 1, 2}},
		{"1, 2,3", []int{1, 2, 3}},
	} {
		got, err := ParseE(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseE(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, tc := range []struct{ in, bad string }{
		{"1,x", `"x"`},
		{"1,,2", `""`},
		{"1,2.5", `"2.5"`},
	} {
		if _, err := ParseE(tc.in); err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("ParseE(%q) = %v; want an error naming the element %s", tc.in, err, tc.bad)
		}
	}
	e, err := ParseE("")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{N: 6, R: 4, M: 2, E: e})
	if err != nil {
		t.Fatalf("New with e=∅: %v", err)
	}
	if c.S() != 0 || c.NumDataCells() != 4*4 {
		t.Errorf("e=∅ built s=%d with %d data cells, want Reed-Solomon (0, 16)", c.S(), c.NumDataCells())
	}
}

func TestAutoFieldSelection(t *testing.T) {
	small, err := New(Config{N: 8, R: 16, M: 1, E: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if small.Field().W() != 8 {
		t.Errorf("small config chose w=%d, want 8", small.Field().W())
	}
	big, err := New(Config{N: 260, R: 4, M: 1, E: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if big.Field().W() != 16 {
		t.Errorf("big config chose w=%d, want 16", big.Field().W())
	}
}

func TestDerivedParameters(t *testing.T) {
	c := exemplary(t, Inside)
	if c.MPrime() != 3 || c.S() != 4 {
		t.Errorf("m'=%d s=%d, want 3, 4", c.MPrime(), c.S())
	}
	if c.rows != 6 || c.cols != 11 {
		t.Errorf("canonical grid %dx%d, want 6x11", c.rows, c.cols)
	}
	// Crow=(11,6), Ccol=(6,4) per §3: the grid above is their η.
	if c.crow.Kappa() != 6 || c.ccol.Kappa() != 4 {
		t.Errorf("Crow κ=%d, Ccol κ=%d, want 6, 4", c.crow.Kappa(), c.ccol.Kappa())
	}
}

func TestNumDataCells(t *testing.T) {
	in := exemplary(t, Inside)
	// r(n−m) − s = 4·6 − 4 = 20 data cells inside.
	if got := in.NumDataCells(); got != 20 {
		t.Errorf("inside data cells = %d, want 20", got)
	}
	out := exemplary(t, Outside)
	// Outside keeps all 24 data cells; globals live outside.
	if got := out.NumDataCells(); got != 24 {
		t.Errorf("outside data cells = %d, want 24", got)
	}
	if len(out.parityCells) != 2*4+4 {
		t.Errorf("outside parity cells = %d, want 12", len(out.parityCells))
	}
}

// costUpstairsFormula is paper Eq. 5.
func costUpstairsFormula(n, r, m, s, eMax int) int {
	return (n-m)*(m*r+s) + r*(n-m)*eMax
}

// costDownstairsFormula is paper Eq. 6.
func costDownstairsFormula(n, r, m, mPrime, s int) int {
	return (n-m)*(m+mPrime)*r + r*s
}

func sum(e []int) int {
	t := 0
	for _, v := range e {
		t += v
	}
	return t
}

func maxOf(e []int) int {
	m := 0
	for _, v := range e {
		if v > m {
			m = v
		}
	}
	return m
}

// TestCostFormulas pins the schedule Mult_XOR counts to the paper's
// closed forms (Eqs. 5 and 6) across a parameter sweep, for both
// placements.
func TestCostFormulas(t *testing.T) {
	type cfg struct {
		n, r, m int
		e       []int
	}
	cases := []cfg{
		{8, 4, 2, []int{1, 1, 2}},
		{8, 8, 2, []int{4}},
		{8, 8, 2, []int{1, 3}},
		{8, 8, 2, []int{2, 2}},
		{8, 8, 2, []int{1, 1, 2}},
		{8, 8, 2, []int{1, 1, 1, 1}},
		{16, 16, 1, []int{1, 2}},
		{16, 16, 3, []int{2, 3}},
		{6, 4, 1, []int{4}},
		{5, 4, 0, []int{1, 2}},
		{9, 5, 2, []int{1}},
		{6, 6, 2, []int{2, 2, 2, 2}},
		{8, 4, 2, nil},
	}
	for _, tc := range cases {
		for _, p := range []Placement{Inside, Outside} {
			name := fmt.Sprintf("n%d r%d m%d e%v %v", tc.n, tc.r, tc.m, tc.e, p)
			t.Run(name, func(t *testing.T) {
				c, err := New(Config{N: tc.n, R: tc.r, M: tc.m, E: tc.e, Placement: p})
				if err != nil {
					t.Fatal(err)
				}
				s, eMax := sum(tc.e), maxOf(tc.e)
				wantUp := costUpstairsFormula(tc.n, tc.r, tc.m, s, eMax)
				wantDown := costDownstairsFormula(tc.n, tc.r, tc.m, len(tc.e), s)
				if got := c.Cost(MethodUpstairs); got != wantUp {
					t.Errorf("upstairs cost = %d, want %d (Eq. 5)", got, wantUp)
				}
				if got := c.Cost(MethodDownstairs); got != wantDown {
					t.Errorf("downstairs cost = %d, want %d (Eq. 6)", got, wantDown)
				}
				if c.Cost(MethodStandard) <= 0 && tc.m+len(tc.e) > 0 {
					t.Error("standard cost should be positive")
				}
				chosen := c.Cost(MethodAuto)
				for _, m := range []Method{MethodUpstairs, MethodDownstairs, MethodStandard} {
					if c.Cost(m) < chosen {
						t.Errorf("auto method %v (cost %d) beaten by %v (cost %d)",
							c.Method(), chosen, m, c.Cost(m))
					}
				}
			})
		}
	}
}

// TestFig9CostShape verifies the qualitative claims of Figure 9 for
// n=8, m=2, s=4: parity reuse beats standard encoding, upstairs cost
// grows with e_max, downstairs cost grows with m'.
func TestFig9CostShape(t *testing.T) {
	es := [][]int{{4}, {1, 3}, {2, 2}, {1, 1, 2}, {1, 1, 1, 1}}
	for _, r := range []int{8, 16, 24, 32} {
		var prevUpEmax, prevUp int
		var prevDownMPrime, prevDown int
		for _, e := range es {
			c, err := New(Config{N: 8, R: r, M: 2, E: e})
			if err != nil {
				t.Fatal(err)
			}
			up, down, std := c.Cost(MethodUpstairs), c.Cost(MethodDownstairs), c.Cost(MethodStandard)
			if best := min(up, down); best > std {
				t.Errorf("r=%d e=%v: reuse methods (%d) worse than standard (%d)", r, e, best, std)
			}
			if prevUp != 0 && maxOf(e) > prevUpEmax && up < prevUp {
				// For fixed s, upstairs cost is monotone in e_max
				// (Eq. 5 depends on e only through e_max)... but the
				// list is ordered by decreasing e_max, so check the
				// opposite direction below instead.
				_ = up
			}
			if prevDown != 0 && len(e) > prevDownMPrime && down < prevDown {
				t.Errorf("r=%d: downstairs cost decreased while m' grew: %d -> %d", r, prevDown, down)
			}
			prevUpEmax, prevUp = maxOf(e), up
			prevDownMPrime, prevDown = len(e), down
		}
		// e=(4) has the largest e_max, e=(1,1,1,1) the smallest: upstairs
		// must be monotone non-increasing across the list.
		first, _ := New(Config{N: 8, R: r, M: 2, E: []int{4}})
		last, _ := New(Config{N: 8, R: r, M: 2, E: []int{1, 1, 1, 1}})
		if first.Cost(MethodUpstairs) < last.Cost(MethodUpstairs) {
			t.Errorf("r=%d: upstairs cost should grow with e_max", r)
		}
		if first.Cost(MethodDownstairs) > last.Cost(MethodDownstairs) {
			t.Errorf("r=%d: downstairs cost should grow with m'", r)
		}
	}
}

func TestMethodSelectionMatchesCostOrder(t *testing.T) {
	// When m' is small, downstairs should win; when m' is large,
	// upstairs should win (§5.3 discussion).
	small, err := New(Config{N: 8, R: 16, M: 2, E: []int{4}}) // m'=1
	if err != nil {
		t.Fatal(err)
	}
	if small.Method() != MethodDownstairs {
		t.Errorf("m'=1: chose %v (up=%d down=%d std=%d), want downstairs",
			small.Method(), small.Cost(MethodUpstairs), small.Cost(MethodDownstairs), small.Cost(MethodStandard))
	}
	large, err := New(Config{N: 8, R: 16, M: 2, E: []int{1, 1, 1, 1}}) // m'=4
	if err != nil {
		t.Fatal(err)
	}
	if large.Method() != MethodUpstairs {
		t.Errorf("m'=4: chose %v (up=%d down=%d std=%d), want upstairs",
			large.Method(), large.Cost(MethodUpstairs), large.Cost(MethodDownstairs), large.Cost(MethodStandard))
	}
}

func TestStorageEfficiency(t *testing.T) {
	// Paper §7.2: n=8, r=16, m=1, E = (112−s)/128.
	for s := 0; s <= 6; s++ {
		got := StorageEfficiency(8, 16, 1, s)
		want := float64(112-s) / 128
		if got != want {
			t.Errorf("s=%d: efficiency %v, want %v", s, got, want)
		}
	}
	c := exemplary(t, Inside)
	if got, want := c.StorageEfficiency(), float64(4*6-4)/float64(4*8); got != want {
		t.Errorf("exemplary efficiency %v, want %v", got, want)
	}
}

func TestSpaceSavingDevices(t *testing.T) {
	// §6.1: saving = m' − s/r devices; §2 example: e=(1,4), r arbitrary.
	if got := SpaceSavingDevices([]int{1, 4}, 4); got != 2-5.0/4 {
		t.Errorf("saving = %v", got)
	}
	// As r→∞ the saving approaches m'.
	if got := SpaceSavingDevices([]int{1, 1, 1, 1}, 1024); got <= 3.9 {
		t.Errorf("saving %v should approach m'=4", got)
	}
}

// TestSection2IDRComparison pins the worked example of §2: for n=8, m=2,
// β=4, the IDR scheme spends 24 redundant sectors per stripe while STAIR
// with e=(1,4) spends five.
func TestSection2IDRComparison(t *testing.T) {
	idrRedundant := 4 * 6 // β × (n−m)
	stairRedundant := sum([]int{1, 4})
	if idrRedundant != 24 || stairRedundant != 5 {
		t.Errorf("IDR=%d (want 24), STAIR=%d (want 5)", idrRedundant, stairRedundant)
	}
	// And the config must actually construct.
	if _, err := New(Config{N: 8, R: 8, M: 2, E: []int{1, 4}}); err != nil {
		t.Errorf("e=(1,4) config rejected: %v", err)
	}
}

func TestCellClassification(t *testing.T) {
	c := exemplary(t, Inside)
	cases := []struct {
		cell Cell
		want CellClass
	}{
		{Cell{Col: 0, Row: 0}, ClassData},
		{Cell{Col: 5, Row: 0}, ClassData},
		{Cell{Col: 3, Row: 3}, ClassGlobalParity}, // ĝ0,0
		{Cell{Col: 4, Row: 3}, ClassGlobalParity}, // ĝ0,1
		{Cell{Col: 5, Row: 2}, ClassGlobalParity}, // ĝ0,2
		{Cell{Col: 5, Row: 3}, ClassGlobalParity}, // ĝ1,2
		{Cell{Col: 5, Row: 1}, ClassData},
		{Cell{Col: 6, Row: 0}, ClassRowParity},
		{Cell{Col: 7, Row: 3}, ClassRowParity},
	}
	for _, tc := range cases {
		got, err := c.Class(tc.cell)
		if err != nil {
			t.Fatalf("Class(%v): %v", tc.cell, err)
		}
		if got != tc.want {
			t.Errorf("Class(%v) = %v, want %v", tc.cell, got, tc.want)
		}
	}
	if _, err := c.Class(Cell{Col: 8, Row: 0}); err == nil {
		t.Error("out-of-range cell accepted")
	}
	// Outside placement has no stair cells.
	out := exemplary(t, Outside)
	if got, _ := out.Class(Cell{Col: 5, Row: 3}); got != ClassData {
		t.Errorf("outside (5,3) = %v, want data", got)
	}
}

func TestCellNames(t *testing.T) {
	c := exemplary(t, Inside)
	cases := []struct {
		row, col int
		want     string
	}{
		{0, 0, "d0,0"},
		{3, 3, "ĝ0,0"},
		{2, 5, "ĝ0,2"},
		{0, 6, "p0,0"},
		{3, 7, "p3,1"},
		{1, 8, "p'1,0"},
		{4, 0, "d*0,0"},
		{5, 6, "p*1,0"},
		{4, 8, "g0,0"},
		{5, 8, "dummy"},
		{5, 10, "g1,2"},
	}
	for _, tc := range cases {
		if got := c.CellName(tc.row, tc.col); got != tc.want {
			t.Errorf("CellName(%d,%d) = %q, want %q", tc.row, tc.col, got, tc.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if MethodUpstairs.String() != "upstairs" || MethodDownstairs.String() != "downstairs" ||
		MethodStandard.String() != "standard" || MethodAuto.String() != "auto" {
		t.Error("Method.String wrong")
	}
	if Method(99).String() == "" || Placement(99).String() == "" {
		t.Error("unknown enum should render")
	}
	if Inside.String() != "inside" || Outside.String() != "outside" {
		t.Error("Placement.String wrong")
	}
	cfg := Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, W: 8}
	if cfg.String() == "" {
		t.Error("Config.String empty")
	}
	if (Cell{Col: 1, Row: 2}).String() != "(1,2)" {
		t.Error("Cell.String wrong")
	}
	for _, cc := range []CellClass{ClassData, ClassRowParity, ClassGlobalParity, CellClass(9)} {
		if cc.String() == "" {
			t.Error("CellClass.String empty")
		}
	}
}
