package core

import (
	"fmt"
	"sync"

	"stair/internal/gf"
	"stair/internal/rs"
)

// Method identifies an encoding method (§5.1, §5.3).
type Method int

const (
	// MethodAuto selects the method with the fewest Mult_XORs, the
	// policy the paper's implementation uses (§5.3).
	MethodAuto Method = iota
	// MethodUpstairs encodes bottom-to-top via recovery (§5.1.1).
	MethodUpstairs
	// MethodDownstairs encodes top-to-bottom, right-to-left (§5.1.2).
	MethodDownstairs
	// MethodStandard computes each parity symbol directly as a linear
	// combination of data symbols, with no parity reuse (§5.3). This is
	// how the SD-code comparator encodes.
	MethodStandard
)

func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodUpstairs:
		return "upstairs"
	case MethodDownstairs:
		return "downstairs"
	case MethodStandard:
		return "standard"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// parityRef links a data cell to one parity cell it contributes to.
type parityRef struct {
	cell  int32 // canonical index of the parity cell
	coeff uint32
}

// Code is a compiled STAIR code instance. It is immutable after New and
// safe for concurrent use by multiple goroutines.
type Code struct {
	cfg Config

	n, r, m   int
	e         []int
	mPrime    int
	s         int
	eMax      int
	rows      int // canonical rows: r + eMax
	cols      int // canonical cols: n + m'
	placement Placement

	f    *gf.Field
	crow *rs.Code // (n+m', n−m), applied to rows
	ccol *rs.Code // (r+e_max, r), applied to columns

	// dataCells lists canonical indices of data cells in column-major
	// order; dataOrd maps canonical index → ordinal (or -1).
	dataCells []int
	dataOrd   []int
	// parityCells lists canonical indices of all parity targets: row
	// parity cells, then inside stair cells (Inside) or corner globals
	// (Outside).
	parityCells []int

	upSched   *schedule
	downSched *schedule
	stdSched  *schedule
	method    Method // resolved (never MethodAuto)

	// Source-major fused plans compiled from the schedules above (see
	// plan.go).
	upPlan   *plan
	downPlan *plan
	stdPlan  *plan

	// dataDeps[ord] lists the parity cells affected by data cell ord,
	// derived from the standard-encoding generator (§5.2 uneven parity
	// relations). Used by Update and the update-penalty analysis.
	dataDeps [][]parityRef
	// updPlans[ord] is data cell ord's compiled parity patch (see
	// compileUpdates).
	updPlans []plan

	// slot maps canonical index → environment index, the cell numbering
	// plans run over (see indexEnv); envLen is the environment's length.
	slot   []int32
	envLen int

	envPool sync.Pool // *stripeEnv: cell mapping, temporaries and Verify's parity scratch

	decodeMu               sync.Mutex
	decodeCache, decodeOld map[string]*plan // peel plans, young and old (see cachePlan)

	// rowSolves holds the row-local repairs by lost-column set (see
	// rowlocal.go); entries are never evicted.
	rowMu     sync.Mutex
	rowSolves map[string]*rowSolve
}

// New compiles a STAIR code for the given configuration.
func New(cfg Config) (*Code, error) {
	norm, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	c := &Code{
		cfg:       norm,
		n:         norm.N,
		r:         norm.R,
		m:         norm.M,
		e:         norm.E,
		mPrime:    norm.MPrime(),
		s:         norm.S(),
		eMax:      norm.EMax(),
		placement: norm.Placement,
		f:         norm.field(),
	}
	c.rows = c.r + c.eMax
	c.cols = c.n + c.mPrime

	c.crow, err = rs.New(c.f, c.n+c.mPrime, c.n-c.m, rs.Cauchy)
	if err != nil {
		return nil, fmt.Errorf("core: building Crow: %w", err)
	}
	c.ccol, err = rs.New(c.f, c.r+c.eMax, c.r, rs.Cauchy)
	if err != nil {
		return nil, fmt.Errorf("core: building Ccol: %w", err)
	}

	c.indexCells()
	if err := c.buildEncodeSchedules(); err != nil {
		return nil, err
	}
	c.buildStandardSchedule()
	c.chooseMethod()
	c.indexEnv()
	c.upPlan = c.compilePlan(c.upSched)
	c.downPlan = c.compilePlan(c.downSched)
	c.stdPlan = c.compilePlan(c.stdSched)
	c.compileUpdates()
	c.decodeCache = make(map[string]*plan)
	c.rowSolves = make(map[string]*rowSolve)
	return c, nil
}

// indexCells enumerates data and parity cells of the real stripe (plus
// outside globals when applicable).
func (c *Code) indexCells() {
	c.dataOrd = make([]int, c.rows*c.cols)
	for i := range c.dataOrd {
		c.dataOrd[i] = -1
	}
	// Data cells, column-major over the data area.
	for col := 0; col < c.n-c.m; col++ {
		for row := 0; row < c.r; row++ {
			if c.classOf(row, col) != ClassData {
				continue
			}
			idx := c.cellIdx(row, col)
			c.dataOrd[idx] = len(c.dataCells)
			c.dataCells = append(c.dataCells, idx)
		}
	}
	// Row parity cells.
	for col := c.n - c.m; col < c.n; col++ {
		for row := 0; row < c.r; row++ {
			c.parityCells = append(c.parityCells, c.cellIdx(row, col))
		}
	}
	// Global parity cells.
	if c.placement == Inside {
		for l := 0; l < c.mPrime; l++ {
			col := c.n - c.m - c.mPrime + l
			for h := 0; h < c.e[l]; h++ {
				c.parityCells = append(c.parityCells, c.cellIdx(c.r-c.e[l]+h, col))
			}
		}
	} else {
		for l := 0; l < c.mPrime; l++ {
			for h := 0; h < c.e[l]; h++ {
				c.parityCells = append(c.parityCells, c.cellIdx(c.r+h, c.n+l))
			}
		}
	}
}

// seedEncodeKnowns marks the cells known before encoding begins: data
// cells, and for Inside placement the zeroed outside global positions.
func (c *Code) seedEncodeKnowns(p *peeler) {
	for _, idx := range c.dataCells {
		p.known[idx] = true
	}
	if c.placement == Inside {
		for l := 0; l < c.mPrime; l++ {
			for h := 0; h < c.e[l]; h++ {
				p.markKnown(c.r+h, c.n+l, true)
			}
		}
	}
}

// deferParityChunks marks the m row-parity chunks as deferred: during
// encoding they play the role of the m failed chunks of upstairs decoding
// (§5.1.1) and are generated row by row at the end.
func (c *Code) deferParityChunks(p *peeler) {
	for col := c.n - c.m; col < c.n; col++ {
		p.deferred[col] = true
	}
}

func (c *Code) buildEncodeSchedules() error {
	up := newPeeler(c)
	c.seedEncodeKnowns(up)
	c.deferParityChunks(up)
	if err := up.upstairs(c.parityCells); err != nil {
		return err
	}
	if !up.allKnown(c.parityCells) {
		return fmt.Errorf("core: internal error: upstairs encoding stalled for %v", c.cfg)
	}
	up.sched.prune(c.parityCells, c.rows*c.cols)
	c.upSched = up.sched

	down := newPeeler(c)
	c.seedEncodeKnowns(down)
	c.deferParityChunks(down)
	if err := down.downstairs(c.parityCells); err != nil {
		return err
	}
	if !down.allKnown(c.parityCells) {
		return fmt.Errorf("core: internal error: downstairs encoding stalled for %v", c.cfg)
	}
	down.sched.prune(c.parityCells, c.rows*c.cols)
	c.downSched = down.sched
	return nil
}

// buildStandardSchedule derives, by symbolic execution of the upstairs
// schedule, each parity cell as a direct linear combination of data cells
// (the classical Reed-Solomon-style encoding of §5.3). The same
// coefficients give the uneven parity relations of §5.2, stored
// transposed in dataDeps for Update.
func (c *Code) buildStandardSchedule() {
	d := len(c.dataCells)
	vecs := make([][]uint32, c.rows*c.cols)
	for ord, idx := range c.dataCells {
		v := make([]uint32, d)
		v[ord] = 1
		vecs[idx] = v
	}
	for i := range c.upSched.ops {
		o := &c.upSched.ops[i]
		v := make([]uint32, d)
		for _, t := range o.terms {
			sv := vecs[t.src]
			for j, x := range sv {
				if x != 0 {
					v[j] ^= c.f.Mul(t.coeff, x)
				}
			}
		}
		vecs[o.dst] = v
	}
	sch := &schedule{}
	c.dataDeps = make([][]parityRef, d)
	for _, pidx := range c.parityCells {
		v := vecs[pidx]
		o := op{dst: int32(pidx), event: -1}
		for ord, coeff := range v {
			if coeff == 0 {
				continue
			}
			o.terms = append(o.terms, term{src: int32(c.dataCells[ord]), coeff: coeff})
			c.dataDeps[ord] = append(c.dataDeps[ord], parityRef{cell: int32(pidx), coeff: coeff})
		}
		// The paper's standard-encoding cost (§5.3) counts the data
		// symbols contributing to each parity symbol.
		o.width = int32(len(o.terms))
		sch.ops = append(sch.ops, o)
	}
	sch.recount()
	c.stdSched = sch
}

// chooseMethod picks the encoding method with the fewest model Mult_XORs,
// matching the paper's implementation policy (§5.3). Ties prefer the
// reuse-based methods.
func (c *Code) chooseMethod() {
	c.method = MethodUpstairs
	best := c.upSched.modelCost
	if c.downSched.modelCost < best {
		c.method, best = MethodDownstairs, c.downSched.modelCost
	}
	if c.stdSched.modelCost < best {
		c.method = MethodStandard
	}
}

// indexEnv numbers the canonical cells in environment order, the order
// of stripeEnv.cells: the n·r real cells chunk-major (col·r + row), as
// Stripe.Cells holds them, then with Outside placement the stored
// globals in Stripe.Globals order, then one scratch slot per cell not
// backed by stripe memory (intermediate parities, virtual parities,
// dummy globals). Inside placement's corner globals are known-zero
// constants no op reads; they map to -1.
func (c *Code) indexEnv() {
	c.slot = make([]int32, c.rows*c.cols)
	next := int32(c.n * c.r)
	if c.placement == Outside {
		next += int32(c.s)
	}
	for row := 0; row < c.rows; row++ {
		for col := 0; col < c.cols; col++ {
			idx := c.cellIdx(row, col)
			if l, h, ok := c.globalOf(row, col); ok {
				c.slot[idx] = -1
				if c.placement == Outside {
					c.slot[idx] = int32(c.n*c.r + c.globalOrd(l, h))
				}
			} else if c.isReal(row, col) {
				c.slot[idx] = int32(col*c.r + row)
			} else {
				c.slot[idx] = next
				next++
			}
		}
	}
	c.envLen = int(next)
}

// Config returns the normalized configuration.
func (c *Code) Config() Config { return c.cfg }

// Field returns the Galois field in use.
func (c *Code) Field() *gf.Field { return c.f }

// KernelName reports which GF region kernel this code's Mult_XOR
// schedules dispatch to (internal/gf runtime CPU dispatch, overridable
// with STAIR_GF_KERNEL) — the single biggest factor in encode/decode
// throughput, recorded alongside benchmark numbers.
func (c *Code) KernelName() string { return c.f.KernelName() }

// N returns the number of chunks per stripe.
func (c *Code) N() int { return c.n }

// R returns the number of sectors per chunk.
func (c *Code) R() int { return c.r }

// M returns the number of tolerated whole-chunk failures.
func (c *Code) M() int { return c.m }

// E returns the (sorted) sector-failure coverage vector.
func (c *Code) E() []int { return append([]int{}, c.e...) }

// S returns the total number of tolerated sector failures, Σ E.
func (c *Code) S() int { return c.s }

// MPrime returns m', the number of chunks that may have sector failures.
func (c *Code) MPrime() int { return c.mPrime }

// Method returns the encoding method chosen by cost comparison.
func (c *Code) Method() Method { return c.method }

// Cost returns the model Mult_XOR count per stripe of the given encoding
// method, using the paper's §5.3 accounting (one Mult_XOR per input of
// each symbol generation). For upstairs and downstairs encoding this
// equals the paper's Eq. 5 and Eq. 6 exactly; it is the quantity of
// Figure 9. MethodAuto returns the cost of the chosen method.
func (c *Code) Cost(m Method) int {
	switch m {
	case MethodUpstairs:
		return c.upSched.modelCost
	case MethodDownstairs:
		return c.downSched.modelCost
	case MethodStandard:
		return c.stdSched.modelCost
	default:
		return c.Cost(c.method)
	}
}

// CostActual returns the number of Mult_XORs the compiled schedule really
// executes. It never exceeds Cost(m): multiplications by zero matrix
// coefficients and by the zeroed outside global parities are elided.
func (c *Code) CostActual(m Method) int {
	switch m {
	case MethodUpstairs:
		return c.upSched.actualCost
	case MethodDownstairs:
		return c.downSched.actualCost
	case MethodStandard:
		return c.stdSched.actualCost
	default:
		return c.CostActual(c.method)
	}
}

// DataCells returns the cells a caller must fill before Encode, in the
// order used by DataCellAt.
func (c *Code) DataCells() []Cell {
	out := make([]Cell, len(c.dataCells))
	for i, idx := range c.dataCells {
		row, col := c.cellRC(idx)
		out[i] = Cell{Col: col, Row: row}
	}
	return out
}

// ParityCells returns the cells Encode fills. For Outside placement the
// s global parities live outside the stripe and are reported with
// Col == N + l, Row == h (matching the Globals layout of Stripe).
func (c *Code) ParityCells() []Cell {
	out := make([]Cell, 0, len(c.parityCells))
	for _, idx := range c.parityCells {
		row, col := c.cellRC(idx)
		if l, h, ok := c.globalOf(row, col); ok {
			out = append(out, Cell{Col: c.n + l, Row: h})
			continue
		}
		out = append(out, Cell{Col: col, Row: row})
	}
	return out
}

// NumDataCells returns the number of data sectors per stripe,
// r·(n−m) − s for Inside placement and r·(n−m) for Outside.
func (c *Code) NumDataCells() int { return len(c.dataCells) }

// Class reports what the given real stripe cell stores.
func (c *Code) Class(cell Cell) (CellClass, error) {
	if cell.Col < 0 || cell.Col >= c.n || cell.Row < 0 || cell.Row >= c.r {
		return 0, fmt.Errorf("core: cell %v out of range (n=%d, r=%d)", cell, c.n, c.r)
	}
	return c.classOf(cell.Row, cell.Col), nil
}

// StorageEfficiency returns the fraction of stripe capacity holding user
// data (paper Eq. 8): (r·(n−m) − s) / (r·n).
func (c *Code) StorageEfficiency() float64 {
	return StorageEfficiency(c.n, c.r, c.m, c.s)
}

// StorageEfficiency computes paper Eq. 8 for arbitrary parameters.
// Setting s = 0 gives the Reed-Solomon efficiency; SD codes with the same
// s have identical efficiency.
func StorageEfficiency(n, r, m, s int) float64 {
	return float64(r*(n-m)-s) / float64(r*n)
}

// SpaceSavingDevices returns how many devices a STAIR code saves over a
// traditional erasure code covering the same failures with m+m' parity
// chunks: m' − s/r (§6.1, Figure 10).
func SpaceSavingDevices(e []int, r int) float64 {
	s := 0
	for _, v := range e {
		s += v
	}
	return float64(len(e)) - float64(s)/float64(r)
}
