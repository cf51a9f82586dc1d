package core

import "bytes"

// stripeEnv is the cell vector a plan runs over for one stripe under
// encode, repair or Verify, in environment order (see indexEnv), with the
// scratch memory backing its temporaries and, for Verify, the recomputed
// parity. Environments are pooled whole, so building one allocates
// nothing in steady state.
type stripeEnv struct {
	cells  [][]byte // envLen cells: the stripe's, its Globals, temporaries
	temps  []byte   // one sector per temporary
	parity []byte   // len(parityCells) × sectorSize, Verify only
}

// env builds the environment for st; the caller hands it back with
// releaseEnv once the plan has run. Plans number the stripe's cells as
// st.Cells does, so the mapping is two copies and the temporaries.
func (c *Code) env(st *Stripe) *stripeEnv {
	e := c.envScratch()
	base := copy(e.cells, st.Cells)
	base += copy(e.cells[base:], st.Globals)
	size := st.SectorSize
	if need := (c.envLen - base) * size; cap(e.temps) < need {
		e.temps = make([]byte, need)
	}
	for i := range e.cells[base:] {
		off := i * size
		e.cells[base+i] = e.temps[off : off+size : off+size]
	}
	return e
}

// envScratch takes an environment from the pool without mapping a
// stripe into it.
func (c *Code) envScratch() *stripeEnv {
	if e, ok := c.envPool.Get().(*stripeEnv); ok {
		return e
	}
	return &stripeEnv{cells: make([][]byte, c.envLen)}
}

// releaseEnv clears the mapping (so pooled slabs are not pinned) and
// returns the environment to the pool.
func (c *Code) releaseEnv(e *stripeEnv) {
	clear(e.cells)
	c.envPool.Put(e)
}

// Encode fills the stripe's parity cells (row parities plus inside global
// parities, or outside Globals) from its data cells, using the
// automatically selected cheapest method.
func (c *Code) Encode(st *Stripe) error { return c.EncodeWith(st, MethodAuto) }

// EncodeWith encodes with an explicit method. All three methods produce
// identical parity values (§5.1.3); they differ only in Mult_XOR count.
func (c *Code) EncodeWith(st *Stripe, m Method) error {
	if err := c.validateStripe(st); err != nil {
		return err
	}
	p, err := c.planFor(m)
	if err != nil {
		return err
	}
	e := c.env(st)
	defer c.releaseEnv(e)
	c.runPlan(p, e.cells, st.SectorSize)
	return nil
}

// Verify reports whether every stored parity cell matches the parity
// the stripe's data implies. It is the scrubber's check: the encode plan
// runs over the stripe's own data cells with every parity cell (Outside
// Globals included) redirected to the environment's pooled parity
// scratch, and each recomputed cell is compared with the stored one. The
// stripe is only read, and nothing is copied or allocated in steady
// state.
func (c *Code) Verify(st *Stripe) (bool, error) {
	if err := c.validateStripe(st); err != nil {
		return false, err
	}
	p, _ := c.planFor(MethodAuto)
	e := c.env(st)
	defer c.releaseEnv(e)
	// The plan overwrites every destination before reading it, so stale
	// scratch from an earlier stripe needs no clearing.
	size := st.SectorSize
	if need := len(c.parityCells) * size; cap(e.parity) < need {
		e.parity = make([]byte, need)
	}
	for i, idx := range c.parityCells {
		off := i * size
		e.cells[c.slot[idx]] = e.parity[off : off+size : off+size]
	}
	c.runPlan(p, e.cells, size)
	for _, idx := range c.parityCells {
		if !bytes.Equal(c.stored(st, idx), e.cells[c.slot[idx]]) {
			return false, nil
		}
	}
	return true, nil
}
