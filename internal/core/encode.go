package core

// stripeEnv is the canonical-cell → sector mapping of one stripe under
// encode or repair, with the scratch memory backing its temporaries.
// Environments are pooled whole, so building one allocates nothing in
// steady state.
type stripeEnv struct {
	cells [][]byte // rows × cols, indexed by cellIdx
	temps []byte   // tempCount × sectorSize
}

// env builds the environment for st; the caller hands it back with
// releaseEnv once the plan has run.
func (c *Code) env(st *Stripe) *stripeEnv {
	e, _ := c.envPool.Get().(*stripeEnv)
	if e == nil {
		e = &stripeEnv{cells: make([][]byte, c.rows*c.cols)}
	}
	cells := e.cells
	for col := 0; col < c.n; col++ {
		for row := 0; row < c.r; row++ {
			cells[c.cellIdx(row, col)] = st.Cells[col*c.r+row]
		}
	}
	if c.placement == Outside {
		for l := 0; l < c.mPrime; l++ {
			for h := 0; h < c.e[l]; h++ {
				cells[c.cellIdx(c.r+h, c.n+l)] = st.Globals[c.globalOrd(l, h)]
			}
		}
	}
	if need := c.tempCount * st.SectorSize; cap(e.temps) < need {
		e.temps = make([]byte, need)
	}
	for idx, slot := range c.tempSlot {
		if slot >= 0 {
			off := int(slot) * st.SectorSize
			cells[idx] = e.temps[off : off+st.SectorSize : off+st.SectorSize]
		}
	}
	return e
}

// releaseEnv clears the mapping (so pooled slabs are not pinned) and
// returns the environment to the pool.
func (c *Code) releaseEnv(e *stripeEnv) {
	clear(e.cells)
	c.envPool.Put(e)
}

// acquireScratchStripe returns a pooled whole-stripe scratch. Contents
// are unspecified; the caller must overwrite every cell it reads. The
// sector size is already validated by the caller's validateStripe.
func (c *Code) acquireScratchStripe(sectorSize int) *Stripe {
	if v := c.stripePool.Get(); v != nil {
		if sc := v.(*Stripe); sc.SectorSize == sectorSize {
			return sc
		}
	}
	sc, _ := c.NewStripe(sectorSize)
	return sc
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
	c.runPlan(p, e.cells)
	return nil
}

// Verify re-encodes the stripe's data into pooled scratch and reports
// whether every stored parity cell matches. It is the scrubber's check;
// the scratch stripe is recycled across calls so a volume-wide scrub
// does not clone every stripe it visits.
func (c *Code) Verify(st *Stripe) (bool, error) {
	if err := c.validateStripe(st); err != nil {
		return false, err
	}
	clone := c.acquireScratchStripe(st.SectorSize)
	defer c.stripePool.Put(clone)
	// Only the data cells feed the re-encode; Encode overwrites every
	// parity cell, so stale scratch contents are harmless.
	for _, idx := range c.dataCells {
		row, col := c.cellRC(idx)
		copy(clone.Sector(col, row), st.Sector(col, row))
	}
	if err := c.Encode(clone); err != nil {
		return false, err
	}
	for _, idx := range c.parityCells {
		row, col := c.cellRC(idx)
		var got, want []byte
		if l, h, ok := c.globalOf(row, col); ok {
			got = st.Globals[c.globalOrd(l, h)]
			want = clone.Globals[c.globalOrd(l, h)]
		} else {
			got = st.Sector(col, row)
			want = clone.Sector(col, row)
		}
		for i := range got {
			if got[i] != want[i] {
				return false, nil
			}
		}
	}
	return true, nil
}
