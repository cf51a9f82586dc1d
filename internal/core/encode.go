package core

// env builds the canonical-cell → sector mapping for one stripe, backing
// temporaries with pooled scratch memory. release returns the scratch to
// the pool.
func (c *Code) env(st *Stripe) (cells [][]byte, release func()) {
	if v := c.cellsPool.Get(); v != nil {
		cells = *(v.(*[][]byte))
	} else {
		cells = make([][]byte, c.rows*c.cols)
	}
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
	if c.tempCount == 0 {
		return cells, func() { c.releaseEnv(cells) }
	}
	need := c.tempCount * st.SectorSize
	var buf []byte
	if v := c.scratch.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= need {
			buf = b[:need]
		}
	}
	if buf == nil {
		buf = make([]byte, need)
	}
	for idx, slot := range c.tempSlot {
		if slot >= 0 {
			off := int(slot) * st.SectorSize
			cells[idx] = buf[off : off+st.SectorSize : off+st.SectorSize]
		}
	}
	return cells, func() {
		c.scratch.Put(&buf)
		c.releaseEnv(cells)
	}
}

// releaseEnv clears the environment (so pooled slabs are not pinned)
// and returns the cell vector to the pool.
func (c *Code) releaseEnv(cells [][]byte) {
	clear(cells)
	c.cellsPool.Put(&cells)
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
func (c *Code) Encode(st *Stripe) error { return c.EncodeParallel(st, MethodAuto, 1) }

// EncodeWith encodes with an explicit method. All three methods produce
// identical parity values (§5.1.3); they differ only in Mult_XOR count.
func (c *Code) EncodeWith(st *Stripe, m Method) error { return c.EncodeParallel(st, m, 1) }

// Verify re-encodes the stripe's data into pooled scratch and reports
// whether every stored parity cell matches. It is the scrub primitive
// used by the array simulator; the scratch stripe is recycled across
// calls so a volume-wide scrub does not clone every stripe it visits.
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
