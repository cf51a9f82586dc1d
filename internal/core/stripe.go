package core

import "fmt"

// Stripe holds the sector payloads of one stripe: N chunks of R sectors,
// each SectorSize bytes. With Outside placement it additionally carries
// the s global parity sectors in Globals, ordered (l = 0..m'-1, h =
// 0..e_l-1).
//
// Cells are stored chunk-major: sector (col, row) is Cells[col*R+row].
type Stripe struct {
	N, R       int
	SectorSize int
	Cells      [][]byte
	Globals    [][]byte
}

// NewStripe allocates a zeroed stripe matching the code's geometry.
// sectorSize must be positive and a multiple of the field's symbol width
// (2 bytes for GF(2^16), 1 otherwise).
func (c *Code) NewStripe(sectorSize int) (*Stripe, error) {
	if sectorSize <= 0 || sectorSize%c.f.SymbolBytes() != 0 {
		return nil, fmt.Errorf("core: sector size %d must be a positive multiple of %d", sectorSize, c.f.SymbolBytes())
	}
	return c.StripeOver(make([]byte, c.SlabSize(sectorSize)), sectorSize)
}

// SlabSize returns the byte length of the contiguous slab backing one
// stripe's cells: n·r sectors, chunk-major.
func (c *Code) SlabSize(sectorSize int) int { return c.n * c.r * sectorSize }

// StripeOver builds a stripe view over a caller-owned slab of exactly
// SlabSize(sectorSize) bytes, chunk-major: cell (col, row) occupies
// backing[(col·R+row)·sectorSize : ...]. Cells are sliced without a
// capacity cap, so consumers can detect that the R rows of one chunk
// tile a contiguous region of the slab and elide scratch copies (the
// store's flat-span device fast paths). The caller keeps ownership of
// backing: a pooled slab must stay alive — and unreleased — for the
// stripe's whole lifetime.
func (c *Code) StripeOver(backing []byte, sectorSize int) (*Stripe, error) {
	if sectorSize <= 0 || sectorSize%c.f.SymbolBytes() != 0 {
		return nil, fmt.Errorf("core: sector size %d must be a positive multiple of %d", sectorSize, c.f.SymbolBytes())
	}
	if len(backing) != c.SlabSize(sectorSize) {
		return nil, fmt.Errorf("core: slab is %d bytes, want %d", len(backing), c.SlabSize(sectorSize))
	}
	st := &Stripe{N: c.n, R: c.r, SectorSize: sectorSize}
	st.Cells = make([][]byte, c.n*c.r)
	for i := range st.Cells {
		st.Cells[i] = backing[i*sectorSize : (i+1)*sectorSize]
	}
	if c.placement == Outside {
		gBacking := make([]byte, c.s*sectorSize)
		st.Globals = make([][]byte, c.s)
		for i := range st.Globals {
			st.Globals[i] = gBacking[i*sectorSize : (i+1)*sectorSize]
		}
	}
	return st, nil
}

// Sector returns the payload of cell (col, row).
func (st *Stripe) Sector(col, row int) []byte { return st.Cells[col*st.R+row] }

// Clone returns a deep copy of the stripe.
func (st *Stripe) Clone() *Stripe {
	c := &Stripe{N: st.N, R: st.R, SectorSize: st.SectorSize}
	c.Cells = make([][]byte, len(st.Cells))
	for i, s := range st.Cells {
		c.Cells[i] = append([]byte{}, s...)
	}
	if st.Globals != nil {
		c.Globals = make([][]byte, len(st.Globals))
		for i, s := range st.Globals {
			c.Globals[i] = append([]byte{}, s...)
		}
	}
	return c
}

// validateStripe checks a caller-supplied stripe against the code.
func (c *Code) validateStripe(st *Stripe) error {
	if st == nil {
		return fmt.Errorf("core: nil stripe")
	}
	if st.N != c.n || st.R != c.r {
		return fmt.Errorf("core: stripe geometry %dx%d does not match code %dx%d", st.N, st.R, c.n, c.r)
	}
	if len(st.Cells) != c.n*c.r {
		return fmt.Errorf("core: stripe has %d cells, want %d", len(st.Cells), c.n*c.r)
	}
	if st.SectorSize <= 0 || st.SectorSize%c.f.SymbolBytes() != 0 {
		return fmt.Errorf("core: sector size %d must be a positive multiple of %d", st.SectorSize, c.f.SymbolBytes())
	}
	for i, s := range st.Cells {
		if len(s) != st.SectorSize {
			return fmt.Errorf("core: cell %d has %d bytes, want %d", i, len(s), st.SectorSize)
		}
	}
	if c.placement == Outside {
		if len(st.Globals) != c.s {
			return fmt.Errorf("core: stripe has %d global sectors, want %d", len(st.Globals), c.s)
		}
		for i, s := range st.Globals {
			if len(s) != st.SectorSize {
				return fmt.Errorf("core: global sector %d has %d bytes, want %d", i, len(s), st.SectorSize)
			}
		}
	} else if len(st.Globals) != 0 {
		return fmt.Errorf("core: inside placement stores globals in the stripe; Globals must be empty")
	}
	return nil
}

// globalOrd returns the position of global (l, h) within Stripe.Globals.
func (c *Code) globalOrd(l, h int) int {
	ord := 0
	for i := 0; i < l; i++ {
		ord += c.e[i]
	}
	return ord + h
}

// stored returns the stripe memory of a real cell or an Outside global
// from its canonical index: its environment slot, past the n·r cells an
// index into Globals.
func (c *Code) stored(st *Stripe, idx int) []byte {
	j := int(c.slot[idx])
	if j < len(st.Cells) {
		return st.Cells[j]
	}
	return st.Globals[j-len(st.Cells)]
}
