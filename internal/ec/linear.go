package ec

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"stair/internal/gf"
	"stair/internal/matrix"
)

// ErrUnrecoverable reports a loss pattern H does not determine.
var ErrUnrecoverable = errors.New("ec: failure pattern is unrecoverable")

const (
	maxSolveCacheEntries = 256 // a full solve cache starts over, as core's plan cache does
	// solveTile is the per-cell byte range one RunOps call covers: a
	// solve's destinations stay cache-resident while the sources stream.
	solveTile = 4096
)

// Solve is one compiled linear solve, x_dst = K·x_src: the kernel ops
// that rewrite each destination cell from the source cells, source by
// source in K's column order, over a cell vector. Each destination's
// first term overwrites it, so it needs no zero-fill and may hold
// anything before a run.
type Solve struct {
	Ops   []gf.Op
	Terms int // K's nonzero coefficients: the Mult_XORs one run makes
}

// Lower appends to s the ops of K, whose row i computes cell dsts[i]
// and whose column j reads cell srcs[j] (cell j when srcs is nil). Per
// source, the destinations it gives a first term are overwritten and
// the rest accumulate, each group split by gf.AppendOps; a destination
// no term reaches is zero in every solution and gets a zero-fill ahead
// of the appended ops. Its bookkeeping stays on the stack for up to 64
// destinations, so a Lower into Ops with room allocates nothing.
func (s *Solve) Lower(k *matrix.Matrix, srcs, dsts []int) {
	f, start := k.Field(), len(s.Ops)
	var rbuf [64]uint8
	var dbuf [2][64]int32
	var tbuf [2][64]*gf.MulTable
	reached := rbuf[:] // 1 once dsts[i] has its first term: which group its next joins
	if len(dsts) > len(rbuf) {
		reached = make([]uint8, len(dsts))
	}
	for j := 0; j < k.Cols(); j++ {
		src := j
		if srcs != nil {
			src = srcs[j]
		}
		dst := [2][]int32{dbuf[0][:0], dbuf[1][:0]} // [0]: first terms (overwrite), [1]: the rest
		tab := [2][]*gf.MulTable{tbuf[0][:0], tbuf[1][:0]}
		for i, d := range dsts {
			coeff := k.At(i, j)
			if coeff == 0 {
				continue
			}
			a := reached[i]
			reached[i] = 1
			dst[a] = append(dst[a], int32(d))
			tab[a] = append(tab[a], f.Table(coeff))
			s.Terms++
		}
		s.Ops = gf.AppendOps(s.Ops, false, int32(src), dst[0], tab[0])
		s.Ops = gf.AppendOps(s.Ops, true, int32(src), dst[1], tab[1])
	}
	for i, d := range dsts {
		if reached[i] == 0 {
			s.Ops = slices.Insert(s.Ops, start, gf.Op{Dst: [4]int32{int32(d)}})
		}
	}
}

// Run executes the solve over bytes [0, size) of cells, every one of
// which the ops name holding size bytes, one RunOps call per tile.
func (s *Solve) Run(f *gf.Field, cells [][]byte, size int) {
	k := f.Kernel()
	for lo := 0; lo < size; lo += solveTile {
		k.RunOps(s.Ops, cells, lo, min(lo+solveTile, size))
	}
}

// Linear is a linear code over a stripe of n chunks × r sectors given by
// its parity-check matrix H, whose column col·r+row is the stripe's cell
// (col, row): every codeword x has H·x = 0. Encode, Repair and
// CanRecover are each one solve of H (matrix.Solve) compiled by
// Solve.Lower.
// A Linear is safe for concurrent use; its one mutable state is the
// solve cache, guarded by mu.
type Linear struct {
	f      *gf.Field
	n, r   int
	h      *matrix.Matrix
	encode Solve // the parity cells from the rest

	mu     sync.Mutex
	solves map[string]*Solve // by lost cells' bitset; nil: unsolvable
}

// NewLinear returns the code H defines over n×r stripes, with parity
// the cells Encode computes. It fails when H does not determine them.
func NewLinear(h *matrix.Matrix, n, r int, parity []Cell) (*Linear, error) {
	l := &Linear{f: h.Field(), n: n, r: r, h: h, solves: make(map[string]*Solve)}
	idx := make([]int, len(parity))
	for i, cell := range parity {
		idx[i] = cell.Col*r + cell.Row
	}
	k, err := h.Solve(idx)
	if err != nil {
		return nil, fmt.Errorf("ec: parity cells: %w", err)
	}
	l.encode.Lower(k, nil, idx)
	return l, nil
}

// EncodeSolve returns the solve Encode runs.
func (l *Linear) EncodeSolve() *Solve { return &l.encode }

// Encode fills the parity cells of a stripe from the others.
func (l *Linear) Encode(cells [][]byte) error { return l.run(&l.encode, cells) }

// Repair rewrites the lost cells in place from every other cell.
func (l *Linear) Repair(cells [][]byte, lost []Cell) error {
	s, err := l.Solve(lost)
	if err != nil {
		return err
	}
	return l.run(s, cells)
}

// CanRecover reports whether Repair would succeed on lost: whether H
// determines the lost cells, answered by the cached solve Repair runs.
func (l *Linear) CanRecover(lost []Cell) bool {
	_, err := l.Solve(lost)
	return err == nil
}

// Solve returns the compiled solve of the lost cells from the others,
// duplicates ignored: built on a pattern's first use and cached under
// its bitset, which lives on the stack for stripes of up to 2 048 cells,
// so a hit allocates nothing.
func (l *Linear) Solve(lost []Cell) (*Solve, error) {
	var kbuf [256]byte
	key := kbuf[:]
	if nb := (l.n*l.r + 7) / 8; nb <= len(kbuf) {
		key = kbuf[:nb]
	} else {
		key = make([]byte, nb)
	}
	count := 0
	for _, cell := range lost {
		if cell.Col < 0 || cell.Col >= l.n || cell.Row < 0 || cell.Row >= l.r {
			return nil, fmt.Errorf("ec: lost cell %v out of range", cell)
		}
		i := cell.Col*l.r + cell.Row
		if key[i>>3]&(1<<(i&7)) == 0 {
			key[i>>3] |= 1 << (i & 7)
			count++
		}
	}
	if count == 0 {
		return &Solve{}, nil
	}
	l.mu.Lock()
	s, hit := l.solves[string(key)]
	l.mu.Unlock()
	if !hit {
		idx := make([]int, 0, count)
		for i := 0; i < l.n*l.r; i++ {
			if key[i>>3]&(1<<(i&7)) != 0 {
				idx = append(idx, i)
			}
		}
		if k, err := l.h.Solve(idx); err == nil {
			s = new(Solve)
			s.Lower(k, nil, idx)
		}
		l.mu.Lock()
		if len(l.solves) >= maxSolveCacheEntries {
			clear(l.solves)
		}
		l.solves[string(key)] = s
		l.mu.Unlock()
	}
	if s == nil {
		return nil, fmt.Errorf("%w: %d lost cells", ErrUnrecoverable, count)
	}
	return s, nil
}

// run runs s over a stripe, once it has checked that the stripe's n·r
// cells share one size, a positive multiple of the field's symbol.
func (l *Linear) run(s *Solve, cells [][]byte) error {
	if len(cells) != l.n*l.r {
		return fmt.Errorf("ec: stripe has %d cells, want %d", len(cells), l.n*l.r)
	}
	size, sb := len(cells[0]), l.f.SymbolBytes()
	for i, cell := range cells {
		if len(cell) != size || size == 0 || size%sb != 0 {
			return fmt.Errorf("ec: cell %d has %d bytes, want %d, a positive multiple of %d", i, len(cell), size, sb)
		}
	}
	s.Run(l.f, cells, size)
	return nil
}
