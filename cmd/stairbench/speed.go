package main

import (
	"fmt"
	"math/rand"
	"time"

	"stair/internal/core"
	"stair/internal/ec"
	"stair/internal/sd"
)

// partitions enumerates the ascending coverage vectors with sum s whose
// parts do not exceed maxPart and whose length does not exceed maxLen —
// the configuration space "all possible e for a given s" of §6.2.1.
func partitions(s, maxPart, maxLen int) [][]int {
	var out [][]int
	var cur []int
	var rec func(remaining, min int)
	rec = func(remaining, min int) {
		if remaining == 0 {
			out = append(out, append([]int{}, cur...))
			return
		}
		if len(cur) >= maxLen {
			return
		}
		for v := min; v <= remaining && v <= maxPart; v++ {
			cur = append(cur, v)
			rec(remaining-v, v)
			cur = cur[:len(cur)-1]
		}
	}
	rec(s, 1)
	// Ascending partitions generated with min-first recursion are
	// already sorted ascending within each vector.
	return out
}

// worstE returns the coverage vector for the given s with the highest
// chosen-method encoding cost — the paper's conservative "worst case
// over all e" choice (§6.2.1), selected analytically by the Mult_XOR
// model rather than by timing every variant.
func worstE(n, r, m, s int) ([]int, error) {
	var worst []int
	worstCost := -1
	for _, e := range partitions(s, r, n-m) {
		c, err := core.New(core.Config{N: n, R: r, M: m, E: e})
		if err != nil {
			continue
		}
		if cost := c.Cost(core.MethodAuto); cost > worstCost {
			worstCost, worst = cost, e
		}
	}
	if worst == nil {
		return nil, fmt.Errorf("no valid e for n=%d r=%d m=%d s=%d", n, r, m, s)
	}
	return worst, nil
}

// sectorSizeFor splits a stripe budget of bytes across n·r sectors,
// aligned down to align and floored at align.
func sectorSizeFor(stripeBytes, n, r, align int) int {
	s := stripeBytes / (n * r)
	s -= s % align
	if s < align {
		s = align
	}
	return s
}

const (
	minMeasure = 300 * time.Millisecond
	maxIters   = 64
)

// timeOp measures op repeatedly until minMeasure has elapsed and returns
// MB/s relative to the stripe size (MiB per second, like the paper).
func timeOp(stripeBytes int, op func() error) (float64, error) {
	if err := op(); err != nil { // warm-up and validity check
		return 0, err
	}
	var elapsed time.Duration
	iters := 0
	for elapsed < minMeasure && iters < maxIters {
		start := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		elapsed += time.Since(start)
		iters++
	}
	mib := float64(stripeBytes) * float64(iters) / (1 << 20)
	return mib / elapsed.Seconds(), nil
}

// newStripe allocates one stripe for the code — a single slab sliced
// chunk-major into n·r cells, the layout core.NewStripe gives STAIR, so
// every code is timed on the same memory layout — and fills the data
// cells with pseudo-random bytes.
func newStripe(c ec.Code, sectorSize int) [][]byte {
	cells := make([][]byte, c.N()*c.R())
	slab := make([]byte, len(cells)*sectorSize)
	for i := range cells {
		cells[i] = slab[i*sectorSize : (i+1)*sectorSize]
	}
	rng := rand.New(rand.NewSource(1))
	for _, cell := range c.DataCells() {
		rng.Read(cells[cell.Col*c.R()+cell.Row])
	}
	return cells
}

// encodeSpeed measures Encode of one stripe, in MB/s of stripe size.
func encodeSpeed(c ec.Code, sectorSize int) (float64, error) {
	cells := newStripe(c, sectorSize)
	return timeOp(sectorSize*len(cells), func() error { return c.Encode(cells) })
}

// decodeSpeed measures Repair of the lost cells of one encoded stripe,
// in MB/s of stripe size.
func decodeSpeed(c ec.Code, sectorSize int, lost []ec.Cell) (float64, error) {
	cells := newStripe(c, sectorSize)
	if err := c.Encode(cells); err != nil {
		return 0, err
	}
	return timeOp(sectorSize*len(cells), func() error { return c.Repair(cells, lost) })
}

// wholeChunks lists every cell of the m leftmost chunks: the device
// failures every worst case starts from.
func wholeChunks(m, r int) []ec.Cell {
	var lost []ec.Cell
	for col := 0; col < m; col++ {
		for row := 0; row < r; row++ {
			lost = append(lost, ec.Cell{Col: col, Row: row})
		}
	}
	return lost
}

// worstStair builds the worst-e STAIR code and sizes its sectors to the
// stripe budget.
func worstStair(n, r, m, s, stripeBytes int) (*core.Code, int, error) {
	e, err := worstE(n, r, m, s)
	if err != nil {
		return nil, 0, err
	}
	c, err := core.New(core.Config{N: n, R: r, M: m, E: e})
	if err != nil {
		return nil, 0, err
	}
	return c, sectorSizeFor(stripeBytes, n, r, c.Field().SymbolBytes()), nil
}

// stairEncodeSpeed measures Encode of the worst-e STAIR code.
func stairEncodeSpeed(n, r, m, s, stripeBytes int) (float64, error) {
	c, size, err := worstStair(n, r, m, s, stripeBytes)
	if err != nil {
		return 0, err
	}
	return encodeSpeed(c.EC(), size)
}

// stairDecodeSpeed measures Repair of the §6.2.2 worst case (or of pure
// device failures when devicesOnly is set).
func stairDecodeSpeed(n, r, m, s, stripeBytes int, devicesOnly bool) (float64, error) {
	c, size, err := worstStair(n, r, m, s, stripeBytes)
	if err != nil {
		return 0, err
	}
	lost := wholeChunks(m, r)
	if !devicesOnly {
		for l, el := range c.E() {
			for h := 0; h < el; h++ {
				lost = append(lost, ec.Cell{Col: m + l, Row: r - 1 - h})
			}
		}
	}
	return decodeSpeed(c.EC(), size, lost)
}

// sdEncodeSpeed measures SD standard encoding.
func sdEncodeSpeed(n, r, m, s, stripeBytes int) (float64, error) {
	c, err := sd.New(sd.Config{N: n, R: r, M: m, S: s})
	if err != nil {
		return 0, err
	}
	return encodeSpeed(c, sectorSizeFor(stripeBytes, n, r, 2))
}

// sdDecodeSpeed measures SD repair of the worst case: m chunks + s
// sectors.
func sdDecodeSpeed(n, r, m, s, stripeBytes int) (float64, error) {
	c, err := sd.New(sd.Config{N: n, R: r, M: m, S: s})
	if err != nil {
		return 0, err
	}
	lost := wholeChunks(m, r)
	for k := 0; k < s; k++ {
		lost = append(lost, ec.Cell{Col: m + k%(n-m), Row: k / (n - m)})
	}
	return decodeSpeed(c, sectorSizeFor(stripeBytes, n, r, 2), lost)
}
