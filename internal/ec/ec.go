// Package ec is the neutral contract every stripe code in this
// repository sits behind: one Cell type addressing a sector and one
// Code interface that STAIR (internal/core, including its Reed-Solomon
// degeneration with an empty e) and SD (internal/sd) both satisfy, so a
// harness — a speed measurement, an exhaustive coverage oracle, a
// sampled failure study — is written once against the interface and
// handed either, the way the paper's §6 compares the codes over one
// stripe shape with one methodology.
//
// Linear (linear.go) is the code-agnostic half of a linear code, SD's
// included, and Solve.Lower the one lowering of a coefficient matrix to
// a gf.Op list, which the RS baseline and STAIR's row solves share. It
// imports gf and matrix, and still no code package.
package ec

import "fmt"

// Cell addresses one sector within a stripe: chunk (device) column Col
// in [0, N) and sector row Row in [0, R).
type Cell struct {
	Col int
	Row int
}

func (c Cell) String() string { return fmt.Sprintf("(%d,%d)", c.Col, c.Row) }

// Code is a systematic erasure code over a stripe of N chunks × R
// sectors, every sector a []byte of one common length, held as a flat
// slice indexed col*R+row. *sd.Code implements it directly;
// (*core.Code).EC adapts STAIR, whose native API takes a *core.Stripe.
type Code interface {
	// N and R describe the stripe geometry: N chunks of R sectors.
	N() int
	R() int
	// DataCells lists the cells a writer fills, in payload order; every
	// other cell is parity that Encode computes.
	DataCells() []Cell
	// Encode fills the parity cells of the stripe.
	Encode(cells [][]byte) error
	// Repair reconstructs the lost cells in place, ignoring their
	// current contents, or returns an error when the pattern is beyond
	// what the code can solve.
	Repair(cells [][]byte, lost []Cell) error
	// CanRecover reports whether Repair would succeed on the pattern,
	// without touching data. Every implementation answers true for a
	// pattern inside the coverage the code is built for; they differ in
	// what they promise outside it:
	//
	//   - SD (a Linear) is rank-exact: true iff the parity-check matrix
	//     solves for the lost cells, so patterns beyond m chunks +
	//     s sectors that happen to be solvable are true. The answer is
	//     the cached solve a Repair of the pattern then runs.
	//   - STAIR is peel-based: true iff its row/column peeling decoder
	//     finds a repair schedule. That covers the (m, e) coverage and
	//     the out-of-coverage patterns that peel by luck, but a pattern
	//     solvable only by a joint solve across constraints is false.
	CanRecover(lost []Cell) bool
}
