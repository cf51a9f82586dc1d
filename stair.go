// Package stair implements STAIR codes — a general family of erasure
// codes that tolerate both device and sector failures in practical
// storage systems (Li & Lee, FAST 2014).
//
// A STAIR code protects one stripe of an n-device array, where each
// device contributes a chunk of r sectors. It tolerates m whole-chunk
// failures plus sector failures in up to m' additional chunks, bounded
// per chunk by the coverage vector e = (e0 ≤ e1 ≤ … ≤ e_{m'-1}), at a
// redundancy cost of only m chunks plus s = Σe sectors per stripe —
// where a traditional erasure code would spend m+m' whole chunks.
//
// # Quick start
//
//	code, err := stair.New(stair.Config{
//		N: 8, R: 4, M: 2, E: []int{1, 1, 2},
//	})
//	if err != nil { ... }
//	st, _ := code.NewStripe(4096)       // 4 KiB sectors
//	for _, c := range code.DataCells() {
//		fillSector(st.Sector(c.Col, c.Row))
//	}
//	if err := code.Encode(st); err != nil { ... }
//
//	// Later: devices 6 and 7 die, and sector (3,3) is unreadable.
//	lost := []stair.Cell{ ... }
//	if err := code.Repair(st, lost); err != nil { ... }
//
// The package exposes the paper's three encoding methods (upstairs,
// downstairs, standard), picking the cheapest automatically (§5.3);
// upstairs decoding with the practical local-repair fast path (§4.2-4.3);
// incremental parity updates via the uneven parity relations (§5.2);
// and cost/penalty introspection used to reproduce the paper's
// evaluation (see cmd/stairbench).
//
// All exported types are thin aliases over internal/core, which contains
// the full construction.
package stair

import (
	"stair/internal/core"
)

// Config describes a STAIR code instance; see core.Config for field
// documentation. The zero values of W and Placement select the paper's
// defaults (auto-sized GF(2^w), inside global parities); the building
// blocks are always Cauchy Reed-Solomon codes, as in the paper.
type Config = core.Config

// Code is a compiled STAIR code, safe for concurrent use.
type Code = core.Code

// Stripe holds one stripe's sector payloads.
type Stripe = core.Stripe

// Cell addresses a sector by (chunk column, sector row).
type Cell = core.Cell

// CellClass labels what a stripe cell stores.
type CellClass = core.CellClass

// Method selects an encoding method.
type Method = core.Method

// Placement selects where global parity symbols live.
type Placement = core.Placement

// TraceStep is one solve step of an encode/decode schedule, in the
// paper's Tables 2-3 presentation style.
type TraceStep = core.TraceStep

// Re-exported enum values.
const (
	Inside  = core.Inside
	Outside = core.Outside

	MethodAuto       = core.MethodAuto
	MethodUpstairs   = core.MethodUpstairs
	MethodDownstairs = core.MethodDownstairs
	MethodStandard   = core.MethodStandard

	ClassData         = core.ClassData
	ClassRowParity    = core.ClassRowParity
	ClassGlobalParity = core.ClassGlobalParity
)

// ErrUnrecoverable reports a failure pattern outside the code's coverage.
var ErrUnrecoverable = core.ErrUnrecoverable

// ErrRowNotLocal reports a row with more than m lost cells, which
// Code.RepairRow refuses: only the peel of Decode and Repair can decide it.
var ErrRowNotLocal = core.ErrRowNotLocal

// New compiles a STAIR code for the given configuration.
func New(cfg Config) (*Code, error) { return core.New(cfg) }

// StorageEfficiency computes the fraction of stripe capacity holding
// user data for arbitrary parameters (paper Eq. 8): (r(n−m)−s)/(r·n).
func StorageEfficiency(n, r, m, s int) float64 { return core.StorageEfficiency(n, r, m, s) }

// SpaceSavingDevices returns how many devices a STAIR code with coverage
// e saves over a traditional erasure code protecting the same failures
// with whole parity chunks: m' − s/r (§6.1, Figure 10).
func SpaceSavingDevices(e []int, r int) float64 { return core.SpaceSavingDevices(e, r) }
