package core

import "stair/internal/ec"

// EC returns the code behind the repository's neutral stripe-code
// contract, so a harness written against ec.Code drives STAIR — and,
// with an empty E, plain Reed-Solomon — the way it drives SD and IDR.
// The contract's flat cell slice has nowhere to put outside globals, so
// Encode and Repair reject a code built with Placement == Outside.
func (c *Code) EC() ec.Code { return ecCode{c} }

// ecCode is the one adapter ec.Code needs: the other codes already take
// a flat [][]byte, STAIR's native API takes a *Stripe.
type ecCode struct{ *Code }

func (a ecCode) stripeOf(cells [][]byte) *Stripe {
	st := &Stripe{N: a.n, R: a.r, Cells: cells}
	if len(cells) > 0 {
		st.SectorSize = len(cells[0])
	}
	return st
}

func (a ecCode) Encode(cells [][]byte) error { return a.Code.Encode(a.stripeOf(cells)) }

func (a ecCode) Repair(cells [][]byte, lost []ec.Cell) error {
	return a.Code.Repair(a.stripeOf(cells), lost)
}

// CanRecover folds the native (bool, error) into the contract's bool: a
// pattern naming a cell outside the stripe is not recoverable.
func (a ecCode) CanRecover(lost []ec.Cell) bool {
	ok, err := a.Code.CanRecover(lost)
	return err == nil && ok
}
