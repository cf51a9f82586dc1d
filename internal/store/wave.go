package store

import (
	"context"
	"sync"
	"time"
)

// A wave is a stripe phase's calls to remote columns (see Remoter) — a
// write-back's runs, a sidecar flush's columns, a plan iteration's spans
// — issued together, as a stripe's columns are independent devices
// (paper §2, §5). finishWave makes the last column's calls itself, waits
// for the rest, handed to I/O helpers — about n−1 a shard — and returns
// the answers in issue order: a phase costs one round trip, not their
// sum. Its records are shard scratch, so a wave allocates nothing.

const (
	callRead  = iota // ioCall.op: ReadSectors of bufs at start
	callWrite        // WriteSectors of bufs at start
	callMeta         // the sidecar records of the stripe starting at start
)

// ioCall is a call of a wave, its answer, and the column's next call —
// or a hedged read's primary, answered on done (see hedge.go).
type ioCall struct {
	ctx        context.Context
	op         int
	col, start int
	bufs       [][]byte
	err        error
	next       *ioCall
	wg         *sync.WaitGroup
	begin      time.Time
	done       chan error
}

// wave is a shard's calls[:n], the last column's held, and their vectors.
type wave struct {
	wg    sync.WaitGroup
	calls []*ioCall
	n     int
	held  *ioCall
	vecs  [][]byte
}

// vecFor returns a call's vector for cells [lo, hi) of a stripe on col.
func (s *Store) vecFor(sh *lockShard, col, lo, hi int) [][]byte {
	if !s.remote[col] {
		return sh.rowvec(hi - lo)
	}
	if len(sh.wave.vecs) < s.n*s.r {
		sh.wave.vecs = make([][]byte, s.n*s.r)
	}
	return sh.wave.vecs[lo:hi]
}

// issue adds a call to sh's wave, handing off the column held before.
func (s *Store) issue(ctx context.Context, sh *lockShard, op, col, start int, bufs [][]byte) {
	w := &sh.wave
	if w.n == len(w.calls) {
		w.calls = append(w.calls, &ioCall{wg: &w.wg})
	}
	c := w.calls[w.n]
	w.n++
	c.ctx, c.op, c.col, c.start, c.bufs, c.next = ctx, op, col, start, bufs, nil
	switch {
	case w.held != nil && w.held.col == col:
		w.calls[w.n-2].next = c // a column's calls are issued in a row
		return
	case w.held != nil:
		w.wg.Add(1)
		s.handOff(w.held)
	}
	w.held = c
}

// finishWave ends sh's wave and returns its calls with their answers;
// nil at once, inlined, when it has none, as on local columns.
func (s *Store) finishWave(sh *lockShard) []*ioCall {
	if sh.wave.held == nil {
		return nil
	}
	return s.endWave(&sh.wave)
}

func (s *Store) endWave(w *wave) []*ioCall {
	s.callChain(w.held)
	w.held = nil
	w.wg.Wait()
	calls := w.calls[:w.n]
	w.n = 0
	return calls
}

// handOff gives c to an idle helper, starting one when none is idle.
func (s *Store) handOff(c *ioCall) {
	select {
	case s.ioq <- c:
		return
	default:
	}
	s.ioWG.Add(1)
	go s.ioHelper()
	s.ioq <- c
}

// ioHelper makes the calls handed to it until Close closes ioq.
func (s *Store) ioHelper() {
	defer s.ioWG.Done()
	for c := range s.ioq {
		if s.callChain(c); c.done == nil { // a wave's, not a hedged read's primary
			c.wg.Done()
			continue
		}
		s.noteRead(c.ctx, c.col, c.err)
		s.hedge[c.col].observe(c.begin, c.err)
		c.ctx = nil // a parked primary keeps no caller's context
		c.done <- c.err
	}
}

// callChain makes c's call and those chained after it.
func (s *Store) callChain(c *ioCall) {
	for ; c != nil; c = c.next {
		switch c.op {
		case callRead:
			c.err = s.devs[c.col].ReadSectors(c.ctx, c.start, c.bufs)
		case callWrite:
			c.err = s.devs[c.col].WriteSectors(c.ctx, c.start, c.bufs)
		default:
			c.err = s.flushColumnMeta(c.ctx, c.col, c.start)
		}
	}
}
