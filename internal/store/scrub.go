package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stair/internal/core"
)

// ScrubReport summarises one scrub pass.
type ScrubReport struct {
	// StripesChecked counts stripes swept.
	StripesChecked int
	// StripesDamaged counts stripes found holding lost sectors —
	// fail-stop read errors and checksum-located silent corruption
	// alike.
	StripesDamaged int
	// StripesQueued counts stripes newly handed to the repair queue
	// (damaged stripes already queued, unrecoverable, or dropped by the
	// bounded queue are not re-counted here).
	StripesQueued int
	// SectorsLost counts fail-stop lost sectors (read errors) seen
	// across damaged stripes; checksum-located liars are counted in
	// ChecksumMismatches instead.
	SectorsLost int
	// ChecksumMismatches counts sectors that read fine but failed their
	// integrity record — silent corruption *located* by the checksum
	// layer, repairable as ordinary erasures.
	ChecksumMismatches int
	// StripesInconsistent counts stripes whose parity disagrees with
	// their data while nothing is located — an unlocatable lie (silent
	// corruption with integrity off, or damage beyond what the records
	// cover). These are marked unrecoverable rather than guessed at:
	// repairing without a location would fabricate content.
	StripesInconsistent int
	// StripesUnrecoverable counts stripes this pass found beyond the
	// code's coverage (located damage exceeding it, or inconsistent
	// with nothing located).
	StripesUnrecoverable int
	// RecordsRefreshed counts absent integrity records re-written for
	// sectors a clean stripe proved good — how a replaced device's
	// sidecar (or a pre-integrity volume's) heals over scrub passes.
	RecordsRefreshed int
}

// pacer rations a scrub pass to a stripes/sec budget. A nil pacer is
// unpaced. The wait happens between stripes, outside any shard lock, so
// pacing never blocks foreground reads and writes — only the sweep. One
// pacer serves all of a sweep's workers: each wait reserves the next
// slot under mu, so the budget holds for the pass, not per worker.
type pacer struct {
	interval time.Duration
	mu       sync.Mutex
	next     time.Time
}

// newPacer builds a pacer for the given rate; rate <= 0 means unpaced.
func newPacer(stripesPerSec float64) *pacer {
	if stripesPerSec <= 0 {
		return nil
	}
	return &pacer{interval: time.Duration(float64(time.Second) / stripesPerSec)}
}

// wait blocks until the next stripe is due, or ctx is cancelled.
func (p *pacer) wait(ctx context.Context) error {
	if p == nil {
		return ctx.Err()
	}
	d := p.reserve()
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// reserve takes the next stripe's slot and returns how long until it is
// due; ≤ 0 means now.
func (p *pacer) reserve() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if p.next.IsZero() {
		// The first stripe is free; the budget applies between stripes.
		p.next = now.Add(p.interval)
		return 0
	}
	d := p.next.Sub(now)
	if d <= 0 {
		// Behind schedule (e.g. a stripe stalled on a slow device):
		// resume pacing from now instead of banking catch-up credit —
		// a burst of unpaced sweeping is exactly what the rate limit
		// exists to prevent.
		p.next = now.Add(p.interval)
		return 0
	}
	p.next = p.next.Add(p.interval)
	return d
}

// Scrub sweeps every stripe once, synchronously: it loads each stripe
// in one vectored call per device (latent sector errors announce
// themselves at access time under the fail-stop sector model), verifies
// every readable sector against its integrity record (when the layer is
// on — a mismatch is a *located* silent corruption, repairable like any
// erasure), cross-checks parity against data, counts damage, and feeds
// repairable damaged stripes to the bounded repair queue. A stripe
// whose located damage exceeds coverage — or whose parity disagrees
// while nothing is located, the unlocatable-lie case — is marked
// unrecoverable instead of guessed at. Use Quiesce to wait for the
// resulting repairs to converge. The pass runs GOMAXPROCS stripes at
// once, each under its own shard lock, so reads, writes and repairs on
// other stripes interleave with a sweep over a large volume; the report
// is the same at any width. A cancelled ctx aborts the pass
// mid-sweep — including an in-flight device wait — not just between
// stripes.
func (s *Store) Scrub(ctx context.Context) (ScrubReport, error) {
	return s.scrub(ctx, nil)
}

func (s *Store) scrub(ctx context.Context, pace *pacer) (ScrubReport, error) {
	var rep ScrubReport
	if fn := s.testScrubErr; fn != nil {
		if err := fn(); err != nil {
			return rep, err
		}
	}
	var mu sync.Mutex
	err := s.sweep(ctx, pace, func(sh *lockShard, stripe int) error {
		r, err := s.scrubStripeLocked(ctx, sh, stripe)
		mu.Lock()
		rep.add(r)
		mu.Unlock()
		return err
	})
	return rep, err
}

// add sums another report into r.
func (r *ScrubReport) add(o ScrubReport) {
	r.StripesChecked += o.StripesChecked
	r.StripesDamaged += o.StripesDamaged
	r.StripesQueued += o.StripesQueued
	r.SectorsLost += o.SectorsLost
	r.ChecksumMismatches += o.ChecksumMismatches
	r.StripesInconsistent += o.StripesInconsistent
	r.StripesUnrecoverable += o.StripesUnrecoverable
	r.RecordsRefreshed += o.RecordsRefreshed
}

// scrubStripeLocked is one stripe of a scrub pass; the caller holds the
// stripe's shard mutex. The error is non-nil only for context
// cancellation.
func (s *Store) scrubStripeLocked(ctx context.Context, sh *lockShard, stripe int) (ScrubReport, error) {
	var rep ScrubReport
	marked := sh.unrecoverable[stripe] // before the load's own mark
	st, ld, err := s.loadAll(ctx, stripe, true)
	if err != nil && !errors.Is(err, ErrUnrecoverable) {
		s.releaseStripeUnlessCancelled(ctx, st)
		return rep, err
	}
	lost, mismatches := ld.lost.Count(), ld.mismatches
	rep.StripesChecked++
	s.c.scrubbedStripes.Add(1)
	switch {
	case lost > 0:
		rep.StripesDamaged++
		rep.SectorsLost += lost - mismatches
		rep.ChecksumMismatches += mismatches
		s.c.scrubHits.Add(1)
		// Located damage: coverage decides. One checksum-located liar
		// repairs like any erasure; damage beyond coverage (e.g. two
		// liars in a stripe protected for one) is refused rather than
		// decoded into fabricated content: the load's plan failed, and
		// the stripe is marked.
		if err == nil {
			wasPending := sh.pending[stripe] || sh.unrecoverable[stripe]
			s.enqueueRepairLocked(sh, stripe, lost)
			if !wasPending && sh.pending[stripe] {
				rep.StripesQueued++
			}
		} else if !marked {
			rep.StripesUnrecoverable++
		}
	default:
		// Nothing located: cross-check parity against data. A
		// disagreement here is an unlocatable lie — some sector is
		// wrong but no read error or checksum names it (integrity
		// off, or damage in a sector whose record is absent) — so the
		// stripe is marked, not "repaired": every choice of victim
		// solves different equations into different garbage.
		ok, verr := s.code.Verify(st)
		switch {
		case verr != nil:
		case !ok:
			rep.StripesInconsistent++
			if !marked {
				rep.StripesUnrecoverable++
			}
			s.markUnrecoverableLocked(sh, stripe)
			s.c.scrubHits.Add(1)
		case s.integ != nil && int(ld.verified) < s.n*s.r:
			// Clean stripe with a sector the load did not verify —
			// no record, or held by a torn update: re-write any absent
			// integrity records. The stripe's content is proven good
			// by parity, so this is how a replaced device's sidecar (or
			// a volume predating the integrity layer) heals over
			// passes. A stripe whose every sector verified has every
			// record, and skips the per-sector scan.
			rep.RecordsRefreshed += s.refreshStripeRecordsLocked(ctx, sh, stripe, st)
		}
	}
	// The sweep is done with this stripe's reconstruction; hand the
	// slab back unless a cancellation mid-record-refresh left a
	// device operation that may still reference it.
	s.releaseStripeUnlessCancelled(ctx, st)
	return rep, nil
}

// refreshStripeRecordsLocked stages integrity records for any sector of
// a proven-clean stripe that lacks one, persists the touched columns'
// sidecars, and returns how many records it wrote. Its stripe's load
// found nothing lost, so every column's device has just answered with
// data; one that has failed since refuses the sidecar write, which
// flushStripeMeta swallows. The caller holds the stripe's shard mutex.
func (s *Store) refreshStripeRecordsLocked(ctx context.Context, sh *lockShard, stripe int, st *core.Stripe) int {
	refreshed := 0
	cols := sh.cols[:0]
	for col := 0; col < s.n; col++ {
		touched := false
		for row := 0; row < s.r; row++ {
			sec := s.devSector(stripe, row)
			if !s.integ.Has(col, sec) {
				s.integ.Update(col, sec, st.Sector(col, row))
				refreshed++
				touched = true
			}
		}
		if touched {
			cols = append(cols, col)
		}
	}
	sh.cols = cols
	if len(cols) > 0 {
		_ = s.flushStripeMeta(ctx, stripe, cols)
	}
	return refreshed
}

// ScrubberOptions configures the background scrubber.
type ScrubberOptions struct {
	// Interval is the time between the starts of consecutive passes
	// (required, positive).
	Interval time.Duration
	// StripesPerSec rate-limits each pass so a scrub sweep does not
	// monopolise device bandwidth against foreground traffic; 0 means
	// unpaced. The pacing sleep happens outside the shard locks and
	// honors cancellation, so stopping the scrubber (or closing the
	// store) interrupts a paced pass immediately.
	StripesPerSec float64
}

// StartScrubber starts a background goroutine running a full Scrub pass
// every interval until StopScrubber or Close. A pass runs GOMAXPROCS
// stripes at once, and StripesPerSec rations the pass as a whole, not
// each of its workers. Only one scrubber can run at a time. Stopping
// cancels an in-flight pass mid-sweep via its context rather than
// waiting for the pass to finish.
func (s *Store) StartScrubber(opts ScrubberOptions) error {
	if opts.Interval <= 0 {
		return fmt.Errorf("store: scrub interval %v must be positive", opts.Interval)
	}
	if opts.StripesPerSec < 0 {
		return fmt.Errorf("store: scrub rate %v must be ≥ 0 stripes/sec", opts.StripesPerSec)
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.scrubStop != nil {
		return fmt.Errorf("store: scrubber already running")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.scrubStop, s.scrubDone = stop, done
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(done)
		// Every exit path — including a pass failing, e.g. the store
		// closing mid-sweep — must release the scrubber slot, or
		// StartScrubber reports "already running" forever. StopScrubber
		// may have taken the slot already (it nils the fields before
		// closing stop), so only clear when it is still ours.
		defer func() {
			s.stateMu.Lock()
			if s.scrubDone == done {
				s.scrubStop, s.scrubDone = nil, nil
			}
			s.stateMu.Unlock()
		}()
		// Passes run under a context cancelled by StopScrubber and
		// Close, so a paced or device-blocked pass aborts mid-sweep
		// instead of holding the shutdown hostage.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			select {
			case <-stop:
			case <-s.quit:
			case <-ctx.Done():
			}
			cancel()
		}()
		ticker := time.NewTicker(opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-s.quit:
				// Close shuts the store down without knowing about a
				// scrubber started concurrently with it; exit promptly
				// rather than making wg.Wait sit out a full interval.
				return
			case <-ticker.C:
				if _, err := s.scrub(ctx, newPacer(opts.StripesPerSec)); err != nil {
					return
				}
			}
		}
	}()
	return nil
}

// StopScrubber stops the background scrubber, if running, and waits for
// it to exit; an in-flight pass is cancelled mid-sweep (repairs it
// already queued keep draining; use Quiesce to wait for those).
func (s *Store) StopScrubber() {
	s.stateMu.Lock()
	stop, done := s.scrubStop, s.scrubDone
	s.scrubStop, s.scrubDone = nil, nil
	s.stateMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
