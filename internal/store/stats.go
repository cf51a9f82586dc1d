package store

import "sync/atomic"

// Stats is a snapshot of the store's operation counters.
type Stats struct {
	// Reads counts successful block reads, including degraded ones.
	Reads uint64
	// DegradedReads counts reads served by on-the-fly reconstruction
	// (§4.2–4.3) rather than a direct device read.
	DegradedReads uint64
	// DegradedReadFallbacks counts the degraded reads refused because the
	// losses they found put the stripe beyond the code's coverage, which
	// marks it unrecoverable. Zero while stripes stay within coverage.
	DegradedReadFallbacks uint64
	// Writes counts block writes accepted into the stripe buffer.
	Writes uint64
	// FullStripeFlushes counts stripes flushed through the parallel
	// full-stripe encode path.
	FullStripeFlushes uint64
	// SubStripeFlushes counts stripes flushed through the §5.2
	// incremental-parity-update path (read–modify–write).
	SubStripeFlushes uint64
	// SubStripeFallbacks counts the sub-stripe flushes of a stripe beyond
	// the code's coverage: marked unrecoverable before the flush, which
	// then loads every cell, or found so by its load. Zero while stripes
	// stay within coverage, whose losses a flush repairs in passing.
	SubStripeFallbacks uint64
	// ScrubbedStripes counts stripes swept by the scrubber.
	ScrubbedStripes uint64
	// ScrubHits counts scrubbed stripes found holding lost sectors.
	ScrubHits uint64
	// RepairedStripes and RepairedSectors count background repairs
	// that wrote reconstructed content back to devices.
	RepairedStripes uint64
	RepairedSectors uint64
	// RepairDrops counts repair requests dropped because the bounded
	// repair queue was full (a later scrub pass re-queues them).
	RepairDrops uint64
	// RepairRequeues counts repair attempts that ended with the stripe
	// still partially lost (transient write failure or cancellation
	// mid-sweep) and went back on the queue for another attempt.
	RepairRequeues uint64
	// UnrecoverableStripes counts stripes currently marked as holding
	// failure patterns outside the code's coverage. It mirrors the
	// unrecoverable bookkeeping exactly: a device replacement or a
	// full-stripe rewrite that clears a mark decrements it, so a stripe
	// re-marked later is never double-counted.
	UnrecoverableStripes uint64
	// Deprecated: always 0; the store keeps no cache of reconstructed
	// stripes. Kept until bench/ stops reading it.
	DegradedCacheHits uint64
	// JournaledFlushes counts stripe flushes that ran under write-ahead
	// intent protection (zero on stores opened without a journal).
	JournaledFlushes uint64
	// RecoveredStripes counts stripes rolled forward by journal replay
	// at Open: their parity disagreed with their data after a crash
	// mid-write-back and was re-encoded from the on-device content.
	RecoveredStripes uint64
	// VerifiedSectors counts sectors whose payload was checked against
	// a valid end-to-end integrity record and matched (zero when the
	// integrity layer is off or not verifying).
	VerifiedSectors uint64
	// ChecksumMismatches counts sectors that read fine but failed their
	// integrity record — silent corruption (or a misdirected/stale
	// write) caught by the checksum layer and converted into a located
	// erasure.
	ChecksumMismatches uint64
	// Hedged client reads (Config.Hedge): launched = the column's read
	// outlived its tracked percentile and the block's row was solved;
	// wins = the solve served the read (a read, not a degraded read);
	// losses = the row could not decide the block and the slow read
	// served it after all; fails = neither could, and the read went on
	// down the degraded path.
	HedgesLaunched uint64
	HedgeWins      uint64
	HedgeLosses    uint64
	HedgeFails     uint64
}

// counters is the live atomic form of Stats.
type counters struct {
	reads, degradedReads, writes        atomic.Uint64
	degradedFallbacks                   atomic.Uint64
	fullFlushes, subFlushes             atomic.Uint64
	subFallbacks                        atomic.Uint64
	scrubbedStripes, scrubHits          atomic.Uint64
	repairedStripes, repairedSectors    atomic.Uint64
	repairDrops, repairRequeues         atomic.Uint64
	unrecoverableStripes                atomic.Uint64
	journaledFlushes, recoveredStripes  atomic.Uint64
	verifiedSectors, checksumMismatches atomic.Uint64
	hedgesLaunched, hedgeWins           atomic.Uint64
	hedgeLosses, hedgeFails             atomic.Uint64
}

// addVerdicts adds one operation's locally counted checksum verdicts,
// skipping the shared cache line when there is nothing to add.
func (c *counters) addVerdicts(verified, mismatches uint64) {
	if verified > 0 {
		c.verifiedSectors.Add(verified)
	}
	if mismatches > 0 {
		c.checksumMismatches.Add(mismatches)
	}
}

func (c *counters) snapshot() Stats {
	return Stats{
		Reads:                 c.reads.Load(),
		DegradedReads:         c.degradedReads.Load(),
		DegradedReadFallbacks: c.degradedFallbacks.Load(),
		Writes:                c.writes.Load(),
		FullStripeFlushes:     c.fullFlushes.Load(),
		SubStripeFlushes:      c.subFlushes.Load(),
		SubStripeFallbacks:    c.subFallbacks.Load(),
		ScrubbedStripes:       c.scrubbedStripes.Load(),
		ScrubHits:             c.scrubHits.Load(),
		RepairedStripes:       c.repairedStripes.Load(),
		RepairedSectors:       c.repairedSectors.Load(),
		RepairDrops:           c.repairDrops.Load(),
		RepairRequeues:        c.repairRequeues.Load(),
		UnrecoverableStripes:  c.unrecoverableStripes.Load(),
		JournaledFlushes:      c.journaledFlushes.Load(),
		RecoveredStripes:      c.recoveredStripes.Load(),
		VerifiedSectors:       c.verifiedSectors.Load(),
		ChecksumMismatches:    c.checksumMismatches.Load(),
		HedgesLaunched:        c.hedgesLaunched.Load(),
		HedgeWins:             c.hedgeWins.Load(),
		HedgeLosses:           c.hedgeLosses.Load(),
		HedgeFails:            c.hedgeFails.Load(),
	}
}

// Add combines two snapshots (used by callers that accumulate stats
// across store lifetimes, e.g. cmd/stairstore). Monotone counters sum;
// UnrecoverableStripes is a gauge of currently-marked stripes, so the
// aggregate takes the high-water mark — summing it would re-count the
// same still-unrecoverable stripe once per lifetime.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:                 s.Reads + o.Reads,
		DegradedReads:         s.DegradedReads + o.DegradedReads,
		DegradedReadFallbacks: s.DegradedReadFallbacks + o.DegradedReadFallbacks,
		Writes:                s.Writes + o.Writes,
		FullStripeFlushes:     s.FullStripeFlushes + o.FullStripeFlushes,
		SubStripeFlushes:      s.SubStripeFlushes + o.SubStripeFlushes,
		SubStripeFallbacks:    s.SubStripeFallbacks + o.SubStripeFallbacks,
		ScrubbedStripes:       s.ScrubbedStripes + o.ScrubbedStripes,
		ScrubHits:             s.ScrubHits + o.ScrubHits,
		RepairedStripes:       s.RepairedStripes + o.RepairedStripes,
		RepairedSectors:       s.RepairedSectors + o.RepairedSectors,
		RepairDrops:           s.RepairDrops + o.RepairDrops,
		RepairRequeues:        s.RepairRequeues + o.RepairRequeues,
		UnrecoverableStripes:  max(s.UnrecoverableStripes, o.UnrecoverableStripes),
		JournaledFlushes:      s.JournaledFlushes + o.JournaledFlushes,
		RecoveredStripes:      s.RecoveredStripes + o.RecoveredStripes,
		VerifiedSectors:       s.VerifiedSectors + o.VerifiedSectors,
		ChecksumMismatches:    s.ChecksumMismatches + o.ChecksumMismatches,
		HedgesLaunched:        s.HedgesLaunched + o.HedgesLaunched,
		HedgeWins:             s.HedgeWins + o.HedgeWins,
		HedgeLosses:           s.HedgeLosses + o.HedgeLosses,
		HedgeFails:            s.HedgeFails + o.HedgeFails,
	}
}
