package cluster

import "sync/atomic"

// Stats is a snapshot of the cluster layer's counters: the failure
// detector's activity, failover and rebuild outcomes, and what hedged
// reads won.
type Stats struct {
	// Heartbeats counts health probes issued; MissedHeartbeats counts
	// probes that failed.
	Heartbeats       uint64 `json:"heartbeats"`
	MissedHeartbeats uint64 `json:"missed_heartbeats"`
	// Deaths counts columns declared dead; Failovers counts successful
	// spare swaps; SpareExhausted counts deaths left degraded because
	// no spare remained.
	Deaths         uint64 `json:"deaths"`
	Failovers      uint64 `json:"failovers"`
	SpareExhausted uint64 `json:"spare_exhausted"`
	// Rebuilds counts background rebuilds completed onto a swapped-in
	// spare; RebuildErrors counts rebuild sweeps that returned an error
	// (the scrubber re-finds what they missed).
	Rebuilds      uint64 `json:"rebuilds"`
	RebuildErrors uint64 `json:"rebuild_errors"`
	// Hedged client read outcomes, copied from the store's counters (see
	// store.Stats): launched = a column read blew its percentile and the
	// block's row was solved; wins = the solve served the read; losses =
	// the slow read served it after all; fails = neither could.
	HedgesLaunched uint64 `json:"hedges_launched"`
	HedgeWins      uint64 `json:"hedge_wins"`
	HedgeLosses    uint64 `json:"hedge_losses"`
	HedgeFails     uint64 `json:"hedge_fails"`
	// DeadColumns and SparesLeft are gauges of the current placement:
	// columns presently marked dead (declared but not yet failed over,
	// or degraded with the spare pool empty) and spares still unused.
	// Together with Deaths/Failovers they let a soak harness assert the
	// detector converged — every death either failed over or exhausted
	// the pool.
	DeadColumns uint64 `json:"dead_columns"`
	SparesLeft  uint64 `json:"spares_left"`
	// Deprecated: always zero; there is no request coalescer. Kept until
	// bench/ stops reading it.
	Coalesce struct{ Reads, Writes, MergedReads, MergedWrites uint64 } `json:"-"`
}

// counters is the live atomic form of Stats.
type clusterCounters struct {
	heartbeats, missedHeartbeats      atomic.Uint64
	deaths, failovers, spareExhausted atomic.Uint64
	rebuilds, rebuildErrors           atomic.Uint64
}
