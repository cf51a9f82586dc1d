// Package cluster turns the single-process STAIR store into a
// distributed volume: it owns a fleet map of device-server endpoints
// (with spares), places each volume's n stripe columns onto distinct
// servers by rendezvous hashing, and watches the fleet's health. When a
// server dies — missed heartbeats, or transport errors surfacing from
// live I/O — its column flips to a fast-failing degraded state (served
// by the store's existing degraded-read path, with no per-request
// transport timeouts), a spare is dialled and swapped in, and
// store.RebuildDevice reconstructs the column in the background.
//
// One latency defence rides along. Hedged reads (Config.Hedge) bound
// tail latency the "Tail at Scale" way inside the store: a client's block
// read that outlives its column's latency percentile is solved from n−m
// sectors of its own row (checksum-verified with Config.Integrity), its
// primary left on the store's I/O helpers, bounded per column, which
// Close joins. Only client reads hedge, so rebuilds, scrubs and repairs
// see exactly what the columns answered.
package cluster
