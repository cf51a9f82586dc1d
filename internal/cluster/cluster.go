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
// Two latency defences ride on the same column seam. A per-backend
// request coalescer (store.CoalescingDevice) merges adjacent stripe
// extents queued behind its in-flight call into single vectored
// calls. Hedged reads bound tail latency the "Tail at Scale" way: when
// a column read exceeds a tracked latency percentile, the extent is
// reconstructed from the n−1 sibling columns through the code's repair
// path, and the first usable answer wins. Hedging at the column level
// is deliberate — the store holds a stripe's shard lock across its
// device calls, so a store-level hedge would serialize behind the very
// read it is trying to outrun, while sibling columns are idle and a
// reconstruction there proceeds in parallel.
package cluster
