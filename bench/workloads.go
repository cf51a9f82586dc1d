package main

import "stair/internal/core"

// Every workload uses the same code: n=8, r=16, m=2, e=(1,1,2) — two
// whole-device failures plus sector failures in three more chunks, the
// shape of the paper's §6 evaluation. A stripe holds 92 data blocks.
var codeConfig = core.Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}}

const (
	codeN         = 8
	codeR         = 16
	codeM         = 2
	dataPerStripe = (codeN-codeM)*codeR - 4 // n−m data columns less s=4 global parities
	burstLen      = 2                       // max(e): the longest sector burst one chunk may take
)

type backend int

const (
	backendMem backend = iota
	backendFile
	backendCluster
)

// workload fixes the geometry, the pass sizes and the number of rounds.
// Pass sizes are fixed work, sized so that a pass takes a few
// milliseconds on a quiet machine: the contract's total time cap allows
// about 25 s of measurement per run, and the estimator (quietFloor) wants
// as many passes as that can hold, each short enough to fit inside one of
// the host's quiet moments. Volumes are small for the same reason — what
// a later change to this repo moves is instructions, copies, allocations
// and device calls per op, all of which show on a cache-resident volume,
// with far less host noise.
type workload struct {
	name    string
	backend backend
	// rounds is how many rounds a run measures. It is committed, not
	// derived from the clock: the quiet floor is an extreme order
	// statistic, so its level depends on how many passes it is taken over,
	// and two commits must take it over the same number. The counts fill
	// 15–18 s on a quiet host (29 s on cluster-http); BENCHMARK.json's
	// run_seconds only caps a run on a slower one.
	rounds int
	// sectorSize is the device sector = logical block size; stripes is
	// the volume size. Every volume has more stripes than the store's
	// degraded-stripe cache (8), so cycling degraded reads always miss.
	sectorSize int
	stripes    int
	// seqStripes full stripes are overwritten per write_seq pass.
	seqStripes int
	// updates single-block overwrites per update pass. It divides 92 or
	// is a multiple of it, so that a whole number of passes (a cycle) hits
	// every in-stripe position equally often and the exact counts do not
	// depend on the seed.
	updates int
	// syncEvery issues a Sync after every syncEvery-th update (0: never).
	syncEvery int
	// reads and degradedReads are block reads per pass.
	reads         int
	degradedReads int
	// failStride runs the failure episode (fail, degraded_read, replace,
	// rebuild, scrub) every failStride-th round; setupStride likewise for
	// the cold set-up pass. Every phase gets at least 20 passes per run.
	failStride  int
	setupStride int
}

var workloads = []workload{
	{
		// 4 MiB stripes, the paper's scale: gf kernels and core plans do
		// most of the work, store bookkeeping is amortised away.
		name:       "bulk-mem",
		backend:    backendMem,
		rounds:     400,
		sectorSize: 32 << 10, stripes: 10,
		seqStripes: 2, updates: 4, reads: 1024, degradedReads: 4, failStride: 1, setupStride: 6,
	},
	{
		// 64 KiB stripes: per-op cost is the store itself (locks, arena,
		// plan dispatch, integrity staging, allocations).
		name:       "smallio-mem",
		backend:    backendMem,
		rounds:     1200,
		sectorSize: 512, stripes: 32,
		seqStripes: 32, updates: 92, reads: 8192, degradedReads: 62, failStride: 1, setupStride: 6,
	},
	{
		// FileDevice with the intent journal and Sync: journal appends,
		// fsync, pwrite and sidecar writes dominate. The volume is the
		// smallest the degraded-stripe cache allows and set-ups are rare:
		// a run still puts 1 GiB, 68 000 writes and 17 000 flushes on the
		// disk in 15 s, and at twice that the host's disk throttled the
		// third of three runs in a row to a fifth of its speed.
		name:       "durable-file",
		backend:    backendFile,
		rounds:     400,
		sectorSize: 4 << 10, stripes: 9,
		seqStripes: 2, updates: 4, syncEvery: 4, reads: 2048, degradedReads: 16, failStride: 1, setupStride: 16,
	},
	{
		// cluster.Volume over 8 in-process DeviceServers on loopback
		// net/http, coalescer and hedging at defaults: wire format and
		// round trips per op dominate.
		name:       "cluster-http",
		backend:    backendCluster,
		rounds:     120,
		sectorSize: 4 << 10, stripes: 9,
		seqStripes: 1, updates: 2, reads: 8, degradedReads: 4, failStride: 5, setupStride: 6,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) blocks() int { return w.stripes * dataPerStripe }
