package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"stair/internal/core"
	"stair/internal/store"
)

func init() {
	register("store", "block-store throughput, healthy vs degraded (writes BENCH_store.json)", runStore)
}

// storeBenchConfig pins the measured volume so the JSON is reproducible
// run to run (throughput varies with the machine; the shape does not).
// The concurrency fields record how the sharded store was tuned — the
// *-concurrent scenarios compare LockShards=1 (the old global-mutex
// regime) against this configuration.
type storeBenchConfig struct {
	N             int   `json:"n"`
	R             int   `json:"r"`
	M             int   `json:"m"`
	E             []int `json:"e"`
	SectorSize    int   `json:"sector_size"`
	Stripes       int   `json:"stripes"`
	UserBytes     int   `json:"user_bytes"`
	RepairWorkers int   `json:"repair_workers"`
	LockShards    int   `json:"lock_shards"`
	DegradedCache int   `json:"degraded_cache"`
	LoadWorkers   int   `json:"load_workers"`
	// GoMaxProcs records the host parallelism the run had: the
	// *-concurrent entries can only scale past the 1-shard baseline
	// when this exceeds 1 (on a single core, sharding buys concurrency
	// but the CPU bounds wall-clock throughput).
	GoMaxProcs int `json:"gomaxprocs"`
	// LatencyMS and LatencyStripes describe the *-latency-* scenarios:
	// a store over LatencyDevice-wrapped memory devices charging
	// LatencyMS per device *call*, measured vectored (one call per
	// device per stripe) and through the PerSectorDevice adapter (one
	// call per sector — what the pre-redesign API paid). The spread
	// between the two is the vectored-I/O win on remote-like media.
	LatencyMS      float64 `json:"latency_ms"`
	LatencyStripes int     `json:"latency_stripes"`
	// GFKernel records which GF region kernel (internal/gf dispatch:
	// avx2/ssse3/neon/portable, or a STAIR_GF_KERNEL override) computed
	// every encode/decode in this run — throughput entries are only
	// comparable across runs with the same kernel.
	GFKernel string `json:"gf_kernel"`
	// FlushWorkers is the pipeline width of the *-async-* scenarios:
	// the same fill on the same LatencyMS media, flushed synchronously
	// (async-off) versus through the background pipeline (async-<N>w),
	// which overlaps one stripe's device round trips with another's
	// encode. On per-call-latency media the win tracks the pipeline
	// width up to the stripe count.
	FlushWorkers int `json:"flush_workers"`
}

type storeBenchResult struct {
	// Op names the scenario, e.g. "read-degraded-2dev".
	Op string `json:"op"`
	// MiBps is user-data throughput in MiB/s (raw stripe bytes for the
	// scrub scenario).
	MiBps float64 `json:"mib_per_s"`
	// AllocsPerOp and BytesPerOp are heap allocations (count and bytes)
	// amortised per block-sized unit of the scenario's work — the
	// steady-state figure the slab arena and buffer pool are meant to
	// hold at ~0 for the healthy read and full-stripe write paths.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Note documents what the scenario exercises.
	Note string `json:"note,omitempty"`
}

// measureAllocs runs op once and reports heap allocations amortised
// over ops block-sized units of work. Counter deltas, not GC-dependent
// heap sizes, so no explicit GC is needed; the store is quiescent
// between scenarios, so the deltas belong to the measured op.
func measureAllocs(ops int, op func() error) (allocsPerOp, bytesPerOp float64) {
	if ops <= 0 {
		ops = 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := op(); err != nil {
		return 0, 0
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
}

type storeBenchReport struct {
	Config  storeBenchConfig   `json:"config"`
	Results []storeBenchResult `json:"results"`
	// Cluster and Scenario hold the cluster and scenario experiments'
	// sections; each experiment rewrites only its own part of
	// BENCH_store.json.
	Cluster  *clusterBenchReport  `json:"cluster,omitempty"`
	Scenario *scenarioBenchReport `json:"scenario,omitempty"`
}

// runStore measures the internal/store data paths end to end — batched
// full-stripe writes, sub-stripe incremental updates, healthy reads,
// degraded reads under 1 and m device failures, and a scrub sweep — and
// emits the table plus a machine-readable BENCH_store.json.
func runStore(o options) error {
	// Loaded up front so an unreadable report fails the run before the
	// measurements, not after.
	prev, err := loadStoreReport()
	if err != nil {
		return err
	}
	ctx := context.Background()
	const (
		n, r, m       = 8, 16, 2
		stripes       = 8
		repairWorkers = 2
		lockShards    = 32
		degradedCache = 8
	)
	e := []int{1, 1, 2}
	code, err := core.New(core.Config{N: n, R: r, M: m, E: e})
	if err != nil {
		return err
	}
	sector := sectorSizeFor(o.stripeMiB<<20, n, r, code.Field().SymbolBytes())
	// At least 4 workers even on small hosts, so the concurrent
	// scenarios always exercise the sharded locks; wall-clock scaling
	// over the 1-shard baseline shows up with spare cores.
	loadWorkers := runtime.GOMAXPROCS(0)
	if loadWorkers < 4 {
		loadWorkers = 4
	}
	if loadWorkers > stripes {
		loadWorkers = stripes
	}

	openShards := func(shards int) (*store.Store, error) {
		return store.Open(store.Config{
			Code: code, SectorSize: sector, Stripes: stripes,
			RepairWorkers: repairWorkers, LockShards: shards,
			DegradedCache: degradedCache, MaxDirtyStripes: stripes,
		})
	}
	open := func() (*store.Store, error) { return openShards(lockShards) }
	fill := func(s *store.Store) error {
		buf := make([]byte, sector)
		rng := rand.New(rand.NewSource(1))
		for b := 0; b < s.Blocks(); b++ {
			rng.Read(buf)
			if err := s.WriteBlock(ctx, b, buf); err != nil {
				return err
			}
		}
		return s.Flush(ctx)
	}
	readAll := func(s *store.Store) error {
		for b := 0; b < s.Blocks(); b++ {
			buf, err := s.ReadBlock(ctx, b)
			if err != nil {
				return err
			}
			s.ReleaseBlock(buf)
		}
		return nil
	}

	s, err := open()
	if err != nil {
		return err
	}
	defer s.Close()
	userBytes := s.Blocks() * sector
	rawBytes := n * r * stripes * sector
	cfg := storeBenchConfig{
		N: n, R: r, M: m, E: e, SectorSize: sector, Stripes: stripes, UserBytes: userBytes,
		RepairWorkers: repairWorkers, LockShards: lockShards,
		DegradedCache: degradedCache, LoadWorkers: loadWorkers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GFKernel:   code.Field().KernelName(),
	}
	var results []storeBenchResult
	add := func(op, note string, bytes int, fn func() error) error {
		mibps, err := timeOp(bytes, fn)
		if err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
		allocs, allocBytes := measureAllocs(bytes/sector, fn)
		results = append(results, storeBenchResult{
			Op: op, MiBps: mibps, AllocsPerOp: allocs, BytesPerOp: allocBytes, Note: note,
		})
		return nil
	}

	if err := add("write-seq", "sequential fill: batched parallel full-stripe encodes", userBytes,
		func() error { return fill(s) }); err != nil {
		return err
	}
	if err := add("read-healthy", "sequential read, no failures", userBytes,
		func() error { return readAll(s) }); err != nil {
		return err
	}
	// Sub-stripe updates: one block per stripe, flushed individually
	// through the §5.2 incremental parity path.
	perStripe := s.Blocks() / stripes
	if err := add("write-substripe", "single-block read–modify–write with incremental parity", stripes*sector,
		func() error {
			buf := make([]byte, sector)
			rng := rand.New(rand.NewSource(2))
			for stripe := 0; stripe < stripes; stripe++ {
				rng.Read(buf)
				if err := s.WriteBlock(ctx, stripe*perStripe+stripe%perStripe, buf); err != nil {
					return err
				}
				if err := s.Flush(ctx); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		return err
	}
	if err := add("scrub", "full read sweep of every stripe (raw bytes)", rawBytes,
		func() error { _, err := s.Scrub(ctx); return err }); err != nil {
		return err
	}
	s.Quiesce()

	// Degraded scenarios on fresh stores so damage does not accumulate.
	for _, fails := range []int{1, m} {
		ds, err := open()
		if err != nil {
			return err
		}
		if err := fill(ds); err != nil {
			ds.Close()
			return err
		}
		for dev := 0; dev < fails; dev++ {
			if err := ds.FailDevice(dev); err != nil {
				ds.Close()
				return err
			}
		}
		op := fmt.Sprintf("read-degraded-%ddev", fails)
		note := fmt.Sprintf("sequential read with %d failed device(s): upstairs repair + degraded-stripe cache", fails)
		if err := add(op, note, userBytes, func() error { return readAll(ds) }); err != nil {
			ds.Close()
			return err
		}
		ds.Close()
	}

	// End-to-end integrity overhead: the same sequential read against
	// three identically-filled stores — no integrity layer, checksums
	// verified on every read (the full tax), and records maintained but
	// verification disabled (isolating the read-side CRC check from the
	// write-side record upkeep). The three are measured interleaved,
	// best-of-3 each, so machine-state drift between scenarios cancels
	// out of the overhead figure instead of polluting it.
	openInteg := func(opts *store.IntegrityOptions) (*store.Store, error) {
		return store.Open(store.Config{
			Code: code, SectorSize: sector, Stripes: stripes,
			RepairWorkers: repairWorkers, LockShards: lockShards,
			DegradedCache: degradedCache, MaxDirtyStripes: stripes,
			Integrity: opts,
		})
	}
	integStores := make([]*store.Store, 3)
	for i, opts := range []*store.IntegrityOptions{
		nil,
		{Epoch: 1},
		{Epoch: 1, DisableVerify: true},
	} {
		is, err := openInteg(opts)
		if err != nil {
			return err
		}
		defer is.Close()
		integStores[i] = is
	}
	integOps := []struct {
		op, note string
	}{
		{"read-integrity-baseline", "no integrity layer (paired baseline for the rows below)"},
		{"read-integrity-verified", "per-sector checksums verified on every read"},
		{"read-integrity-noverify", "checksum records maintained on writes, reads unverified"},
	}
	writeMiBps := make([]float64, 3)
	for i, is := range integStores {
		mibps, err := timeOp(userBytes, func() error { return fill(is) })
		if err != nil {
			return fmt.Errorf("write-%s: %w", integOps[i].op, err)
		}
		writeMiBps[i] = mibps
	}
	best := make([]float64, 3)
	for round := 0; round < 3; round++ {
		for i, is := range integStores {
			mibps, err := timeOp(userBytes, func() error { return readAll(is) })
			if err != nil {
				return fmt.Errorf("%s: %w", integOps[i].op, err)
			}
			if mibps > best[i] {
				best[i] = mibps
			}
		}
	}
	wAllocs, wBytes := measureAllocs(userBytes/sector, func() error { return fill(integStores[1]) })
	results = append(results, storeBenchResult{
		Op: "write-seq-integrity-verified", MiBps: writeMiBps[1],
		AllocsPerOp: wAllocs, BytesPerOp: wBytes,
		Note: fmt.Sprintf("sequential fill with record upkeep (baseline %.1f MiB/s)", writeMiBps[0]),
	})
	for i, op := range integOps {
		note := op.note
		if i > 0 && best[0] > 0 {
			note += fmt.Sprintf(" (%.1f%% vs paired baseline)", (best[0]-best[i])/best[0]*100)
		}
		is := integStores[i]
		rAllocs, rBytes := measureAllocs(userBytes/sector, func() error { return readAll(is) })
		results = append(results, storeBenchResult{
			Op: op.op, MiBps: best[i], AllocsPerOp: rAllocs, BytesPerOp: rBytes, Note: note,
		})
	}

	// Concurrent load over disjoint stripe ranges: the same operation on
	// a 1-shard store (every stripe behind one lock — the old
	// global-mutex regime) and on the sharded store, so the JSON records
	// the scaling the striped lock table buys.
	split := func(workers int, fn func(stripe int) error) error {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		per := stripes / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*per, (w+1)*per
			if w == workers-1 {
				hi = stripes
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for stripe := lo; stripe < hi; stripe++ {
					if err := fn(stripe); err != nil {
						errs <- err
						return
					}
				}
			}(lo, hi)
		}
		wg.Wait()
		close(errs)
		return <-errs
	}
	for _, bench := range []struct {
		suffix string
		shards int
	}{
		{"-1shard", 1},
		{"", lockShards},
	} {
		cs, err := openShards(bench.shards)
		if err != nil {
			return err
		}
		if err := fill(cs); err != nil {
			cs.Close()
			return err
		}
		perStripe := cs.Blocks() / stripes
		regime := fmt.Sprintf("%d workers, disjoint stripes, %d lock shard(s), GOMAXPROCS=%d",
			loadWorkers, bench.shards, runtime.GOMAXPROCS(0))
		if err := add("write-concurrent"+bench.suffix, regime+": parallel full-stripe encodes", userBytes,
			func() error {
				buf := make([]byte, sector)
				rand.New(rand.NewSource(3)).Read(buf)
				return split(loadWorkers, func(stripe int) error {
					for ord := 0; ord < perStripe; ord++ {
						if err := cs.WriteBlock(ctx, stripe*perStripe+ord, buf); err != nil {
							return err
						}
					}
					return nil
				})
			}); err != nil {
			cs.Close()
			return err
		}
		if err := cs.Flush(ctx); err != nil {
			cs.Close()
			return err
		}
		if err := add("read-concurrent"+bench.suffix, regime+": healthy reads", userBytes,
			func() error {
				return split(loadWorkers, func(stripe int) error {
					for ord := 0; ord < perStripe; ord++ {
						buf, err := cs.ReadBlock(ctx, stripe*perStripe+ord)
						if err != nil {
							return err
						}
						cs.ReleaseBlock(buf)
					}
					return nil
				})
			}); err != nil {
			cs.Close()
			return err
		}
		cs.Close()
	}

	// Per-backend comparison on simulated remote media: every device
	// call costs latencyMS, so the scenarios measure calls, not bytes.
	// The vectored store issues one call per device per stripe on the
	// flush/load/scrub paths; the per-sector baseline (the old API's
	// regime, reproduced by PerSectorDevice) issues one per sector and
	// pays R× the round trips.
	const (
		latencyMS      = 1
		latencyStripes = 4
	)
	cfg.LatencyMS, cfg.LatencyStripes = latencyMS, latencyStripes
	openWrapped := func(wrap func(store.Device) store.Device) (*store.Store, error) {
		devs := make([]store.Device, n)
		for i := range devs {
			devs[i] = wrap(store.NewMemDevice(latencyStripes*r, sector))
		}
		return store.Open(store.Config{
			Code: code, SectorSize: sector, Stripes: latencyStripes, Devices: devs,
			RepairWorkers: repairWorkers, LockShards: lockShards,
			DegradedCache: degradedCache, MaxDirtyStripes: latencyStripes,
		})
	}
	for _, backend := range []struct {
		suffix string
		wrap   func(store.Device) store.Device
	}{
		{"latency-vectored", func(d store.Device) store.Device {
			return store.NewLatencyDevice(d, latencyMS*time.Millisecond, 0)
		}},
		{"latency-persector", func(d store.Device) store.Device {
			return store.NewPerSectorDevice(store.NewLatencyDevice(d, latencyMS*time.Millisecond, 0))
		}},
	} {
		ls, err := openWrapped(backend.wrap)
		if err != nil {
			return err
		}
		lsBytes := ls.Blocks() * sector
		lsRaw := n * r * latencyStripes * sector
		regime := fmt.Sprintf("%dms/call devices, %s", latencyMS, backend.suffix)
		if err := add("write-seq-"+backend.suffix, regime+": full-stripe flushes", lsBytes,
			func() error { return fill(ls) }); err != nil {
			ls.Close()
			return err
		}
		if err := add("scrub-"+backend.suffix, regime+": read sweep (raw bytes)", lsRaw,
			func() error { _, err := ls.Scrub(ctx); return err }); err != nil {
			ls.Close()
			return err
		}
		// Degraded reads: one lost block per stripe, so the measured cost
		// is the full-stripe load feeding the reconstruction — the path
		// whose round-trip count the vectored API collapses from n×r to
		// n. Re-failing the device inside the measured op purges the
		// degraded cache, so every iteration (including timeOp's
		// warm-up) re-pays those stripe loads.
		perStripeBlocks := len(code.DataCells())
		var deadBlocks []int
		for stripe := 0; stripe < latencyStripes; stripe++ {
			for ord := 0; ord < perStripeBlocks; ord++ {
				if code.DataCells()[ord].Col == 0 {
					deadBlocks = append(deadBlocks, stripe*perStripeBlocks+ord)
					break
				}
			}
		}
		if err := add("read-degraded-"+backend.suffix, regime+": stripe loads for reconstruction", len(deadBlocks)*sector,
			func() error {
				if err := ls.FailDevice(0); err != nil {
					return err
				}
				for _, b := range deadBlocks {
					buf, err := ls.ReadBlock(ctx, b)
					if err != nil {
						return err
					}
					ls.ReleaseBlock(buf)
				}
				return nil
			}); err != nil {
			ls.Close()
			return err
		}
		ls.Close()
	}

	// Synchronous vs pipelined flush on the same 1 ms/call media: the
	// sequential fill is identical, but with FlushWorkers the filled
	// stripe buffers land through the background pipeline, so separate
	// stripes' write-backs (n calls × 1 ms each) overlap instead of
	// serialising behind each WriteBlock.
	const asyncFlushWorkers = 4
	cfg.FlushWorkers = asyncFlushWorkers
	for _, mode := range []struct {
		suffix  string
		workers int
	}{
		{"async-off", 0},
		{fmt.Sprintf("async-%dw", asyncFlushWorkers), asyncFlushWorkers},
	} {
		devs := make([]store.Device, n)
		for i := range devs {
			devs[i] = store.NewLatencyDevice(store.NewMemDevice(latencyStripes*r, sector), latencyMS*time.Millisecond, 0)
		}
		as, err := store.Open(store.Config{
			Code: code, SectorSize: sector, Stripes: latencyStripes, Devices: devs,
			RepairWorkers: repairWorkers, LockShards: lockShards,
			DegradedCache: degradedCache, MaxDirtyStripes: latencyStripes,
			FlushWorkers: mode.workers,
		})
		if err != nil {
			return err
		}
		asBytes := as.Blocks() * sector
		regime := fmt.Sprintf("%dms/call devices, %s", latencyMS, mode.suffix)
		note := regime + ": synchronous full-stripe flushes"
		if mode.workers > 0 {
			note = fmt.Sprintf("%s: %d-worker flush pipeline (encode/write-back overlap)", regime, mode.workers)
		}
		if err := add("write-seq-"+mode.suffix, note, asBytes,
			func() error { return fill(as) }); err != nil {
			as.Close()
			return err
		}
		as.Close()
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "op\tMiB/s\tallocs/op\tB/op\tnote\n")
	for _, res := range results {
		fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%.0f\t%s\n", res.Op, res.MiBps, res.AllocsPerOp, res.BytesPerOp, res.Note)
	}
	w.Flush()

	report := storeBenchReport{Config: cfg, Results: results,
		Cluster: prev.Cluster, Scenario: prev.Scenario}
	if err := writeStoreReport(report); err != nil {
		return err
	}
	fmt.Println("\nwrote BENCH_store.json")
	return nil
}
