package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"stair/internal/core"
	"stair/internal/store"
)

// phase is one timed step of a round. Every workload runs the same
// phases, so metric names are shared across workloads.
type phase uint8

const (
	phWriteSeq phase = iota
	phUpdate
	phRead
	phDegradedRead
	phRebuild
	phScrub
	phSetup
	numPhases
)

var phaseNames = [numPhases]string{"write_seq", "update", "read", "degraded_read", "rebuild", "scrub", "setup"}

// ioPhases are the four block-I/O phases allocs_per_op and the device
// call ratios are taken over.
var ioPhases = [...]phase{phWriteSeq, phUpdate, phRead, phDegradedRead}

const (
	// verifySample blocks of every pass are re-read untimed and compared
	// with the shadow.
	verifySample = 8
	// maxFailures aborts a run whose volume is evidently broken.
	maxFailures = 100
	// spanSamples ops of a pass, about, are recorded in a traced round.
	spanSamples = 24
	// warmupRounds rounds run before the first measured one and are
	// discarded.
	warmupRounds = 5
)

// options are the knobs of one run. A run measures the workload's
// committed number of rounds, so that every run takes a phase's quiet
// floor over the same number of passes; seconds only caps a run on a host
// too slow to get through them (0: no cap).
type options struct {
	seed    uint64
	seconds float64
	rounds  int // tests: measure this many rounds, not the workload's count
	trace   bool
	outDir  string // where a traced run writes trace-<workload>.json
	scratch string // where file-backed volumes and probe journals live
}

// Indices into storeCounts: the part of store.Stats the per-layer
// metrics use.
const (
	scReads = iota
	scDegradedReads
	scCacheHits
	scVerified
	scFullFlushes
	scSubFlushes
	scJournaled
	scRepairedSectors
	numStoreCounters
)

// storeCounts is a snapshot (or a difference of two) of those counters.
type storeCounts [numStoreCounters]uint64

func countsOf(st store.Stats) storeCounts {
	return storeCounts{
		scReads: st.Reads, scDegradedReads: st.DegradedReads, scCacheHits: st.DegradedCacheHits,
		scVerified: st.VerifiedSectors, scFullFlushes: st.FullStripeFlushes, scSubFlushes: st.SubStripeFlushes,
		scJournaled: st.JournaledFlushes, scRepairedSectors: st.RepairedSectors,
	}
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a storeCounts) add(b storeCounts) storeCounts {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// passRec is what one pass leaves behind.
type passRec struct {
	ran     bool
	ns      float64
	mallocs uint64
	dev     devSnapshot
	st      storeCounts
	journal int64 // journal file growth over the pass's Flush calls
}

// roundRec is one measured round.
type roundRec struct {
	traced bool
	pass   [numPhases]passRec
	// dial and open are step times of this round's set-up pass.
	dial, open time.Duration
	probes     []float64 // ns per probe pass, indexed like the probe list
}

// runner drives one workload from a single client goroutine in a closed
// loop: the next call is issued when the previous one returns.
type runner struct {
	w   *workload
	opt options
	ctx context.Context
	rec *recorder
	vol *volume
	sh  *shadow
	rng *rand.Rand

	image    []byte  // version-0 content of every block: the prefill
	payload  []byte  // the pass's pre-generated write payloads
	readBuf  []byte  // caller-owned ReadBlockInto destination
	touched  []int   // blocks the current pass touched
	ordOrder []int   // balanced order of the 92 in-stripe positions (see balancedOrder)
	byCol    [][]int // data ordinals per stripe column
	dataCols []int   // columns holding at least one data block
	devOff   int     // seeded starts of the failed-device and write_seq rotations
	seqOff   int
	probes   []probe

	attempted, failed int
	episodes          int // failure episodes so far, warm-up included
	settles           int // extra untimed scrubs a round needed to converge
	discarded         int // rebuild and scrub passes dropped for not doing the fixed work
	firstErr          error

	// the pass in flight
	curStart  time.Time
	curSpan   int32
	memBefore runtime.MemStats
	devBefore devSnapshot
	stBefore  storeCounts
	jrnGrowth int64

	rounds    []roundRec
	spans     *spanStats // folded spans of the traced, measured rounds
	final     finalState
	setupNS   float64 // the volume under test's own set-up
	gcStart   runtime.MemStats
	heapPeak  uint64
	cpuStart  time.Duration
	wallStart time.Time
	elapsed   time.Duration
}

func newRunner(ctx context.Context, w *workload, opt options) *runner {
	r := &runner{w: w, opt: opt, ctx: ctx}
	// Two independent streams from one seed: content and op sequence.
	r.rng = rand.New(rand.NewPCG(opt.seed, 0x5741495242454e43))
	bs := w.sectorSize
	r.sh = newShadow(opt.seed, w.blocks(), bs)
	r.image = make([]byte, w.blocks()*bs)
	for b := 0; b < w.blocks(); b++ {
		r.sh.current(r.image[b*bs:(b+1)*bs], b)
	}
	maxWrites := max(w.seqStripes*dataPerStripe, w.updates)
	r.payload = make([]byte, maxWrites*bs)
	r.readBuf = make([]byte, bs)
	r.devOff = r.rng.IntN(codeN)
	r.seqOff = r.rng.IntN(w.stripes)
	if opt.trace {
		r.rec = newRecorder()
		r.spans = new(spanStats)
	}
	return r
}

// fail counts one failed op.
func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
	fmt.Fprintf(os.Stderr, "bench: FAILED op: %v\n", err)
}

// do runs one benchmark call into the store under a span and counts it.
func (r *runner) do(kind spanKind, what string, call func() error) {
	r.attempted++
	sp := r.rec.begin(kind)
	err := call()
	r.rec.end(sp)
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", what, err))
	}
}

// writeBlock and readBlock are do without the closure: they are the
// sub-microsecond ops, and an indirect call each would show in their time.
func (r *runner) writeBlock(b int, data []byte) {
	r.attempted++
	sp := r.rec.begin(spWriteBlock)
	err := r.vol.st.WriteBlock(r.ctx, b, data)
	r.rec.end(sp)
	if err != nil {
		r.fail(fmt.Errorf("WriteBlock(%d): %w", b, err))
	}
}

func (r *runner) readBlock(b int) {
	r.attempted++
	sp := r.rec.begin(spReadBlock)
	err := r.vol.st.ReadBlockInto(r.ctx, b, r.readBuf)
	r.rec.end(sp)
	if err != nil {
		r.fail(fmt.Errorf("ReadBlockInto(%d): %w", b, err))
	}
}

// flush lands the buffered writes. A traced run of a journaled volume
// also tracks how far the intent log grew (per flush, because a Sync
// checkpoint truncates it); the untraced run keeps the two stat calls
// out of its timed region.
func (r *runner) flush() {
	trackJournal := r.opt.trace && r.vol.jrn != nil
	var before int64
	if trackJournal {
		before = fileSize(r.vol.jrn.Path())
	}
	r.do(spFlush, "Flush", func() error { return r.vol.st.Flush(r.ctx) })
	if trackJournal {
		if grew := fileSize(r.vol.jrn.Path()) - before; grew > 0 {
			r.jrnGrowth += grew
		}
	}
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// control runs an untimed control-plane call that must succeed.
func (r *runner) control(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", what, err))
	}
}

// beginPass starts the timed region of a phase. Allocation, device and
// store counters are read before the clock starts.
func (r *runner) beginPass(ph phase, round int) {
	r.jrnGrowth = 0
	r.rec.setPass(ph, round)
	r.devBefore = r.vol.counters.snapshot()
	r.stBefore = countsOf(r.vol.st.Stats())
	runtime.ReadMemStats(&r.memBefore)
	r.curSpan = r.rec.begin(spPass)
	r.curStart = time.Now()
}

// endPass stops the clock and reads the counters back.
func (r *runner) endPass() passRec {
	ns := float64(time.Since(r.curStart))
	r.rec.end(r.curSpan)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapInuse > r.heapPeak {
		r.heapPeak = after.HeapInuse
	}
	return passRec{
		ran: true, ns: ns,
		mallocs: after.Mallocs - r.memBefore.Mallocs,
		dev:     r.vol.counters.snapshot().sub(r.devBefore),
		st:      countsOf(r.vol.st.Stats()).sub(r.stBefore),
		journal: r.jrnGrowth,
	}
}

// sampleStep is how many ops of an n-op pass share one recorded op in a
// traced round: a pass records about spanSamples of its ops in full (the
// op's span and every device call under it), so that tracing neither
// swamps sub-microsecond ops nor holds millions of spans.
func (r *runner) sampleStep(n int) int {
	if !r.rec.enabled() {
		return 1
	}
	return max(1, n/spanSamples)
}

// recordOp decides, in a pass sampled at step, whether op j is recorded;
// always forces it. recordRest turns recording back on after the loop.
func (r *runner) recordOp(step, j int, always bool) {
	if step > 1 {
		r.rec.set(always || j%step == 0)
	}
}

func (r *runner) recordRest(step int) {
	if step > 1 {
		r.rec.set(true)
	}
}

// verifyTouched re-reads a sample of the blocks the pass touched,
// untimed and unrecorded, and compares them with the shadow.
func (r *runner) verifyTouched() {
	was := r.rec != nil && r.rec.on.Swap(false)
	n := len(r.touched)
	for i := 0; i < verifySample && i < n; i++ {
		r.verifyBlock(r.touched[(i*n)/min(verifySample, n)])
	}
	if was {
		r.rec.on.Store(true)
	}
}

func (r *runner) verifyBlock(b int) {
	r.attempted++
	if err := r.vol.st.ReadBlockInto(r.ctx, b, r.readBuf); err != nil {
		r.fail(fmt.Errorf("verify read of block %d: %w", b, err))
		return
	}
	if err := r.sh.check(b, r.readBuf); err != nil {
		r.fail(err)
	}
}

// prepare opens the volume under test (the run's first, untimed-for-the-
// metric set-up) and derives the block maps from its code.
func (r *runner) prepare() error {
	t0 := time.Now()
	v, err := openVolume(r.ctx, r.w, r.image, r.rec, r.opt.scratch)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setupNS = float64(time.Since(t0))
	r.vol = v
	if got := v.st.Blocks(); got != r.w.blocks() {
		return fmt.Errorf("volume has %d blocks, want %d", got, r.w.blocks())
	}
	cells := v.code.DataCells()
	r.byCol = make([][]int, codeN)
	for ord, c := range cells {
		r.byCol[c.Col] = append(r.byCol[c.Col], ord)
	}
	for col, ords := range r.byCol {
		if len(ords) > 0 {
			r.dataCols = append(r.dataCols, col)
		}
	}
	if r.ordOrder, err = balancedOrder(v.code, r.w.updates); err != nil {
		return err
	}
	if r.opt.trace {
		if r.probes, err = newProbes(r.w, r.opt.scratch); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
	}
	return nil
}

// balancedOrder orders the in-stripe positions for the update pass. What
// an overwrite costs depends on its position: it rewrites the parity
// sectors that depend on the cell, in 3 to 6 stripe columns, and each
// column is a device call. A pass takes perPass consecutive entries of
// the order; the positions are dealt out heaviest first, back and forth
// over the 92/perPass passes of a cycle, so that every pass carries
// nearly the same load. The order does not depend on the seed: every run
// times the same kinds of pass.
func balancedOrder(code *core.Code, perPass int) ([]int, error) {
	type weight struct{ ord, cols, sectors int }
	cells := code.DataCells()
	ws := make([]weight, len(cells))
	for ord, cell := range cells {
		deps, err := code.ParityDependencies(cell)
		if err != nil {
			return nil, err
		}
		cols := map[int]bool{cell.Col: true}
		for _, d := range deps {
			cols[d.Col] = true
		}
		ws[ord] = weight{ord, len(cols), len(deps)}
	}
	sort.SliceStable(ws, func(a, b int) bool {
		if ws[a].cols != ws[b].cols {
			return ws[a].cols > ws[b].cols
		}
		return ws[a].sectors > ws[b].sectors
	})
	passes := max(1, len(ws)/perPass)
	groups := make([][]int, passes)
	for i, w := range ws {
		g := i % passes
		if (i/passes)%2 == 1 {
			g = passes - 1 - g
		}
		groups[g] = append(groups[g], w.ord)
	}
	order := make([]int, 0, len(ws))
	for _, g := range groups {
		order = append(order, g...)
	}
	return order, nil
}

// round runs every phase that is due in round k. The failure episode and
// the set-up pass are due on every failStride-th and setupStride-th round
// counted from the first measured one, so a run of any length has both.
func (r *runner) round(k int) roundRec {
	var rr roundRec
	n := k - warmupRounds
	measured := n >= 0
	if r.rec != nil {
		// A traced run alternates recorded and unrecorded rounds; the
		// ratio of their update times is the tracing overhead.
		rr.traced = n%2 == 0
		r.rec.on.Store(rr.traced)
	}
	r.ioPasses(k, &rr)
	if n%r.w.failStride == 0 {
		r.failurePasses(k, &rr)
	}
	if measured && n%r.w.setupStride == 0 {
		r.setupPass(k, &rr)
	}
	if r.rec != nil {
		r.rec.on.Store(false)
		if spans := r.rec.endRound(); measured && rr.traced {
			r.spans.fold(spans)
		}
		if measured {
			rr.probes = make([]float64, len(r.probes))
			for i := range r.probes {
				rr.probes[i] = r.probes[i].pass()
			}
		}
	}
	return rr
}

// ioPasses runs the three healthy-volume phases.
func (r *runner) ioPasses(k int, rr *roundRec) {
	w, bs, st := r.w, r.w.sectorSize, r.vol.st

	// write_seq: overwrite seqStripes consecutive full stripes, then Flush.
	r.touched = r.touched[:0]
	first := (r.seqOff + k*w.seqStripes) % w.stripes
	for i := 0; i < w.seqStripes; i++ {
		stripe := (first + i) % w.stripes
		for ord := 0; ord < dataPerStripe; ord++ {
			b := stripe*dataPerStripe + ord
			r.sh.bump(r.payload[len(r.touched)*bs:][:bs], b)
			r.touched = append(r.touched, b)
		}
	}
	r.beginPass(phWriteSeq, k)
	step := r.sampleStep(len(r.touched))
	for j, b := range r.touched {
		// Record a sample, and every write that fills (and flushes) a stripe.
		r.recordOp(step, j, j%dataPerStripe == dataPerStripe-1)
		r.writeBlock(b, r.payload[j*bs:][:bs])
	}
	r.recordRest(step)
	r.flush()
	rr.pass[phWriteSeq] = r.endPass()
	r.verifyTouched()

	// update: single-block overwrites, each made durable to the devices
	// before the next — the §5.2 sub-stripe read-modify-write path. The
	// in-stripe position walks ordOrder, the stripe is drawn from the
	// seed.
	r.touched = r.touched[:0]
	for j := 0; j < w.updates; j++ {
		ord := r.ordOrder[(k*w.updates+j)%dataPerStripe]
		b := r.rng.IntN(w.stripes)*dataPerStripe + ord
		r.sh.bump(r.payload[j*bs:][:bs], b)
		r.touched = append(r.touched, b)
	}
	r.beginPass(phUpdate, k)
	step = r.sampleStep(len(r.touched))
	for j, b := range r.touched {
		r.recordOp(step, j, false)
		sp := r.rec.begin(spUpdate)
		r.writeBlock(b, r.payload[j*bs:][:bs])
		r.flush()
		if w.syncEvery > 0 && (j+1)%w.syncEvery == 0 {
			r.do(spSync, "Sync", func() error { return st.Sync(r.ctx) })
		}
		r.rec.end(sp)
	}
	r.recordRest(step)
	rr.pass[phUpdate] = r.endPass()
	r.verifyTouched()

	// read: random healthy block reads.
	r.touched = r.touched[:0]
	for j := 0; j < w.reads; j++ {
		r.touched = append(r.touched, r.rng.IntN(w.blocks()))
	}
	r.beginPass(phRead, k)
	step = r.sampleStep(len(r.touched))
	for j, b := range r.touched {
		r.recordOp(step, j, false)
		r.readBlock(b)
	}
	r.recordRest(step)
	rr.pass[phRead] = r.endPass()
	r.verifyTouched()
}

// failurePasses takes the volume through one failure episode: m devices
// fail, reads are served degraded, blank devices are swapped in and
// rebuilt, and a scrub repairs a fresh sector burst.
func (r *runner) failurePasses(k int, rr *roundRec) {
	w, st := r.w, r.vol.st
	episode := r.episodes
	r.episodes++

	// Untimed: fail m adjacent devices, the first rotating over the data
	// columns from a seeded start (every run sees the same six pairs: what
	// a decode costs depends on the pair), and put a burst on one survivor,
	// in a stripe the degraded reads skip so that no repair is queued
	// behind the timed reads.
	d0 := r.dataCols[(r.devOff+episode)%len(r.dataCols)]
	d1 := (d0 + 1) % codeN
	survivor := (d1 + 1) % codeN
	burstStripe := r.rng.IntN(w.stripes)
	burstRow := r.rng.IntN(codeR - burstLen + 1)
	r.control("FailDevice", st.FailDevice(d0))
	r.control("FailDevice", st.FailDevice(d1))
	r.control("InjectBurst", st.InjectBurst(survivor, burstStripe*codeR+burstRow, burstLen))

	// degraded_read: reads of d0's blocks, cycling over more stripes than
	// the degraded-stripe cache holds, so every read pays the decode.
	r.touched = r.touched[:0]
	ords := r.byCol[d0]
	for j, stripe := 0, r.rng.IntN(w.stripes); j < w.degradedReads; stripe++ {
		if stripe %= w.stripes; stripe == burstStripe {
			continue
		}
		r.touched = append(r.touched, stripe*dataPerStripe+ords[(j*7+episode)%len(ords)])
		j++
	}
	r.beginPass(phDegradedRead, k)
	step := r.sampleStep(len(r.touched))
	for j, b := range r.touched {
		r.recordOp(step, j, false)
		r.readBlock(b)
	}
	r.recordRest(step)
	r.quiesce()
	rr.pass[phDegradedRead] = r.endPass()
	r.verifyTouched()

	// Untimed: swap blank devices in.
	r.control("ReplaceDevice", st.ReplaceDevice(d0))
	r.control("ReplaceDevice", st.ReplaceDevice(d1))

	// rebuild: restore every replaced device — the §7 rebuild window.
	r.beginPass(phRebuild, k)
	r.do(spRebuild, "RebuildDevice", func() error { return st.RebuildDevice(r.ctx, d0) })
	r.do(spRebuild, "RebuildDevice", func() error { return st.RebuildDevice(r.ctx, d1) })
	r.quiesce()
	rr.pass[phRebuild] = r.endPass()
	if st.TotalBadSectors() != 0 {
		// Not the fixed work: a hedged read that won its race hid a
		// blank column from the sweep (see the settle loop below).
		rr.pass[phRebuild].ran = false
		r.discarded++
	}
	r.verifyTouched() // the same blocks, now read off the rebuilt device

	// Untimed: a second burst, for the scrub to find and repair.
	r.control("InjectBurst", st.InjectBurst(r.rng.IntN(codeN), r.rng.IntN(w.stripes)*codeR+r.rng.IntN(codeR-burstLen+1), burstLen))

	// scrub: one full sweep plus the repair it queues.
	r.beginPass(phScrub, k)
	rep := r.scrub()
	rr.pass[phScrub] = r.endPass()
	if rep.StripesChecked != w.stripes || rep.ChecksumMismatches != 0 || rep.StripesInconsistent != 0 || rep.StripesUnrecoverable != 0 {
		r.fail(fmt.Errorf("round %d: scrub report %+v", k, rep))
	}
	if rep.StripesDamaged != 1 || rep.SectorsLost != burstLen || st.TotalBadSectors() != 0 {
		rr.pass[phScrub].ran = false // likewise: the sweep missed the burst, or its repair did
		r.discarded++
	}

	// A hedged column read that wins its race hands the store a clean
	// reconstruction, hiding the latent errors underneath from that
	// rebuild or scrub step (cluster-http only). Give the volume up to
	// three untimed sweeps to converge before judging it.
	for tries := 0; tries < 3 && st.TotalBadSectors() > 0; tries++ {
		r.settles++
		r.scrub()
	}
	r.attempted++
	if fd, bad, un := st.FailedDevices(), st.TotalBadSectors(), st.UnrecoverableStripes(); len(fd) != 0 || bad != 0 || len(un) != 0 {
		r.fail(fmt.Errorf("round %d ends with failed devices %v, %d bad sectors, unrecoverable stripes %v", k, fd, bad, un))
	}
}

// scrub runs one full Scrub and waits out the repairs it queued.
func (r *runner) scrub() (rep store.ScrubReport) {
	r.do(spScrub, "Scrub", func() (err error) { rep, err = r.vol.st.Scrub(r.ctx); return err })
	r.quiesce()
	return rep
}

// quiesce waits, inside the timed region, for every queued repair.
func (r *runner) quiesce() {
	r.do(spQuiesce, "Quiesce", func() error { r.vol.st.Quiesce(); return nil })
}

// setupPass times one cold set-up of a scratch volume; the volume under
// test persists.
func (r *runner) setupPass(k int, rr *roundRec) {
	r.rec.setPass(phSetup, k)
	r.attempted++
	// Every set-up starts from a collected heap: it allocates the whole
	// volume, so where in a collection cycle it started would otherwise
	// decide how much marking it pays for.
	runtime.GC()
	sp := r.rec.begin(spPass)
	t0 := time.Now()
	v, err := openVolume(r.ctx, r.w, r.image, r.rec, r.opt.scratch)
	ns := float64(time.Since(t0))
	r.rec.end(sp)
	if err != nil {
		r.fail(fmt.Errorf("set-up pass: %w", err))
		return
	}
	rr.pass[phSetup] = passRec{ran: true, ns: ns}
	rr.dial, rr.open = v.dial, v.open
	if err := v.close(); err != nil {
		r.fail(fmt.Errorf("closing scratch volume: %w", err))
	}
}

// run executes warm-up and measured rounds, then audits the volume.
func (r *runner) run() error {
	if err := r.prepare(); err != nil {
		return err
	}
	defer func() {
		if r.vol != nil {
			r.vol.close()
		}
		closeProbes(r.probes)
	}()
	target := r.w.rounds
	if r.opt.rounds > 0 {
		target = r.opt.rounds
	}
	for k := 0; ; k++ {
		n := k - warmupRounds
		if n == 0 {
			runtime.ReadMemStats(&r.gcStart)
			r.cpuStart = cpuTime()
			r.wallStart = time.Now()
		}
		if n >= 0 {
			r.elapsed = time.Since(r.wallStart)
			if n >= target {
				break
			}
			if n > 0 && r.opt.seconds > 0 && r.elapsed.Seconds() >= r.opt.seconds {
				fmt.Fprintf(os.Stderr, "bench: capped by -seconds %g after %d of %d rounds\n", r.opt.seconds, n, target)
				break
			}
		}
		rr := r.round(k)
		if n >= 0 {
			r.rounds = append(r.rounds, rr)
		}
		if r.failed > maxFailures {
			return fmt.Errorf("giving up after %d failed ops; first: %w", r.failed, r.firstErr)
		}
	}
	r.final = finalState{
		deviceBytes:  r.vol.deviceBytes(),
		scratchFlats: r.vol.scratchFlats(),
		dev:          r.vol.counters.snapshot(),
		cluster:      r.vol.clusterStats(),
		cpu:          cpuTime() - r.cpuStart,
	}
	runtime.ReadMemStats(&r.final.mem)
	r.audit()
	return nil
}

// audit ends the run: every block is read back and compared, and a final
// scrub must find nothing.
func (r *runner) audit() {
	for b := 0; b < r.w.blocks(); b++ {
		r.verifyBlock(b)
	}
	if r.rec != nil {
		r.rec.on.Store(false)
	}
	if rep := r.scrub(); rep.StripesDamaged != 0 || rep.SectorsLost != 0 || rep.ChecksumMismatches != 0 ||
		rep.StripesInconsistent != 0 || rep.StripesUnrecoverable != 0 {
		r.fail(fmt.Errorf("final scrub found damage: %+v", rep))
	}
	v := r.vol
	r.vol = nil
	if err := v.close(); err != nil {
		r.fail(fmt.Errorf("closing volume: %w", err))
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
