package store

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stair/internal/core"
)

// TestScrubberRestartAfterFailedPass: a background scrubber whose pass
// fails must release the scrubber slot on exit. PR 1 left
// s.scrubStop/s.scrubDone set, so StartScrubber reported "scrubber
// already running" forever after any failed pass.
func TestScrubberRestartAfterFailedPass(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var failOnce atomic.Bool
	failOnce.Store(true)
	s.testScrubErr = func() error {
		if failOnce.CompareAndSwap(true, false) {
			return errors.New("injected scrub failure")
		}
		return nil
	}
	if err := s.StartScrubber(ScrubberOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// The first pass errors and kills the scrubber goroutine; the slot
	// must come free so a fresh scrubber can start.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := s.StartScrubber(ScrubberOptions{Interval: time.Millisecond})
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "already running") {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("scrubber slot never released after a failed pass")
		}
		time.Sleep(time.Millisecond)
	}
	s.StopScrubber()
}

// TestReplaceDeviceReconcilesUnrecoverableCounter: ReplaceDevice clears
// the unrecoverable marks, and the Stats counter must follow — PR 1
// reset only the map, so stripes re-marked after the replacement were
// double-counted.
func TestReplaceDeviceReconcilesUnrecoverableCounter(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	// m+1 failed devices put every stripe outside coverage.
	for _, dev := range []int{0, 1, 2} {
		if err := s.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	markAll := func() {
		for b := 0; b < s.Blocks(); b++ {
			s.ReadBlock(bg, b) // reads on dead devices mark their stripes
		}
	}
	markAll()
	if got := s.Stats().UnrecoverableStripes; got != uint64(s.stripes) {
		t.Fatalf("UnrecoverableStripes=%d after 3 device failures, want %d", got, s.stripes)
	}
	for _, dev := range []int{0, 1, 2} {
		if err := s.ReplaceDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().UnrecoverableStripes; got != 0 {
		t.Fatalf("UnrecoverableStripes=%d after ReplaceDevice cleared the marks, want 0", got)
	}
	// Without a rebuild the replacements hold only unwritten sectors:
	// three whole chunks per stripe are still lost, so reads re-mark
	// every stripe. The counter must match the marks, not accumulate.
	markAll()
	st := s.Stats()
	if got := len(s.UnrecoverableStripes()); got != s.stripes {
		t.Fatalf("%d stripes marked after re-read, want %d", got, s.stripes)
	}
	if st.UnrecoverableStripes != uint64(s.stripes) {
		t.Fatalf("UnrecoverableStripes=%d double-counts re-marked stripes, want %d",
			st.UnrecoverableStripes, s.stripes)
	}
}

// flakyDevice wraps MemDevice with transiently failing writes, to drive
// the partial-repair path: reconstruction succeeds but a write-back
// does not.
type flakyDevice struct {
	*MemDevice
	failWrites atomic.Int32 // fail this many upcoming WriteSectors calls
}

func (d *flakyDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if d.failWrites.Load() > 0 {
		d.failWrites.Add(-1)
		return errors.New("store: transient write failure")
	}
	return d.MemDevice.WriteSectors(ctx, start, data)
}

// TestPartialRepairRequeuedAndCountedOnce: a repair whose write-backs
// partially fail must not count the stripe as repaired (PR 1 counted it
// when *any* sector landed) and must re-enqueue it so the retry heals
// the rest.
func TestPartialRepairRequeuedAndCountedOnce(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const (
		stripes = 2
		sector  = 128
	)
	flaky := &flakyDevice{MemDevice: NewMemDevice(stripes*code.R(), sector)}
	devs := make([]Device, code.N())
	for i := range devs {
		devs[i] = NewMemDevice(stripes*code.R(), sector)
	}
	devs[2] = flaky
	s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	// Two lost sectors on stripe 0, one of them on the flaky device;
	// its first write-back attempt will fail.
	if err := s.InjectSectorError(1, s.devSector(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectSectorError(2, s.devSector(0, 1)); err != nil {
		t.Fatal(err)
	}
	flaky.failWrites.Store(1)
	if _, err := s.Scrub(bg); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	// Without the re-enqueue the flaky sector stays bad forever (until
	// an unrelated scrub) while RepairedStripes already claimed success.
	if got := s.TotalBadSectors(); got != 0 {
		t.Fatalf("TotalBadSectors=%d after Quiesce, want 0 (partial repair not retried)", got)
	}
	st := s.Stats()
	if st.RepairedStripes != 1 {
		t.Errorf("RepairedStripes=%d, want 1 (only the fully-healed stripe counts)", st.RepairedStripes)
	}
	if st.RepairedSectors != 2 {
		t.Errorf("RepairedSectors=%d, want 2", st.RepairedSectors)
	}
	checkAllBlocks(t, s)
	checkStripesConsistent(t, s)
}

// writeCanceller, shared by a set of cancelOnWriteDevice wrappers,
// cancels an armed context on the next device write anywhere in the
// store — simulating a caller whose deadline expires exactly as an
// eviction's write-back begins.
type writeCanceller struct {
	armed atomic.Pointer[context.CancelFunc]
}

type cancelOnWriteDevice struct {
	*MemDevice
	c *writeCanceller
}

func (d *cancelOnWriteDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if fn := d.c.armed.Swap(nil); fn != nil {
		(*fn)()
	}
	return d.MemDevice.WriteSectors(ctx, start, data)
}

// TestEvictionFlushErrorKeepsAccounting: a flushStripeLocked failure on
// the maxDirty eviction path must leave dirtyCount consistent with the
// per-shard dirty maps and keep the victim's buffer retryable — a later
// Flush with a live context lands everything.
func TestEvictionFlushErrorKeepsAccounting(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	canceller := &writeCanceller{}
	devs := make([]Device, code.N())
	for i := range devs {
		devs[i] = &cancelOnWriteDevice{MemDevice: NewMemDevice(4*code.R(), 128), c: canceller}
	}
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 4, Devices: devs, MaxDirtyStripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	checkAccounting := func(when string) int {
		t.Helper()
		buffered := 0
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			buffered += len(sh.dirty)
			sh.mu.Unlock()
		}
		if got := int(s.dirtyCount.Load()); got != buffered {
			t.Fatalf("%s: dirtyCount=%d but per-shard maps hold %d buffers", when, got, buffered)
		}
		return buffered
	}

	// Two partial buffers under the bound, then a third write that
	// overflows it — with the canceller armed, the eviction's
	// write-back dies on a cancelled context.
	for stripe := 0; stripe < 2; stripe++ {
		if err := s.WriteBlock(bg, stripe*s.perStripe, blockData(stripe, s.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceller.armed.Store(&cancel)
	err = s.WriteBlock(ctx, 2*s.perStripe, blockData(2, s.BlockSize()))
	if err == nil {
		t.Fatal("eviction under a dying context reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("eviction error %v, want context.Canceled", err)
	}
	// The requested write is buffered, the victim's buffer survives,
	// and the aggregate matches the maps exactly.
	if got := checkAccounting("after failed eviction"); got != 3 {
		t.Fatalf("%d stripes buffered after failed eviction, want 3 (nothing lost)", got)
	}

	// Retry with a live context: every buffer — including the stuck
	// victim — lands.
	if err := s.Flush(bg); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if got := checkAccounting("after retry"); got != 0 {
		t.Fatalf("%d stripes still buffered after retry", got)
	}
	for stripe := 0; stripe < 3; stripe++ {
		got, err := s.ReadBlock(bg, stripe*s.perStripe)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blockData(stripe, s.BlockSize())) {
			t.Fatalf("stripe %d's write lost across the failed eviction", stripe)
		}
	}
	checkStripesConsistent(t, s)
	// Nothing but the three written blocks may have changed: a retry
	// that rebuilt the stripe from the interrupted flush's partial
	// stripe memory would have re-encoded over pool leftovers.
	zero := make([]byte, s.BlockSize())
	for b := 0; b < s.Blocks(); b++ {
		if b%s.perStripe == 0 && b/s.perStripe < 3 {
			continue
		}
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, zero) {
			t.Fatalf("never-written block %d is no longer zero after the failed eviction's retry", b)
		}
	}
}

// TestRepairQueueOrdersByRisk: the queue serves the highest-risk
// request first and breaks ties FIFO.
func TestRepairQueueOrdersByRisk(t *testing.T) {
	q := newRepairQueue(8)
	for i, risk := range []int{1, 5, 3, 5} {
		if !q.push(repairReq{stripe: i, risk: risk}) {
			t.Fatalf("push %d refused", i)
		}
	}
	var got []int
	for i := 0; i < 4; i++ {
		req, ok := q.pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		got = append(got, req.stripe)
	}
	want := []int{1, 3, 2, 0} // risk 5 (FIFO: stripes 1 then 3), then 3, then 1
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	if !q.push(repairReq{stripe: 9}) {
		t.Fatal("push refused on drained queue")
	}
	q.close()
	if req, ok := q.pop(); !ok || req.stripe != 9 {
		t.Fatalf("pop after close = (%+v, %v), want the remaining request", req, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop reported a request on a closed empty queue")
	}
	if q.push(repairReq{stripe: 10}) {
		t.Fatal("push accepted on a closed queue")
	}
}

// gateDevice wraps a MemDevice and blocks reads of its first gateRows
// sectors until released — it parks a repair worker mid-loadStripe so a
// test can stage the repair queue behind it.
type gateDevice struct {
	*MemDevice
	gateRows int
	entered  chan struct{} // closed when the first gated read arrives
	release  chan struct{}
	once     sync.Once
}

func (d *gateDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if start < d.gateRows {
		d.once.Do(func() { close(d.entered) })
		<-d.release
	}
	return d.MemDevice.ReadSectors(ctx, start, bufs)
}

// TestRepairPrioritisesAtEdgeStripe: with a single repair worker parked
// on a gated stripe, a stripe at the code's coverage edge (3 lost
// sectors under e=(1,2)) queued *after* a one-sector stripe must still
// be repaired first — the regression half of the scrub-pacing roadmap
// item.
func TestRepairPrioritisesAtEdgeStripe(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const stripes = 4
	gate := &gateDevice{
		MemDevice: NewMemDevice(stripes*code.R(), 128),
		gateRows:  code.R(), // stripe 0's extent
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	devs := make([]Device, code.N())
	for i := range devs {
		devs[i] = NewMemDevice(stripes*code.R(), 128)
	}
	devs[5] = gate
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: stripes, Devices: devs, RepairWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	var order []int
	s.testRepairObserve = func(stripe int) {
		mu.Lock()
		order = append(order, stripe)
		mu.Unlock()
	}
	fillStore(t, s)

	// Park the only repair worker on stripe 0: its loadStripe blocks on
	// the gated device.
	if err := s.InjectSectorError(1, s.devSector(0, 0)); err != nil {
		t.Fatal(err)
	}
	sh := s.shard(0)
	sh.mu.Lock()
	s.enqueueRepairLocked(sh, 0, 1)
	sh.mu.Unlock()
	<-gate.entered

	// Now stage the queue: first a one-sector stripe, then an at-edge
	// stripe with three lost sectors (1+2 across two devices — the
	// boundary of e=(1,2) coverage).
	if err := s.InjectSectorError(1, s.devSector(1, 0)); err != nil {
		t.Fatal(err)
	}
	sh1 := s.shard(1)
	sh1.mu.Lock()
	s.enqueueRepairLocked(sh1, 1, 1)
	sh1.mu.Unlock()
	for _, inj := range []struct{ dev, row int }{{1, 0}, {2, 0}, {2, 1}} {
		if err := s.InjectSectorError(inj.dev, s.devSector(2, inj.row)); err != nil {
			t.Fatal(err)
		}
	}
	sh2 := s.shard(2)
	sh2.mu.Lock()
	s.enqueueRepairLocked(sh2, 2, 3)
	sh2.mu.Unlock()

	close(gate.release)
	s.Quiesce()
	mu.Lock()
	got := append([]int(nil), order...)
	mu.Unlock()
	want := []int{0, 2, 1} // the parked stripe, then at-edge before the earlier-queued single
	if len(got) != len(want) {
		t.Fatalf("repair order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("repair order %v: at-edge stripe 2 must be repaired before stripe 1 (want %v)", got, want)
		}
	}
	if bad := s.TotalBadSectors(); bad != 0 {
		t.Fatalf("%d bad sectors after repairs converged", bad)
	}
	checkAllBlocks(t, s)
	checkStripesConsistent(t, s)
}

// TestDegradedReadCache: reads of a still-degraded stripe whose first
// lost block needs more than its row all return the right bytes — the
// first through a re-plan over the stripe, which keeps nothing for the
// next read — and an overwrite of that block is read back the same way.
// None of them falls back: the stripe stays within coverage.
func TestDegradedReadCache(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	// A wholly failed device keeps its stripes degraded: repair has
	// nowhere to write the lost cells back until a replacement.
	if err := s.FailDevice(1); err != nil {
		t.Fatal(err)
	}
	var deadBlocks []int
	for b := 0; b < s.perStripe; b++ {
		if s.dataCells[b].Col == 1 {
			deadBlocks = append(deadBlocks, b)
		}
	}
	if len(deadBlocks) < 2 {
		t.Fatalf("test needs ≥ 2 data cells on device 1, have %d", len(deadBlocks))
	}
	// m more losses in the first dead block's row: m+1 in all, so its row
	// cannot decide it and the read re-plans over the stripe.
	victim := deadBlocks[0]
	breakRow := func() {
		t.Helper()
		for _, col := range []int{0, 5} {
			if err := s.InjectSectorError(col, s.devSector(0, s.dataCells[victim].Row)); err != nil {
				t.Fatal(err)
			}
		}
	}
	breakRow()
	for _, b := range deadBlocks {
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blockData(b, s.BlockSize())) {
			t.Fatalf("block %d corrupt off the degraded path", b)
		}
	}
	st := s.Stats()
	if st.DegradedReads != uint64(len(deadBlocks)) {
		t.Errorf("DegradedReads=%d, want %d", st.DegradedReads, len(deadBlocks))
	}
	if st.DegradedReadFallbacks != 0 {
		t.Errorf("DegradedReadFallbacks=%d, want 0", st.DegradedReadFallbacks)
	}
	// Overwrite the block, break its row again once the overwrite has
	// landed (the flush heals what it meets), and read it back: the
	// re-planned read decodes the new content. Quiesce first, so that no queued
	// repair heals the second break before the read.
	if err := s.WriteBlock(bg, victim, blockData(victim+999, s.BlockSize())); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	breakRow()
	got, err := s.ReadBlock(bg, victim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blockData(victim+999, s.BlockSize())) {
		t.Fatal("stale content served after an overwrite")
	}
	if st := s.Stats(); st.DegradedReads != uint64(len(deadBlocks))+1 || st.DegradedReadFallbacks != 0 {
		t.Errorf("DegradedReads=%d, DegradedReadFallbacks=%d after the overwrite's read, want %d and 0",
			st.DegradedReads, st.DegradedReadFallbacks, len(deadBlocks)+1)
	}
}
