package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stair/internal/core"
)

// countingDevice tallies vectored calls, to pin the one-call-per-device
// contract of the store's stripe-granular paths.
type countingDevice struct {
	*MemDevice
	reads, writes atomic.Int64
}

func (d *countingDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	d.reads.Add(1)
	return d.MemDevice.ReadSectors(ctx, start, bufs)
}

func (d *countingDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	d.writes.Add(1)
	return d.MemDevice.WriteSectors(ctx, start, data)
}

// TestVectoredCallsPerDevice: a full-stripe flush issues exactly one
// vectored write per device, and a stripe load exactly one vectored
// read per device — the redesign's core promise (one round trip per
// device per stripe on remote backends).
func TestVectoredCallsPerDevice(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const stripes = 2
	devs := make([]Device, code.N())
	counters := make([]*countingDevice, code.N())
	for i := range devs {
		counters[i] = &countingDevice{MemDevice: NewMemDevice(stripes*code.R(), 128)}
		devs[i] = counters[i]
	}
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: stripes, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Filling stripe 0 triggers the full-stripe flush on the last write.
	for b := 0; b < s.perStripe; b++ {
		if err := s.WriteBlock(bg, b, blockData(b, s.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().FullStripeFlushes; got != 1 {
		t.Fatalf("FullStripeFlushes=%d, want 1", got)
	}
	for i, c := range counters {
		if got := c.writes.Load(); got != 1 {
			t.Errorf("device %d: %d vectored writes for one full-stripe flush, want exactly 1", i, got)
		}
		if got := c.reads.Load(); got != 0 {
			t.Errorf("device %d: %d reads during a full-stripe flush, want 0", i, got)
		}
	}

	// A load of every cell is one vectored read per device.
	for _, c := range counters {
		c.reads.Store(0)
	}
	sh := s.shard(0)
	sh.mu.Lock()
	st, ld, err := s.loadAll(bg, 0, false)
	lost := ld.lost.Count()
	s.releaseStripe(st)
	sh.mu.Unlock()
	if err != nil || lost != 0 {
		t.Fatalf("loadAll: lost=%d err=%v", lost, err)
	}
	for i, c := range counters {
		if got := c.reads.Load(); got != 1 {
			t.Errorf("device %d: %d vectored reads for one stripe load, want exactly 1", i, got)
		}
	}
}

// blockingDevice parks selected operations until their context is
// cancelled — the degenerate remote backend a context-aware store must
// not wedge on.
type blockingDevice struct {
	*MemDevice
	blockReads  atomic.Bool
	blockWrites atomic.Bool
	blocked     chan struct{} // receives one signal per parked call
}

func newBlockingDevice(sectors, sectorSize int) *blockingDevice {
	return &blockingDevice{
		MemDevice: NewMemDevice(sectors, sectorSize),
		blocked:   make(chan struct{}, 16),
	}
}

func (d *blockingDevice) park(ctx context.Context) error {
	select {
	case d.blocked <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return ctx.Err()
}

func (d *blockingDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if d.blockReads.Load() {
		return d.park(ctx)
	}
	return d.MemDevice.ReadSectors(ctx, start, bufs)
}

func (d *blockingDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if d.blockWrites.Load() {
		return d.park(ctx)
	}
	return d.MemDevice.WriteSectors(ctx, start, data)
}

func openBlockingStore(t *testing.T, code *core.Code, stripes int) (*Store, *blockingDevice) {
	t.Helper()
	return openBlockingStoreAt(t, code, stripes, 0)
}

// openBlockingStoreAt opens a store whose column col is the blocking
// device.
func openBlockingStoreAt(t *testing.T, code *core.Code, stripes, col int) (*Store, *blockingDevice) {
	t.Helper()
	devs := make([]Device, code.N())
	blk := newBlockingDevice(stripes*code.R(), 128)
	for i := range devs {
		devs[i] = NewMemDevice(stripes*code.R(), 128)
	}
	devs[col] = blk
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: stripes, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		blk.blockReads.Store(false)
		blk.blockWrites.Store(false)
		s.Close()
	})
	return s, blk
}

// cancelWhenBlocked cancels ctx once the device parks a call, and fails
// the test if nothing ever blocks.
func cancelWhenBlocked(t *testing.T, blk *blockingDevice, cancel context.CancelFunc) {
	t.Helper()
	go func() {
		select {
		case <-blk.blocked:
			cancel()
		case <-time.After(10 * time.Second):
			t.Error("no device call ever blocked")
			cancel()
		}
	}()
}

// TestCancelledFlushAborts: a Flush wedged on a blocking device returns
// promptly when its context is cancelled, and the unflushed buffer
// survives for a later retry.
func TestCancelledFlushAborts(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, blk := openBlockingStore(t, code, 2)
	// A partial stripe: the flush takes the read–modify–write path,
	// whose stripe load hits the blocking device.
	want := blockData(1, s.BlockSize())
	if err := s.WriteBlock(bg, 1, want); err != nil {
		t.Fatal(err)
	}
	blk.blockReads.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelWhenBlocked(t, blk, cancel)
	start := time.Now()
	err := s.Flush(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Flush: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled Flush took %v — the in-flight device wait did not abort", elapsed)
	}
	// The write is still buffered; a retry with a live context lands it.
	blk.blockReads.Store(false)
	if err := s.Flush(bg); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	got, err := s.ReadBlock(bg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("block lost across a cancelled flush")
	}
}

// firstOrdOn returns the first data ordinal stored on the given column.
func firstOrdOn(t *testing.T, s *Store, col int) int {
	t.Helper()
	for ord, cell := range s.dataCells {
		if cell.Col == col {
			return ord
		}
	}
	t.Fatalf("no data cell on device %d", col)
	return -1
}

// cancelMidWriteBack overwrites the given blocks of a filled store with
// fresh content and flushes them under a context that is cancelled
// when the write-back reaches the blocking device, leaving the stripe
// half-landed and the buffer retained. It returns the volume's expected
// content.
func cancelMidWriteBack(t *testing.T, s *Store, blk *blockingDevice, blocks ...int) [][]byte {
	t.Helper()
	want := make([][]byte, s.Blocks())
	for b := range want {
		want[b] = blockData(b, s.BlockSize())
	}
	for _, b := range blocks {
		want[b] = blockData(b+1234, s.BlockSize())
		if err := s.WriteBlock(bg, b, want[b]); err != nil {
			t.Fatal(err)
		}
	}
	blk.blockWrites.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelWhenBlocked(t, blk, cancel)
	if err := s.Flush(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled flush: %v, want context.Canceled", err)
	}
	blk.blockWrites.Store(false)
	return want
}

// checkBlocksAre reads every block back and compares it with want.
func checkBlocksAre(t *testing.T, s *Store, want [][]byte) {
	t.Helper()
	for b := range want {
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatalf("read block %d: %v", b, err)
		}
		if !bytes.Equal(got, want[b]) {
			t.Fatalf("block %d holds neither its fill nor its overwrite", b)
		}
	}
}

// TestCancelledSubStripeWriteBackStaysConsistent: cancelling a
// read–modify–write mid-write-back may leave a half-landed stripe on
// the devices; the retry must restore full parity consistency (the
// stripe is rewritten whole, because the incremental delta no longer
// matches what is on disk) — and must do so without disturbing a single
// block the flush was not about: the interrupted flush only ever held
// the ~10 cells it touched, and a retry that took its stripe memory for
// the whole stripe would re-encode parity over whatever the pool left
// in the rest, consistently wrong.
func TestCancelledSubStripeWriteBackStaysConsistent(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	for _, tc := range []struct {
		name      string
		blocking  int   // the column whose write parks
		dirtyCols []int // one dirty block on each
	}{
		// Device 0 comes first in the col-ordered sweep: nothing lands.
		{"single-block", 0, []int{0}},
		// Column 0's block lands, column 1's parks: the stripe is torn
		// between two data writes, before any parity.
		{"two-blocks-second-column-parks", 1, []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, blk := openBlockingStoreAt(t, code, 2, tc.blocking)
			fillStore(t, s)
			var dirty []int
			for _, col := range tc.dirtyCols {
				dirty = append(dirty, firstOrdOn(t, s, col))
			}
			// Reads stay live, so the RMW load succeeds.
			want := cancelMidWriteBack(t, s, blk, dirty...)
			if err := s.Flush(bg); err != nil {
				t.Fatalf("retry flush: %v", err)
			}
			checkBlocksAre(t, s, want)
			checkStripesConsistent(t, s)
			if st := s.Stats(); st.SubStripeFallbacks != 0 || st.DegradedReads != 0 {
				t.Fatalf("healthy retry counted %d fallbacks, %d degraded reads", st.SubStripeFallbacks, st.DegradedReads)
			}
		})
	}
}

// TestCancelledScrubAborts: a scrub pass wedged on a blocking device
// aborts mid-pass on cancellation — not merely between stripes.
func TestCancelledScrubAborts(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, blk := openBlockingStore(t, code, 4)
	fillStore(t, s)
	blk.blockReads.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelWhenBlocked(t, blk, cancel)
	start := time.Now()
	_, err := s.Scrub(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Scrub: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled Scrub took %v — the in-flight device wait did not abort", elapsed)
	}
}

// TestScrubPacing: a rate-limited pass spreads its sweep over the
// stripes/sec budget — the pass's, not each worker's, so two stripes in
// flight take as long as one.
func TestScrubPacing(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	for _, width := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(width)
		// 200 stripes/sec over 6 stripes: 5 inter-stripe waits ≥ 25ms.
		start := time.Now()
		rep, err := s.scrub(bg, newPacer(200))
		elapsed := time.Since(start)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if rep.StripesChecked != 6 {
			t.Fatalf("width %d: paced pass checked %d stripes, want 6", width, rep.StripesChecked)
		}
		if elapsed < 25*time.Millisecond {
			t.Errorf("width %d: paced pass finished in %v, want ≥ 25ms at 200 stripes/sec", width, elapsed)
		}
	}
}

// TestScrubberStopInterruptsPacedPass: StopScrubber cancels a slow
// paced pass mid-sweep instead of waiting out the pacing budget.
func TestScrubberStopInterruptsPacedPass(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	// 1 stripe/sec over 8 stripes would take ~7s per pass; stopping must
	// not wait for that.
	if err := s.StartScrubber(ScrubberOptions{Interval: time.Millisecond, StripesPerSec: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let a pass begin pacing
	start := time.Now()
	s.StopScrubber()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("StopScrubber took %v against a paced pass", elapsed)
	}
}

// TestScrubberOptionValidation: bad scrubber options are refused.
func TestScrubberOptionValidation(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartScrubber(ScrubberOptions{Interval: 0}); err == nil {
		t.Error("zero interval accepted")
	}
	if err := s.StartScrubber(ScrubberOptions{Interval: time.Millisecond, StripesPerSec: -1}); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestFileDeviceRefusesOtherSize: an existing image is opened only at
// its own size — a mistaken geometry is refused, and the image keeps
// its bytes — while an absent or empty file is created and sized.
func TestFileDeviceRefusesOtherSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDevice(path, 8, 64)
	if err != nil {
		t.Fatalf("open an empty file: %v", err)
	}
	want := bytes.Repeat([]byte{0x5A}, 64)
	if err := WriteSector(context.Background(), d, 7, want); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, geo := range [][2]int{{4, 64}, {16, 64}, {8, 32}} {
		if d, err := OpenFileDevice(path, geo[0], geo[1]); err == nil {
			d.Close()
			t.Errorf("an 8×64 image opened as %d×%d", geo[0], geo[1])
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 8*64 {
		t.Fatalf("refused opens resized the image to %d bytes", info.Size())
	}
	d, err = OpenFileDevice(path, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got := make([]byte, 64)
	if err := ReadSector(context.Background(), d, 7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("last sector lost across the refused opens")
	}
}

// TestSidecarAtomicity: fault-sidecar saves go through write-temp +
// fsync + rename, and a stale temp file left by a crash mid-save is
// discarded unread instead of corrupting fault state.
func TestSidecarAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.img")
	d, err := OpenFileDevice(path, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InjectSectorError(3); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-save leaves a partial temp file; it must never shadow
	// or corrupt the real sidecar.
	tmp := path + ".faults.tmp"
	if err := os.WriteFile(tmp, []byte(`{"failed":true,"bad":[0,1,2`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = OpenFileDevice(path, 8, 64)
	if err != nil {
		t.Fatalf("open with stale sidecar temp: %v", err)
	}
	defer d.Close()
	if d.Failed() {
		t.Fatal("stale temp file was trusted as fault state")
	}
	if got := d.BadSectors(); got != 1 {
		t.Fatalf("BadSectors=%d after reopen, want 1 (from the real sidecar)", got)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale sidecar temp not cleaned up on open")
	}
	// The next save must overwrite cleanly and leave a valid sidecar.
	if err := d.InjectSectorError(5); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path + ".faults")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"bad":[3,5]`)) {
		t.Fatalf("sidecar %s does not record both faults", raw)
	}
}

// TestAsSectorErrorsSuccessPathDoesNotAllocate: every vectored call's
// result goes through AsSectorErrors, nearly always with a nil error.
func TestAsSectorErrorsSuccessPathDoesNotAllocate(t *testing.T) {
	partial := error(SectorErrors{{Index: 3, Err: ErrBadSector}})
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := AsSectorErrors(nil); ok {
			t.Fatal("nil reported as a partial failure")
		}
		if se, ok := AsSectorErrors(partial); !ok || len(se) != 1 {
			t.Fatal("bare SectorErrors not recognised")
		}
	})
	if allocs != 0 {
		t.Errorf("AsSectorErrors allocated %.1f times on nil and bare SectorErrors, want 0", allocs)
	}
	// Wrapped partial failures and whole-call failures still resolve.
	if se, ok := AsSectorErrors(fmt.Errorf("column 2: %w", partial)); !ok || se[0].Index != 3 {
		t.Fatal("wrapped SectorErrors not unwrapped")
	}
	if _, ok := AsSectorErrors(ErrDeviceFailed); ok {
		t.Fatal("whole-call failure reported as partial")
	}
}

// TestBlankChunkReadAllocations: a rebuild's first read of a replaced
// device finds every sector of its chunk bad. The read lists them in one
// allocation, and boxing the list as the call's error is the other.
func TestBlankChunkReadAllocations(t *testing.T) {
	const chunk = 16
	d := NewMemDevice(4*chunk, 512)
	if err := d.Replace(); err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, chunk)
	for i := range bufs {
		bufs[i] = make([]byte, 512)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if se, ok := AsSectorErrors(d.ReadSectors(bg, chunk, bufs)); !ok || len(se) != chunk {
			t.Fatalf("blank chunk read: %d sectors lost, want %d", len(se), chunk)
		}
	})
	if allocs > 2 {
		t.Errorf("blank chunk read: %.1f allocations, want at most 2", allocs)
	}
}
