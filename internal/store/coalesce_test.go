package store_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stair/internal/core"
	"stair/internal/store"
	"stair/internal/store/devtest"
)

// gateDevice counts inner vectored calls — what the coalescer did not
// merge away — and, when built with its channels (gatedBusy), parks each
// one until the test lets it go or the call's context is done. With a
// call parked its queue is busy, so the test decides without a clock
// exactly what queues behind it: park one lone call, submit k requests,
// wait for Queued() == k, release.
type gateDevice struct {
	store.FaultDevice
	reads, writes atomic.Int64
	entered       chan struct{} // one token per parked inner call
	release       chan struct{} // one token frees one parked call
}

// park holds a call until the test releases it, or its caller gives up.
func (g *gateDevice) park(ctx context.Context) error {
	if g.entered == nil {
		return nil
	}
	g.entered <- struct{}{}
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gateDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	g.reads.Add(1)
	if err := g.park(ctx); err != nil {
		return err
	}
	return g.FaultDevice.ReadSectors(ctx, start, bufs)
}

func (g *gateDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	g.writes.Add(1)
	if err := g.park(ctx); err != nil {
		return err
	}
	return g.FaultDevice.WriteSectors(ctx, start, data)
}

// awaitParked blocks until n more inner calls are parked in the gate
// together; the timeout only turns a hang into a message.
func (g *gateDevice) awaitParked(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d inner calls reached the device", i, n)
		}
	}
}

// gatedBusy builds a coalescer over a held gate with one lone call (a
// write, or a read, of the last sector) parked in it, so everything the
// test submits next in that direction queues. The returned func frees
// the lone call and waits for it.
func gatedBusy(t *testing.T, inner store.FaultDevice, write bool) (*gateDevice, *store.CoalescingDevice, func()) {
	t.Helper()
	// Buffered past any test's concurrent calls, so neither side of the
	// gate blocks on the other's bookkeeping.
	g := &gateDevice{FaultDevice: inner, entered: make(chan struct{}, 16), release: make(chan struct{}, 16)}
	d := store.NewCoalescingDevice(g, store.CoalesceOptions{})
	t.Cleanup(func() { d.Close() })
	lone := make(chan error, 1)
	go func() {
		buf := [][]byte{make([]byte, d.SectorSize())}
		if write {
			lone <- d.WriteSectors(bg, d.Sectors()-1, buf)
		} else {
			lone <- d.ReadSectors(bg, d.Sectors()-1, buf)
		}
	}()
	g.awaitParked(t, 1)
	return g, d, func() {
		t.Helper()
		g.release <- struct{}{}
		if err := <-lone; err != nil {
			t.Fatalf("lone call: %v", err)
		}
	}
}

// awaitQueued spins until k requests are pending behind the call in
// flight.
func awaitQueued(d *store.CoalescingDevice, k int) {
	for d.Queued() < k {
		runtime.Gosched()
	}
}

// The coalescer must present the exact same device contract as the
// backend it wraps.
func TestDeviceConformanceCoalescing(t *testing.T) {
	devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		return store.NewCoalescingDevice(store.NewMemDevice(sectors, sectorSize), store.CoalesceOptions{})
	})
}

// Adjacent writes that queued behind one call in flight must merge into
// a single inner call, and every sector must still land.
func TestCoalesceMergesAdjacentWrites(t *testing.T) {
	mem := store.NewMemDevice(16, 64)
	g, d, releaseLone := gatedBusy(t, mem, true)

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := make([][]byte, 2)
			for i := range data {
				idx := w*2 + i
				data[i] = make([]byte, 64)
				for j := range data[i] {
					data[i][j] = byte(idx*31 + j)
				}
			}
			if err := d.WriteSectors(context.Background(), w*2, data); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	awaitQueued(d, writers)
	releaseLone()
	g.awaitParked(t, 1)
	g.release <- struct{}{}
	wg.Wait()

	if got := g.writes.Load(); got != 2 {
		t.Fatalf("one lone write + %d adjacent queued writes issued %d inner calls, want 2", writers, got)
	}
	st := d.Stats()
	if st.Writes != writers+1 || st.InnerWrites != 2 || st.MergedWrites != writers {
		t.Fatalf("stats = %+v, want Writes=%d InnerWrites=2 MergedWrites=%d", st, writers+1, writers)
	}

	// Every sector must read back with the pattern its writer wrote.
	bufs := make([][]byte, 8)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	if err := mem.ReadSectors(context.Background(), 0, bufs); err != nil {
		t.Fatalf("read back: %v", err)
	}
	for idx, buf := range bufs {
		for j, b := range buf {
			if b != byte(idx*31+j) {
				t.Fatalf("sector %d byte %d = %d, want %d", idx, j, b, byte(idx*31+j))
			}
		}
	}
}

// Adjacent reads that queued together merge into one inner call and
// each caller sees exactly its own extent's data.
func TestCoalesceMergesAdjacentReads(t *testing.T) {
	mem := store.NewMemDevice(16, 64)
	fill := make([][]byte, 16)
	for i := range fill {
		fill[i] = make([]byte, 64)
		for j := range fill[i] {
			fill[i][j] = byte(i*7 + j*3)
		}
	}
	if err := mem.WriteSectors(context.Background(), 0, fill); err != nil {
		t.Fatal(err)
	}
	g, d, releaseLone := gatedBusy(t, mem, false)

	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bufs := make([][]byte, 2)
			for i := range bufs {
				bufs[i] = make([]byte, 64)
			}
			if err := d.ReadSectors(context.Background(), r*2, bufs); err != nil {
				t.Errorf("reader %d: %v", r, err)
				return
			}
			for i, buf := range bufs {
				idx := r*2 + i
				for j, b := range buf {
					if b != byte(idx*7+j*3) {
						t.Errorf("reader %d sector %d byte %d = %d, want %d", r, idx, j, b, byte(idx*7+j*3))
						return
					}
				}
			}
		}(r)
	}
	awaitQueued(d, readers)
	releaseLone()
	g.awaitParked(t, 1)
	g.release <- struct{}{}
	wg.Wait()

	if got := g.reads.Load(); got != 2 {
		t.Fatalf("one lone read + %d adjacent queued reads issued %d inner calls, want 2", readers, got)
	}
	if st := d.Stats(); st.MergedReads != readers || st.ScratchFlats != 0 {
		t.Fatalf("stats = %+v, want MergedReads=%d ScratchFlats=0", st, readers)
	}
}

// Extents separated by a gap must not merge — the coalescer merges
// round trips, it does not touch sectors nobody asked for — and the
// disjoint runs of one batch must be in flight together: issued one
// after another they would serialise unrelated extents behind the
// single batch in flight.
func TestCoalesceKeepsDisjointExtentsApart(t *testing.T) {
	g, d, releaseLone := gatedBusy(t, store.NewMemDevice(16, 64), true)

	starts := []int{0, 4, 8}
	var wg sync.WaitGroup
	for _, start := range starts {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			data := [][]byte{make([]byte, 64), make([]byte, 64)}
			if err := d.WriteSectors(context.Background(), start, data); err != nil {
				t.Errorf("write at %d: %v", start, err)
			}
		}(start)
	}
	awaitQueued(d, len(starts))
	releaseLone()
	// All three runs park in the gate at once; none has been released.
	g.awaitParked(t, len(starts))
	for range starts {
		g.release <- struct{}{}
	}
	wg.Wait()

	if got := g.writes.Load(); got != 4 {
		t.Fatalf("one lone + 3 disjoint writes issued %d inner calls, want 4", got)
	}
	if st := d.Stats(); st.MergedWrites != 0 {
		t.Fatalf("disjoint writes counted as merged: %+v", st)
	}
}

// A merged read spanning a latent sector error must report the loss
// only to the member whose extent contains it.
func TestCoalescePartialErrorRouting(t *testing.T) {
	mem := store.NewMemDevice(16, 64)
	if err := mem.InjectSectorError(3); err != nil {
		t.Fatal(err)
	}
	g, d, releaseLone := gatedBusy(t, mem, false)

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bufs := [][]byte{make([]byte, 64), make([]byte, 64)}
			errs[r] = d.ReadSectors(context.Background(), r*2, bufs)
		}(r)
	}
	awaitQueued(d, 2)
	releaseLone()
	g.awaitParked(t, 1)
	g.release <- struct{}{}
	wg.Wait()

	if got := g.reads.Load(); got != 2 {
		t.Fatalf("one lone + 2 adjacent queued reads issued %d inner calls, want 2", got)
	}
	if errs[0] != nil {
		t.Fatalf("clean member got error %v", errs[0])
	}
	se, ok := store.AsSectorErrors(errs[1])
	if !ok || len(se) != 1 || se[0].Index != 3 {
		t.Fatalf("lossy member got %v, want SectorErrors{3}", errs[1])
	}
}

// An already-cancelled context is rejected before it reaches the queue.
func TestCoalesceRejectsDeadContext(t *testing.T) {
	inner := &gateDevice{FaultDevice: store.NewMemDevice(8, 64)}
	d := store.NewCoalescingDevice(inner, store.CoalesceOptions{})
	defer d.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := d.ReadSectors(ctx, 0, [][]byte{make([]byte, 64)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("read with dead context: %v, want context.Canceled", err)
	}
	if got := inner.reads.Load(); got != 0 {
		t.Fatalf("dead-context read still issued %d inner calls", got)
	}
}

// A caller abandoning a batched operation returns at once — while the
// merged call is still parked in the device — and that call continues,
// uncancelled, for the surviving member, whose data lands.
func TestCoalesceCancelWhileBatched(t *testing.T) {
	mem := store.NewMemDevice(8, 64)
	g, d, releaseLone := gatedBusy(t, mem, true)

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		abandoned <- d.WriteSectors(ctx, 0, [][]byte{make([]byte, 64)})
	}()
	survivorErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		copy(buf, []byte{1, 2, 3})
		survivorErr <- d.WriteSectors(context.Background(), 1, [][]byte{buf})
	}()
	awaitQueued(d, 2)
	releaseLone()
	g.awaitParked(t, 1) // the merged call of both members is in flight

	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller got %v, want context.Canceled", err)
	}
	g.release <- struct{}{}
	if err := <-survivorErr; err != nil {
		t.Fatalf("surviving member: %v", err)
	}
	if st := d.Stats(); st.InnerWrites != 2 || st.MergedWrites != 2 {
		t.Fatalf("stats = %+v, want InnerWrites=2 MergedWrites=2", st)
	}
	buf := make([]byte, 64)
	if err := mem.ReadSectors(context.Background(), 1, [][]byte{buf}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatalf("survivor's write lost: got % x", buf[:3])
	}
}

// A lone caller pays for its inner call and nothing else: no window, no
// timer, no goroutine. Any per-call wait (the 200µs window this
// replaced, rounded up by the idle runtime) puts 1000 calls past 200ms.
func TestCoalesceLoneCallsPayNoWait(t *testing.T) {
	d := store.NewCoalescingDevice(store.NewMemDevice(8, 64), store.CoalesceOptions{})
	defer d.Close()
	buf := [][]byte{make([]byte, 64)}
	begin := time.Now()
	for i := 0; i < 1000; i++ {
		if err := d.WriteSectors(bg, i%8, buf); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(begin); took > 50*time.Millisecond {
		t.Fatalf("1000 back-to-back lone writes took %v, want < 50ms", took)
	}
	if st := d.Stats(); st.InnerWrites != 1000 || st.MergedWrites != 0 {
		t.Fatalf("stats = %+v, want InnerWrites=1000 MergedWrites=0", st)
	}
}

// The traffic the coalescer exists for: a wide flush pipeline over
// single-queue backends. Neighbouring stripes' chunks pile up behind the
// call in flight on each device and must go out merged.
func TestCoalesceMergesFlushPipeline(t *testing.T) {
	code, err := core.New(core.Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	const stripes, sector = 32, 512
	mems := make([]store.Device, code.N())
	devs := make([]store.Device, code.N())
	coals := make([]*store.CoalescingDevice, code.N())
	for i := range devs {
		mems[i] = store.NewMemDevice(stripes*code.R(), sector)
		coals[i] = store.NewCoalescingDevice(store.NewLatencyDeviceProfile(mems[i],
			store.LatencyProfile{Latency: 2 * time.Millisecond, Serial: true}), store.CoalesceOptions{})
		devs[i] = coals[i]
	}
	cfg := store.Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs, FlushWorkers: 16}
	s, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := writeVolume(t, s, rand.New(rand.NewSource(23)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Read everything back from the bare devices: 640 lone reads at 2ms
	// each would only slow the test down.
	cfg.Devices, cfg.FlushWorkers = mems, 0
	bare, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	checkVolume(t, bare, blocks)

	var st store.CoalesceStats
	for _, c := range coals {
		cs := c.Stats()
		st.Writes += cs.Writes
		st.InnerWrites += cs.InnerWrites
		st.MergedWrites += cs.MergedWrites
	}
	if st.InnerWrites >= st.Writes || st.MergedWrites == 0 {
		t.Fatalf("16 flush workers over serial 2ms devices merged nothing: %+v", st)
	}
}

// Spike and Serial latency profiles must actually shape timing: a
// certain spike delays a single call, and a serial device queues
// concurrent calls instead of overlapping them.
func TestLatencyProfileSpikeAndSerial(t *testing.T) {
	spiky := store.NewLatencyDeviceProfile(store.NewMemDevice(4, 64), store.LatencyProfile{
		Spike: 30 * time.Millisecond, SpikeProb: 1,
	})
	defer spiky.Close()
	begin := time.Now()
	if err := spiky.ReadSectors(context.Background(), 0, [][]byte{make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took < 30*time.Millisecond {
		t.Fatalf("certain spike: read took %v, want ≥ 30ms", took)
	}

	serial := store.NewLatencyDeviceProfile(store.NewMemDevice(4, 64), store.LatencyProfile{
		Latency: 20 * time.Millisecond, Serial: true,
	})
	defer serial.Close()
	begin = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := serial.ReadSectors(context.Background(), i, [][]byte{make([]byte, 64)}); err != nil {
				t.Errorf("serial read %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if took := time.Since(begin); took < 40*time.Millisecond {
		t.Fatalf("serial device overlapped concurrent calls: %v, want ≥ 40ms", took)
	}
}
