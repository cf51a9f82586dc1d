package store

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stair/internal/core"
)

func TestLatencyTracker(t *testing.T) {
	const ms = time.Millisecond
	ts := make([]latencyTracker, 2)
	tr := &ts[0]
	delay := func() time.Duration { return time.Duration(tr.delay.Load()) }
	for i := 1; i < hedgeMinSamples; i++ {
		tr.record(time.Duration(i) * ms)
	}
	if delay() != 0 {
		t.Fatalf("tracker answered a delay after %d samples", hedgeMinSamples-1)
	}
	tr.record(hedgeMinSamples * ms)
	if got := delay(); got != 15*ms {
		t.Fatalf("p90 of 1..16ms = %v, want 15ms", got)
	}
	// The delay is recomputed once per hedgeMinSamples samples, not per
	// sample.
	for i := 1; i < hedgeMinSamples; i++ {
		tr.record(time.Second)
	}
	if got := delay(); got != 15*ms {
		t.Fatalf("delay moved to %v between recomputations", got)
	}
	tr.record(time.Second)
	if got := delay(); got != hedgeMaxDelay {
		t.Fatalf("p90 of 16 fast and 16 one-second samples = %v, want the %v ceiling", got, hedgeMaxDelay)
	}
	// A full window of fast samples rolls the slow ones out, down to the
	// floor.
	for i := 0; i < hedgeWindow; i++ {
		tr.record(time.Microsecond)
	}
	if got := delay(); got != hedgeMinDelay {
		t.Fatalf("delay after window rollover = %v, want the %v floor", got, hedgeMinDelay)
	}
	if allocs := testing.AllocsPerRun(4*hedgeMinSamples, func() { tr.record(ms) }); allocs != 0 {
		t.Fatalf("record: %.2f allocs/op, want 0", allocs)
	}

	// Only usable answers are samples: a failed read is not, a partial
	// loss is.
	tr = &ts[1]
	slow := time.Now().Add(-2 * ms)
	for i := 0; i < hedgeMinSamples; i++ {
		tr.observe(slow, ErrDeviceFailed)
	}
	if delay() != 0 {
		t.Fatal("failed reads warmed the tracker")
	}
	for i := 0; i < hedgeMinSamples; i++ {
		tr.observe(slow, SectorErrors{{Index: 0, Err: ErrBadSector}})
	}
	if delay() < 2*ms {
		t.Fatalf("delay %v after partial losses of ≥ 2ms each", delay())
	}
}

// parkDevice parks every read of its device while armed, until the test
// releases it or the read's context ends.
type parkDevice struct {
	*MemDevice
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (d *parkDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if d.armed.Load() {
		d.entered <- struct{}{}
		select {
		case <-d.release:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return d.MemDevice.ReadSectors(ctx, start, bufs)
}

// openHedgedStore opens a filled hedging store whose column 0 is a park
// device, and warms column 0's tracker with reads of its blocks, which
// it returns.
func openHedgedStore(t *testing.T) (*Store, *parkDevice, []int) {
	t.Helper()
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const stripes, sector = 4, 128
	devs := make([]Device, code.N())
	for i := range devs {
		devs[i] = NewMemDevice(stripes*code.R(), sector)
	}
	park := &parkDevice{MemDevice: devs[0].(*MemDevice), entered: make(chan struct{}, 4), release: make(chan struct{}, 4)}
	devs[0] = park
	s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs, Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		park.armed.Store(false)
		close(park.release)
		s.Close()
	})
	fillStore(t, s)
	ord := firstOrdOn(t, s, 0)
	blocks := make([]int, stripes)
	for stripe := range blocks {
		blocks[stripe] = stripe*s.perStripe + ord
	}
	for i := 0; i < hedgeMinSamples; i++ {
		if _, err := s.ReadBlock(bg, blocks[i%stripes]); err != nil {
			t.Fatal(err)
		}
	}
	if s.hedge[0].delay.Load() == 0 {
		t.Fatal("column 0's tracker is cold after its warm-up reads")
	}
	return s, park, blocks
}

// A hedge that wins serves a read, not a degraded read, and queues no
// repair: the column is slow, not lost. The primary still parked when
// the read returns is simply dropped.
func TestHedgeWinIsARead(t *testing.T) {
	s, park, blocks := openHedgedStore(t)
	before := s.Stats()
	park.armed.Store(true)
	got, err := s.ReadBlock(bg, blocks[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blockData(blocks[1], s.BlockSize())) {
		t.Fatal("hedged read served wrong bytes")
	}
	if n := s.pendingCount.Load(); n != 0 {
		t.Fatalf("a hedge win queued %d repairs", n)
	}
	st := s.Stats()
	if st.HedgesLaunched-before.HedgesLaunched != 1 || st.HedgeWins-before.HedgeWins != 1 ||
		st.Reads-before.Reads != 1 || st.DegradedReads != before.DegradedReads {
		t.Fatalf("stats %+v after one hedge win from %+v", st, before)
	}
	<-park.entered // the primary parked before the hedge launched
}

// A row that cannot decide the block leaves the read to its primary:
// served by it (a loss), or, when it fails too, by the degraded read,
// which re-plans over the stripe (a fail).
func TestHedgeRowUndecidedWaitsForPrimary(t *testing.T) {
	s, park, blocks := openHedgedStore(t)
	b := blocks[2]
	stripe, _, cell, _ := s.blockOf(b)
	// Two siblings lost in the wanted row: with the slow column, m+1.
	for _, col := range []int{1, 2} {
		if err := s.InjectSectorError(col, s.devSector(stripe, cell.Row)); err != nil {
			t.Fatal(err)
		}
	}
	read := func(launched uint64) {
		t.Helper()
		park.armed.Store(true)
		done := make(chan error, 1)
		var got []byte
		go func() {
			var err error
			got, err = s.ReadBlock(bg, b)
			done <- err
		}()
		<-park.entered
		for s.Stats().HedgesLaunched < launched {
			runtime.Gosched()
		}
		park.armed.Store(false)
		park.release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blockData(b, s.BlockSize())) {
			t.Fatal("read served wrong bytes")
		}
	}
	read(1)
	if st := s.Stats(); st.HedgeLosses != 1 || st.HedgeWins != 0 || st.DegradedReads != 0 {
		t.Fatalf("stats %+v, want one hedge loss and no degraded read", st)
	}
	// Now the slow block's own sector is lost as well.
	if err := s.InjectSectorError(0, s.devSector(stripe, cell.Row)); err != nil {
		t.Fatal(err)
	}
	read(2)
	if st := s.Stats(); st.HedgeFails != 1 || st.DegradedReads != 1 || st.DegradedReadFallbacks != 0 {
		t.Fatalf("stats %+v, want one hedge fail served by a re-planned degraded read", st)
	}
}

// A cancelled context ends a hedged read parked on its primary.
func TestHedgeCancelledWhileParked(t *testing.T) {
	s, park, blocks := openHedgedStore(t)
	// Hold the hedge off, so that what is cancelled is the wait itself.
	s.hedge[0].delay.Store(int64(time.Hour))
	park.armed.Store(true)
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := s.ReadBlock(ctx, blocks[0])
		done <- err
	}()
	<-park.entered
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled hedged read: %v, want context.Canceled", err)
	}
}

// stallDev is a MemDevice whose reads, while it stalls, wait for the
// stall's end, the device's Close or the read's context.
type stallDev struct {
	*MemDevice
	until  atomic.Int64 // unix ns; a read before it stalls
	closed chan struct{}
}

func (d *stallDev) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if wait := time.Until(time.Unix(0, d.until.Load())); wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-t.C:
		case <-d.closed:
			return ErrDeviceFailed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return d.MemDevice.ReadSectors(ctx, start, bufs)
}

func (d *stallDev) Close() error {
	close(d.closed)
	return d.MemDevice.Close()
}

// stallDevs returns MemDevices for a store of the given geometry, column
// 0's a stallDev, which it returns too.
func stallDevs(n, stripes, r, sector int) ([]Device, *stallDev) {
	devs := make([]Device, n)
	for i := range devs {
		devs[i] = NewMemDevice(stripes*r, sector)
	}
	stall := &stallDev{MemDevice: devs[0].(*MemDevice), closed: make(chan struct{})}
	devs[0] = stall
	return devs, stall
}

// col0Blocks returns the blocks column 0 holds in a filled store, one a
// stripe, after warming column 0's tracker with reads of them.
func col0Blocks(t *testing.T, s *Store) []int {
	t.Helper()
	ord := firstOrdOn(t, s, 0)
	blocks := make([]int, s.stripes)
	for stripe := range blocks {
		blocks[stripe] = stripe*s.perStripe + ord
	}
	for i := range hedgeMinSamples {
		if _, err := s.ReadBlock(bg, blocks[i%len(blocks)]); err != nil {
			t.Fatal(err)
		}
	}
	if s.hedge[0].delay.Load() == 0 {
		t.Fatal("column 0's tracker is cold after its warm-up reads")
	}
	return blocks
}

// primariesOut counts a column's parked primaries whose answer is not in.
func primariesOut(t *latencyTracker) (n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.parked {
		if len(p.done) == 0 {
			n++
		}
	}
	return n
}

// A column that stalls for 200 ms under 1 000 hedged reads of its
// blocks, from 4 readers on distinct shards, holds at most
// hedgeMaxPrimaries primaries in flight, and so as many I/O helpers: past
// the bound its reads hedge at once. Helpers live until Close, so their
// count once the stall is over is the most there ever were. The stated
// bound adds one helper a reader: a primary handed off while a helper is
// between its answer and its next call starts another.
func TestHedgeBoundsStalledColumnPrimaries(t *testing.T) {
	const readers, reads, stall = 4, 1000, 200 * time.Millisecond
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const stripes, sector = 16, 128
	devs, dev := stallDevs(code.N(), stripes, code.R(), sector)
	s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs, Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	blocks := col0Blocks(t, s)
	end := time.Now().Add(stall)
	dev.until.Store(end.UnixNano())
	var wg sync.WaitGroup
	for w := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, sector)
			for i := w; i < reads; i += readers {
				b := blocks[i%len(blocks)]
				if err := s.ReadBlockInto(bg, b, dst); err != nil {
					t.Errorf("read block %d: %v", b, err)
					return
				}
				if !bytes.Equal(dst, blockData(b, sector)) {
					t.Errorf("block %d: wrong bytes", b)
					return
				}
			}
		}()
	}
	wg.Wait()
	time.Sleep(time.Until(end))
	for deadline := time.Now().Add(5 * time.Second); primariesOut(&s.hedge[0]) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d primaries still in flight 5 s after the stall", primariesOut(&s.hedge[0]))
		}
	}
	const bound = hedgeMaxPrimaries + readers
	helpers := strings.Count(strings.Join(storeGoroutines(), "\n\n"), ".ioHelper(")
	if helpers > bound {
		t.Errorf("%d I/O helpers after %d reads of a stalled column, want ≤ %d", helpers, reads, bound)
	}
	st := s.Stats()
	if st.HedgeWins <= hedgeMaxPrimaries {
		t.Errorf("%d hedge wins: the reads never went past the bound", st.HedgeWins)
	}
	t.Logf("%d I/O helpers, %d hedges launched, %d won", helpers, st.HedgesLaunched, st.HedgeWins)
}
