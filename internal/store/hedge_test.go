package store

import (
	"bytes"
	"context"
	"runtime"
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
