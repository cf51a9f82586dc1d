package store

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stair/internal/core"
)

// barrier holds back the device calls it matches until k of them are in
// flight, or until its timeout, which it counts: a wave of k calls
// passes it at once only when the calls really overlap. With k = 1 every
// call passes, and max tells how many were ever in flight together. With
// hold, a matched call then waits for its context to end, and returns
// only a while after that.
type barrier struct {
	match   func(write bool, start int) bool
	k       int
	hold    bool
	timeout time.Duration

	mu       sync.Mutex
	arrived  int
	gate     chan struct{}
	in, max  int
	timeouts int
}

func newBarrier(k int, match func(write bool, start int) bool) *barrier {
	return &barrier{match: match, k: k, timeout: 5 * time.Second, gate: make(chan struct{})}
}

// pass runs one device call through the barrier.
func (b *barrier) pass(ctx context.Context, write bool, start int, do func() error) error {
	if b == nil || !b.match(write, start) {
		return do()
	}
	b.mu.Lock()
	b.in++
	b.max = max(b.max, b.in)
	b.arrived++
	gate := b.gate
	if b.arrived == b.k {
		close(gate)
		b.gate, b.arrived = make(chan struct{}), 0
	}
	b.mu.Unlock()
	t := time.NewTimer(b.timeout)
	select {
	case <-gate:
	case <-t.C:
		b.mu.Lock()
		b.timeouts++
		b.mu.Unlock()
	}
	t.Stop()
	err := do()
	if b.hold {
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond)
		err = ctx.Err()
	}
	b.mu.Lock()
	b.in--
	b.mu.Unlock()
	return err
}

func (b *barrier) inFlight() (in, max, timeouts int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.in, b.max, b.timeouts
}

// barrierDev is a MemDevice whose calls go through a barrier (none when
// b is nil), and which answers Remote as told.
type barrierDev struct {
	*MemDevice
	remote bool
	b      *barrier
}

func (d *barrierDev) Remote() bool { return d.remote }

func (d *barrierDev) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	return d.b.pass(ctx, false, start, func() error { return d.MemDevice.ReadSectors(ctx, start, bufs) })
}

func (d *barrierDev) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	return d.b.pass(ctx, true, start, func() error { return d.MemDevice.WriteSectors(ctx, start, data) })
}

// arm puts every device of s, a store over barrierDevs, behind b; the
// store must be idle.
func arm(s *Store, b *barrier) {
	for _, d := range s.devs {
		d.(*barrierDev).b = b
	}
}

// barrierDevs returns n barrierDevs sized for a store of the given
// geometry, with the integrity layer on when integ is.
func barrierDevs(n, stripes, r, sector int, integ bool, remote bool, b *barrier) []Device {
	sectors := stripes * r
	if integ {
		sectors += IntegrityMetaSectors(stripes, r, sector)
	}
	devs := make([]Device, n)
	for i := range devs {
		devs[i] = &barrierDev{MemDevice: NewMemDevice(sectors, sector), remote: remote, b: b}
	}
	return devs
}

// TestWaveOverlapsRemoteColumns: a full-stripe write-back's data writes,
// its sidecar writes and a whole-stripe load each go out as one wave of n
// calls, one per column. On remote columns the n calls are in flight
// together — the barrier releases them only then, and times out
// otherwise — and on local ones they run one at a time on the caller's
// goroutine.
func TestWaveOverlapsRemoteColumns(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const stripes, sector = 4, 128
	dataSectors := stripes * code.R()
	for _, phase := range []struct {
		name  string
		match func(write bool, start int) bool
	}{
		{"write-back", func(write bool, start int) bool { return write && start < dataSectors }},
		{"sidecar", func(write bool, start int) bool { return write && start >= dataSectors }},
		{"planned-load", func(write bool, start int) bool { return !write && start < dataSectors }},
	} {
		for _, remote := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/remote=%t", phase.name, remote), func(t *testing.T) {
				k := 1
				if remote {
					k = code.N()
				}
				b := newBarrier(k, phase.match)
				s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Integrity: &IntegrityOptions{},
					Devices: barrierDevs(code.N(), stripes, code.R(), sector, true, remote, nil)})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				arm(s, b)
				fillStore(t, s)
				for stripe := range stripes {
					sh := s.shard(stripe)
					sh.mu.Lock()
					st, ld, err := s.loadAll(bg, stripe, true)
					lost := ld.lost.Count()
					s.releaseStripe(st)
					sh.mu.Unlock()
					if err != nil || lost != 0 {
						t.Fatalf("stripe %d: load found %d lost cells, err %v", stripe, lost, err)
					}
				}
				arm(s, nil)
				checkAllBlocks(t, s)
				_, most, timeouts := b.inFlight()
				if most != k || timeouts != 0 {
					t.Errorf("%d calls in flight at most, %d barrier timeouts; want %d and 0", most, timeouts, k)
				}
			})
		}
	}
}

// TestWaveCancelWaitsForHandedCalls: a wave whose context ends returns
// its error only once every call it handed off has returned — none may
// still be filling or sending the stripe's buffers — and drops the
// shard's vector scratch, which an abandoned inner operation may hold.
func TestWaveCancelWaitsForHandedCalls(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const stripes, sector = 2, 128
	dataSectors := stripes * code.R()
	for _, write := range []bool{true, false} {
		t.Run(fmt.Sprintf("write=%t", write), func(t *testing.T) {
			b := newBarrier(code.N(), func(w bool, start int) bool { return w == write && start < dataSectors })
			s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Integrity: &IntegrityOptions{},
				Devices: barrierDevs(code.N(), stripes, code.R(), sector, true, true, nil)})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fillStore(t, s)
			b.hold = true
			arm(s, b)
			ctx, cancel := context.WithCancel(bg)
			go func() {
				for in, _, _ := b.inFlight(); in < code.N(); in, _, _ = b.inFlight() {
					time.Sleep(time.Millisecond)
				}
				cancel()
			}()
			sh := s.shard(0)
			sh.mu.Lock()
			st := s.acquireStripe()
			if write {
				_, _, err = s.writeStripeCells(ctx, 0, st, s.allCells, nil)
			} else {
				ld := s.startLoad(0, true)
				ld.want.Union(s.every)
				err = s.loadPlanned(ctx, ld, st)
			}
			in, most, timeouts := b.inFlight()
			vecs := sh.wave.vecs
			sh.mu.Unlock()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled wave returned %v, want context.Canceled", err)
			}
			if in != 0 || most != code.N() || timeouts != 0 {
				t.Errorf("on return %d calls still in flight (%d at most, %d timeouts); want 0 (%d, 0)", in, most, timeouts, code.N())
			}
			if vecs != nil {
				t.Error("a cancelled wave kept the shard's vector scratch")
			}
		})
	}
}

// TestWaveConnectionsPerColumn: over NetDevices, repeated waves — full
// stripes written back, a scrub's whole-stripe loads, sub-stripe updates
// and degraded reads — reuse each column's connections: a column opens
// at most two, its dial's included.
func TestWaveConnectionsPerColumn(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const stripes, sector = 8, 128
	devs := make([]Device, code.N())
	nets := make([]*NetDevice, code.N())
	for i := range devs {
		srv := httptest.NewServer(NewDeviceServer(NewMemDevice(stripes*code.R()+IntegrityMetaSectors(stripes, code.R(), sector), sector)))
		t.Cleanup(srv.Close)
		d, err := DialNetDevice(bg, srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		devs[i], nets[i] = d, d
	}
	s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs, Integrity: &IntegrityOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for range 5 {
		fillStore(t, s)
		if _, err := s.Scrub(bg); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < s.Blocks(); b += 5 {
			if err := s.WriteBlock(bg, b, blockData(b, sector)); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(bg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	checkAllBlocks(t, s)
	if s.Stats().DegradedReads == 0 {
		t.Fatal("no degraded read")
	}
	for i, d := range nets {
		if got := d.upgrades.Load(); got > 2 {
			t.Errorf("column %d opened %d frame connections, want ≤ 2", i, got)
		}
	}
}

// TestDisjointWritersMakeNoSubFlushes: writers filling disjoint stripes,
// no more of them than MaxDirtyStripes, never have a half-filled stripe
// evicted: each writer flushes the stripe it fills before its next
// write, so it holds at most one buffered stripe, the bound is never
// exceeded, and every flush is a full-stripe encode.
func TestDisjointWritersMakeNoSubFlushes(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const writers, stripes = 4, 32
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: stripes, MaxDirtyStripes: writers})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	per := s.Blocks() / writers
	for range 3 {
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := w * per; b < (w+1)*per; b++ {
					if err := s.WriteBlock(bg, b, blockData(b, s.BlockSize())); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := s.Flush(bg); err != nil {
			t.Fatal(err)
		}
	}
	checkAllBlocks(t, s)
	if st := s.Stats(); st.SubStripeFlushes != 0 || st.FullStripeFlushes != 3*stripes {
		t.Errorf("%d sub-stripe and %d full-stripe flushes, want 0 and %d", st.SubStripeFlushes, st.FullStripeFlushes, 3*stripes)
	}
}
