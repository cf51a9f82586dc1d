package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stair/internal/core"
	"stair/internal/store/journal"
)

// TestConcurrentStripeOperations is the sharded-lock stress test (run
// under -race in CI): workers hammer disjoint stripe ranges with writes
// and read-back verification while a background scrubber, explicit
// scrub passes and a pool of repair workers heal injected latent sector
// errors. Stripes are independent units of encoding and recovery, so
// none of this traffic may lose an update or skew the counters.
func TestConcurrentStripeOperations(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	// Twice as many stripes as lock shards: every shard owns two
	// stripes, of different workers.
	const (
		stripes = 2 * defaultLockShards
		workers = 8
		rounds  = 6
	)
	s, err := Open(Config{
		Code:            code,
		SectorSize:      64,
		Stripes:         stripes,
		RepairWorkers:   4,
		MaxDirtyStripes: 4, // small bound forces cross-shard evictions
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	// One latent sector error per stripe keeps repair traffic flowing
	// underneath the foreground load.
	for stripe := 0; stripe < stripes; stripe++ {
		if err := s.InjectSectorError(stripe%s.n, s.devSector(stripe, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.StartScrubber(ScrubberOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	// payload stamps a block's content with the round that wrote it, so
	// a read-back detects lost updates.
	payload := func(b, round int) []byte {
		return blockData(b*(rounds+1)+round, s.BlockSize())
	}
	stripesPerWorker := stripes / workers
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * stripesPerWorker * s.perStripe
			hi := lo + stripesPerWorker*s.perStripe
			for round := 1; round <= rounds; round++ {
				for b := lo; b < hi; b++ {
					if err := s.WriteBlock(bg, b, payload(b, round)); err != nil {
						errCh <- fmt.Errorf("worker %d round %d: write block %d: %w", w, round, b, err)
						return
					}
				}
				for b := lo; b < hi; b++ {
					got, err := s.ReadBlock(bg, b)
					if err != nil {
						errCh <- fmt.Errorf("worker %d round %d: read block %d: %w", w, round, b, err)
						return
					}
					if !bytes.Equal(got, payload(b, round)) {
						errCh <- fmt.Errorf("worker %d round %d: block %d lost its update", w, round, b)
						return
					}
				}
			}
		}(w)
	}
	// Synchronous scrub passes compete with the background scrubber and
	// the foreground load for the same shard locks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := s.Scrub(bg); err != nil {
				errCh <- fmt.Errorf("concurrent scrub: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s.StopScrubber()

	// Converge the repair wave, then verify content, parity and stats.
	deadline := time.Now().Add(10 * time.Second)
	for s.TotalBadSectors() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repairs did not converge; %d bad sectors left", s.TotalBadSectors())
		}
		if _, err := s.Scrub(bg); err != nil {
			t.Fatal(err)
		}
		s.Quiesce()
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	finalReads := 0
	for b := 0; b < s.Blocks(); b++ {
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatalf("final read of block %d: %v", b, err)
		}
		finalReads++
		if !bytes.Equal(got, payload(b, rounds)) {
			t.Fatalf("block %d does not hold its final round", b)
		}
	}
	checkStripesConsistent(t, s)

	st := s.Stats()
	wantWrites := uint64(s.Blocks()) * (rounds + 1) // fill + every round
	if st.Writes != wantWrites {
		t.Errorf("Writes=%d, want exactly %d (no lost or double-counted writes)", st.Writes, wantWrites)
	}
	wantReads := uint64(s.Blocks())*rounds + uint64(finalReads)
	if st.Reads != wantReads {
		t.Errorf("Reads=%d, want exactly %d", st.Reads, wantReads)
	}
	if st.UnrecoverableStripes != 0 {
		t.Errorf("UnrecoverableStripes=%d under coverage-internal damage", st.UnrecoverableStripes)
	}
	if got := len(s.UnrecoverableStripes()); got != 0 {
		t.Errorf("%d stripes marked unrecoverable", got)
	}
}

// cancelOnStripeRead wraps a MemDevice and cancels a context the first
// time an extent of the target stripe is read — aborting a Flush sweep
// deterministically partway through its drain.
type cancelOnStripeRead struct {
	*MemDevice
	r      int
	stripe int
	cancel context.CancelFunc
	once   sync.Once
}

func (d *cancelOnStripeRead) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if start/d.r == d.stripe {
		d.once.Do(d.cancel)
	}
	return d.MemDevice.ReadSectors(ctx, start, bufs)
}

// TestFlushCancelledMidDrain: a Flush whose context dies partway
// through the sweep must leave every undrained stripe still buffered —
// readable with its unflushed content — and a later Flush with a live
// context lands them all.
func TestFlushCancelledMidDrain(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	const stripes = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	devs := make([]Device, code.N())
	for i := range devs {
		devs[i] = NewMemDevice(stripes*code.R(), 128)
	}
	// The sweep runs stripes in ascending order; the wrapped device 0
	// kills the context when the sweep reaches stripe 1's RMW load.
	devs[0] = &cancelOnStripeRead{
		MemDevice: NewMemDevice(stripes*code.R(), 128),
		r:         code.R(), stripe: 1, cancel: cancel,
	}
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: stripes, Devices: devs, MaxDirtyStripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for stripe := 0; stripe < stripes; stripe++ {
		if err := s.WriteBlock(bg, stripe*s.perStripe, blockData(stripe, s.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Flush returned %v, want context.Canceled", err)
	}
	// Stripe 0 drained before the cancellation; stripes 1–3 must still
	// be dirty, their buffered writes intact and readable.
	if got := int(s.dirtyCount.Load()); got != stripes-1 {
		t.Fatalf("dirtyCount=%d after cancelled Flush, want %d undrained stripes", got, stripes-1)
	}
	for stripe := 0; stripe < stripes; stripe++ {
		got, err := s.ReadBlock(bg, stripe*s.perStripe)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blockData(stripe, s.BlockSize())) {
			t.Fatalf("stripe %d's buffered write lost across the cancelled Flush", stripe)
		}
	}
	// A later Flush with a live context lands every undrained stripe.
	if err := s.Flush(bg); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if got := int(s.dirtyCount.Load()); got != 0 {
		t.Fatalf("dirtyCount=%d after retry, want 0", got)
	}
	if st := s.Stats(); st.SubStripeFlushes != stripes {
		t.Errorf("SubStripeFlushes=%d, want %d", st.SubStripeFlushes, stripes)
	}
	checkStripesConsistent(t, s)
}

// TestConcurrentDegradedReadsSameStripe: many readers of one degraded
// stripe whose block needs the whole-stripe decode race the repair worker
// that the first fallback queues — every read returns the right bytes
// whichever side of the repair it lands on, and the repair heals the
// row's live losses.
func TestConcurrentDegradedReadsSameStripe(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 2, RepairWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	if err := s.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	var deadBlock int = -1
	for b := 0; b < s.perStripe; b++ {
		if s.dataCells[b].Col == 2 {
			deadBlock = b
			break
		}
	}
	if deadBlock < 0 {
		t.Fatal("no data cell on device 2")
	}
	// m more losses in the block's row, so that the row cannot decide it.
	for _, col := range []int{0, 5} {
		if err := s.InjectSectorError(col, s.devSector(0, s.dataCells[deadBlock].Row)); err != nil {
			t.Fatal(err)
		}
	}
	const readers, reads = 8, 50
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < reads; j++ {
				got, err := s.ReadBlock(bg, deadBlock)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, blockData(deadBlock, s.BlockSize())) {
					errCh <- fmt.Errorf("degraded read returned wrong data")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DegradedReads != readers*reads {
		t.Errorf("DegradedReads=%d, want %d", st.DegradedReads, readers*reads)
	}
	s.Quiesce()
	if bad := s.TotalBadSectors(); bad != 0 {
		t.Errorf("%d bad sectors left on live devices after the repair", bad)
	}
}

// storeGoroutines returns the stacks of the goroutines running a Store
// method.
func storeGoroutines() []string {
	buf := make([]byte, 1<<20)
	var stacks []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "stair/internal/store.(*Store)") {
			stacks = append(stacks, g)
		}
	}
	return stacks
}

// exiting reports whether a goroutine's stack shows it past the work
// it was started for: inside its deferred WaitGroup.Done, in the
// runtime's goexit, or in no call at all — its one frame at the return
// that runs the deferred Done. A worker still in its loop is parked in a
// call (a channel receive, a condition wait) or making one.
func exiting(stack string) bool {
	if strings.Contains(stack, "sync.(*WaitGroup).Done(") || strings.Contains(stack, "runtime.goexit1(") {
		return true
	}
	frames := 0
	for _, line := range strings.Split(strings.TrimSpace(stack), "\n")[1:] {
		if !strings.HasPrefix(line, "\t") && !strings.HasPrefix(line, "created by ") {
			frames++
		}
	}
	return frames == 1
}

// TestCloseLeavesNoGoroutines: Close returns only once every goroutine
// the store started — the repair workers, the I/O helpers of a store
// over remote columns or of hedged reads' primaries — has exited, so
// an Open/Close cycle leaves no more goroutines running Store methods
// than there were before Open. It holds with and without a journal,
// when a flush failed and Close reports it, and, within 1 s, when hedged
// reads left their primaries stalled on a column until it is closed —
// a local device, or a NetDevice whose server's device stalls.
// The goroutines are looked at the moment Close returns, over several
// cycles: any but a worker inside its deferred wg.Done — past the point
// that releases Close, on its way out — is a leak, and those must be
// gone within 2 s. Goroutines that other code runs, such as the
// runtime's finalizer goroutine, are not counted.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	for _, tc := range []struct {
		name    string
		journal bool
		fail    bool
		remote  bool
		hedge   bool
	}{{"plain", false, false, false, false}, {"journal", true, false, false, false}, {"flush-error", false, true, false, false},
		{"remote", true, false, true, false}, {"hedge", false, false, false, true}, {"hedge-remote", false, false, true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			for cycle := range 10 {
				baseline := len(storeGoroutines())
				cfg := Config{Code: code, SectorSize: 128, Stripes: 4, RepairWorkers: 2}
				if tc.remote && !tc.hedge {
					// Every wave's calls go to the I/O helpers.
					cfg.Integrity = &IntegrityOptions{}
					cfg.Devices = barrierDevs(code.N(), 4, code.R(), 128, true, true, nil)
				}
				var stall *stallDev
				if tc.hedge {
					cfg.Hedge = true
					cfg.Devices, stall = stallDevs(code.N(), 4, code.R(), 128)
				}
				var srv *httptest.Server
				if tc.remote && tc.hedge {
					// Column 0 is a client of a loopback server over the
					// stalling device: its Close must end the stalled calls
					// without re-dialling the server.
					srv = httptest.NewServer(NewDeviceServer(stall))
					nd, err := DialNetDevice(bg, srv.URL, srv.Client())
					if err != nil {
						t.Fatal(err)
					}
					cfg.Devices[0] = nd
				}
				var j *journal.Journal
				if tc.journal {
					var err error
					if j, err = journal.Open(filepath.Join(t.TempDir(), "journal.wal")); err != nil {
						t.Fatal(err)
					}
					cfg.Journal = j
				}
				s, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fillStore(t, s)
				if tc.fail {
					// m+1 devices down: the next stripe's RMW cannot load.
					for _, dev := range []int{0, 1, 2} {
						if err := s.FailDevice(dev); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := s.WriteBlock(bg, 1, blockData(7, s.BlockSize())); err != nil {
					t.Fatal(err)
				}
				if tc.hedge {
					// Column 0 stalls every read until it is closed: each
					// hedged read of it leaves its primary on an I/O helper.
					if err := s.Flush(bg); err != nil {
						t.Fatal(err)
					}
					blocks := col0Blocks(t, s)
					stall.until.Store(time.Now().Add(time.Hour).UnixNano())
					for _, b := range blocks {
						if _, err := s.ReadBlock(bg, b); err != nil {
							t.Fatal(err)
						}
					}
				}
				if (tc.remote || tc.hedge) && !strings.Contains(strings.Join(storeGoroutines(), ""), ".ioHelper(") {
					t.Fatalf("cycle %d: no I/O helper running before Close", cycle)
				}
				begin := time.Now()
				closed := make(chan error, 1)
				go func() { closed <- s.Close() }()
				select {
				case err = <-closed:
				case <-time.After(10 * time.Second):
					t.Fatalf("cycle %d: Close has not returned in 10 s", cycle)
				}
				if took := time.Since(begin); tc.hedge && took > time.Second {
					t.Fatalf("cycle %d: Close took %v with primaries stalled, want ≤ 1 s", cycle, took)
				}
				left := storeGoroutines()
				if tc.fail != (err != nil) {
					t.Fatalf("cycle %d: Close returned %v", cycle, err)
				}
				var working []string
				for _, g := range left {
					if !exiting(g) {
						working = append(working, g)
					}
				}
				if len(working) > baseline {
					t.Fatalf("cycle %d: %d goroutines in Store methods after Close, not exiting; %d before Open:\n%s",
						cycle, len(working), baseline, strings.Join(working, "\n\n"))
				}
				for deadline := time.Now().Add(2 * time.Second); len(left) > baseline && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
					left = storeGoroutines()
				}
				if len(left) > baseline {
					t.Fatalf("cycle %d: %d goroutines in Store methods 2 s after Close, %d before Open:\n%s",
						cycle, len(left), baseline, strings.Join(left, "\n\n"))
				}
				if j != nil {
					j.Close()
				}
				if srv != nil {
					srv.Close()
				}
			}
		})
	}
}
