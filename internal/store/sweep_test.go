package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"stair/internal/core"
	"stair/internal/store"
)

const (
	sweepStripes = 8
	sweepGateCol = 0 // every stripe load reads it first
	sweepRebuild = 2 // the replaced column RebuildDevice restores
)

// gateDevice, once its channels are set, parks each vectored call until
// the test lets it go or the call's context is done, so a test sees
// without a clock how many calls are in flight at once.
type gateDevice struct {
	store.FaultDevice
	entered chan struct{} // one token per parked call
	release chan struct{} // one token frees one parked call
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
	if err := g.park(ctx); err != nil {
		return err
	}
	return g.FaultDevice.ReadSectors(ctx, start, bufs)
}

func (g *gateDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if err := g.park(ctx); err != nil {
		return err
	}
	return g.FaultDevice.WriteSectors(ctx, start, data)
}

// awaitParked blocks until n more calls are parked in the gate
// together; the timeout only turns a hang into a message.
func (g *gateDevice) awaitParked(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d calls reached the device", i, n)
		}
	}
}

// withProcs runs the rest of the test at GOMAXPROCS=n, which sets a
// sweep's width.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// openGatedSweep opens a filled store whose column sweepGateCol is a
// gate device and, for the rebuild op, replaces column sweepRebuild with
// a blank device. The gate is armed last, so from then on every stripe
// the op visits parks in it.
func openGatedSweep(t *testing.T, rebuild bool) (*store.Store, *gateDevice, [][]byte) {
	t.Helper()
	code, err := core.New(core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	const sector = 128
	devs := make([]store.Device, code.N())
	for i := range devs {
		devs[i] = store.NewMemDevice(sweepStripes*code.R(), sector)
	}
	g := &gateDevice{FaultDevice: store.NewMemDevice(sweepStripes*code.R(), sector)}
	devs[sweepGateCol] = g
	s, err := store.Open(store.Config{Code: code, SectorSize: sector, Stripes: sweepStripes, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	blocks := writeVolume(t, s, rand.New(rand.NewSource(26)))
	if rebuild {
		if err := s.FailDevice(sweepRebuild); err != nil {
			t.Fatal(err)
		}
		if err := s.ReplaceDevice(sweepRebuild); err != nil {
			t.Fatal(err)
		}
	}
	// One token per stripe load: the op's parked calls never block on the
	// gate's bookkeeping.
	g.entered = make(chan struct{}, sweepStripes)
	g.release = make(chan struct{}, sweepStripes)
	return s, g, blocks
}

// sweepOps are the two maintenance sweeps, each over a volume
// openGatedSweep prepared for it.
var sweepOps = []struct {
	name    string
	rebuild bool
	run     func(ctx context.Context, s *store.Store) error
}{
	{"RebuildDevice", true, func(ctx context.Context, s *store.Store) error {
		return s.RebuildDevice(ctx, sweepRebuild)
	}},
	{"Scrub", false, func(ctx context.Context, s *store.Store) error {
		_, err := s.Scrub(ctx)
		return err
	}},
}

// sweepers counts the goroutines inside a store sweep: its caller and
// the workers it started.
func sweepers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("store.(*Store).sweep")) {
			n++
		}
	}
	return n
}

// awaitGoroutines waits until at most n goroutines are left; the
// timeout only turns a leak into a message.
func awaitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want ≤ %d", runtime.NumGoroutine(), n)
		}
		runtime.Gosched()
	}
}

// A maintenance sweep has GOMAXPROCS stripes in flight: that many park in
// the gate together, on that many goroutines — the caller's and
// GOMAXPROCS−1 workers, so at one core it starts none — and all of them
// are gone when it returns.
func TestSweepStripesInFlight(t *testing.T) {
	for _, op := range sweepOps {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", op.name, procs), func(t *testing.T) {
				withProcs(t, procs)
				s, g, blocks := openGatedSweep(t, op.rebuild)
				base := runtime.NumGoroutine()
				done := make(chan error, 1)
				// t.Context ends before the store's cleanup closes it, so a
				// failed check cannot leave the sweep parked holding a shard.
				go func() { done <- op.run(t.Context(), s) }()
				g.awaitParked(t, procs)
				if got := sweepers(); got != procs {
					t.Errorf("%d goroutines sweeping with %d stripes parked, want %d", got, procs, procs)
				}
				close(g.release)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				awaitGoroutines(t, base)
				g.entered = nil // the checks below read column 0 unparked
				if got := s.TotalBadSectors(); got != 0 {
					t.Fatalf("%d bad sectors after the sweep", got)
				}
				checkVolume(t, s, blocks)
			})
		}
	}
}

// Cancelling a sweep while its workers are parked on a device returns
// context.Canceled promptly and leaves no worker behind.
func TestSweepCancelWhileParked(t *testing.T) {
	for _, op := range sweepOps {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/procs=%d", op.name, procs), func(t *testing.T) {
				withProcs(t, procs)
				s, g, _ := openGatedSweep(t, op.rebuild)
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(bg)
				defer cancel()
				done := make(chan error, 1)
				go func() { done <- op.run(ctx, s) }()
				g.awaitParked(t, procs)
				cancel()
				select {
				case err := <-done:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("cancelled sweep: %v, want context.Canceled", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("cancelled sweep did not return")
				}
				awaitGoroutines(t, base)
			})
		}
	}
}

// A scrub report is the sum over stripes, whatever order the workers
// visited them in: located losses in three stripes, one silently
// corrupted sector and one stripe beyond coverage report the same at one
// core and at four. The corrupted sector is an unlocatable lie without
// the integrity layer and a located mismatch with it.
func TestScrubReportSameAtAnyWidth(t *testing.T) {
	for _, tc := range []struct {
		integ *store.IntegrityOptions
		want  store.ScrubReport
	}{
		{nil, store.ScrubReport{StripesChecked: 16, StripesDamaged: 4, StripesQueued: 3, SectorsLost: 22,
			StripesInconsistent: 1, StripesUnrecoverable: 2}},
		{&store.IntegrityOptions{Epoch: 1}, store.ScrubReport{StripesChecked: 16, StripesDamaged: 5, StripesQueued: 4,
			SectorsLost: 22, ChecksumMismatches: 1, StripesUnrecoverable: 1}},
	} {
		for _, procs := range []int{1, 4} {
			withProcs(t, procs)
			if got := damagedScrub(t, tc.integ); got != tc.want {
				t.Errorf("integrity=%t, %d cores: scrub report %+v, want %+v", tc.integ != nil, procs, got, tc.want)
			}
		}
	}
}

// damagedScrub scrubs a fresh 16-stripe volume carrying the same damage
// every time.
func damagedScrub(t *testing.T, integ *store.IntegrityOptions) store.ScrubReport {
	t.Helper()
	code, err := core.New(core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	const stripes, r = 16, 4
	s, err := store.Open(store.Config{Code: code, SectorSize: 128, Stripes: stripes, Integrity: integ})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writeVolume(t, s, rand.New(rand.NewSource(26)))
	inject := func(dev, stripe, row int) {
		t.Helper()
		if err := s.InjectSectorError(dev, stripe*r+row); err != nil {
			t.Fatal(err)
		}
	}
	for _, stripe := range []int{1, 6, 11} {
		inject(stripe%code.N(), stripe, stripe%r)
		inject((stripe+1)%code.N(), stripe, (stripe+2)%r)
	}
	// Located by the checksum layer when it is on; an unlocatable lie when
	// it is off.
	if err := s.CorruptSectorSilently(1, 3*r+2); err != nil {
		t.Fatal(err)
	}
	// Four whole columns of one stripe: beyond any pattern the code covers.
	for dev := 0; dev < 4; dev++ {
		for row := 0; row < r; row++ {
			inject(dev, 13, row)
		}
	}
	rep, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	return rep
}
