package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"stair/internal/core"
	"stair/internal/store"
)

func testCode(t testing.TB) *core.Code {
	t.Helper()
	c, err := core.New(core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// gateDevice wraps a MemDevice with a switchable per-call delay — the
// deterministic stand-in for a backend that suddenly goes
// heavy-tailed.
type gateDevice struct {
	store.FaultDevice
	delay atomic.Int64 // nanoseconds
	fail  atomic.Bool  // after the delay, answer ErrDeviceFailed
}

func (g *gateDevice) wait(ctx context.Context) error {
	if d := time.Duration(g.delay.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	if g.fail.Load() {
		return store.ErrDeviceFailed
	}
	return ctx.Err()
}

func (g *gateDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if err := g.wait(ctx); err != nil {
		return err
	}
	return g.FaultDevice.ReadSectors(ctx, start, bufs)
}

func (g *gateDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if err := g.wait(ctx); err != nil {
		return err
	}
	return g.FaultDevice.WriteSectors(ctx, start, data)
}

func TestLatencyTracker(t *testing.T) {
	tr := newLatencyTracker(8)
	if _, ok := tr.percentile(0.9, 4); ok {
		t.Fatal("empty tracker answered a percentile")
	}
	for i := 1; i <= 8; i++ {
		tr.record(time.Duration(i) * time.Millisecond)
	}
	p, ok := tr.percentile(0.5, 4)
	if !ok {
		t.Fatal("full tracker refused a percentile")
	}
	if p < 4*time.Millisecond || p > 6*time.Millisecond {
		t.Fatalf("p50 of 1..8ms = %v", p)
	}
	// Ring overwrite: 8 more samples at 100ms shift the window.
	for i := 0; i < 8; i++ {
		tr.record(100 * time.Millisecond)
	}
	if p, _ := tr.percentile(0.5, 4); p != 100*time.Millisecond {
		t.Fatalf("p50 after window rollover = %v, want 100ms", p)
	}
}

// A column that suddenly stalls must be outrun by the hedge: the
// sibling reconstruction answers first, with the exact bytes the stalled
// device holds.
func TestHedgedReadOutrunsStall(t *testing.T) {
	code := testCode(t)
	const sectorSize, stripes = 64, 4
	gates := map[string]*gateDevice{}
	mems := map[string]*store.MemDevice{}
	var servers []Server
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("s%d", i)
		servers = append(servers, Server{Name: name, URL: "local://" + name})
	}
	v, err := Open(context.Background(), Config{
		Fleet:      &Fleet{Servers: servers},
		VolumeName: "hedge-test",
		Code:       code,
		SectorSize: sectorSize,
		Stripes:    stripes,
		Dial: func(ctx context.Context, server Server) (store.Device, error) {
			mem := store.NewMemDevice(stripes*code.R(), sectorSize)
			g := &gateDevice{FaultDevice: mem}
			gates[server.Name], mems[server.Name] = g, mem
			return g, nil
		},
		Hedge: &HedgeConfig{
			Percentile: 0.5,
			MinDelay:   2 * time.Millisecond,
			MaxDelay:   20 * time.Millisecond,
			MinSamples: 4,
			Window:     64,
		},
		Monitor: MonitorConfig{Interval: time.Hour}, // out of the way
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	ctx := context.Background()
	for b := 0; b < v.Blocks(); b++ {
		data := bytes.Repeat([]byte{byte(b + 1)}, sectorSize)
		if err := v.WriteBlock(ctx, b, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	hd, ok := v.devs[0].(*hedgedColumn)
	if !ok {
		t.Fatalf("column 0 device is %T, want *hedgedColumn", v.devs[0])
	}
	// Warm the latency tracker with fast reads.
	for i := 0; i < 8; i++ {
		if err := hd.ReadSectors(ctx, 0, [][]byte{make([]byte, sectorSize)}); err != nil {
			t.Fatal(err)
		}
	}

	// Stall column 0's backend and read through the hedge.
	victim := v.Placement()[0].Name
	gates[victim].delay.Store(int64(300 * time.Millisecond))
	bufs := make([][]byte, code.R())
	for i := range bufs {
		bufs[i] = make([]byte, sectorSize)
	}
	begin := time.Now()
	if err := hd.ReadSectors(ctx, 0, bufs); err != nil {
		t.Fatalf("hedged read: %v", err)
	}
	took := time.Since(begin)
	if took >= 250*time.Millisecond {
		t.Fatalf("hedged read took %v — the hedge did not outrun the 300ms stall", took)
	}

	// The reconstruction must equal what the stalled device holds.
	want := make([][]byte, code.R())
	for i := range want {
		want[i] = make([]byte, sectorSize)
	}
	if err := mems[victim].ReadSectors(ctx, 0, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(bufs[i], want[i]) {
			t.Fatalf("hedged sector %d differs from device content", i)
		}
	}

	st := v.Stats()
	if st.HedgesLaunched == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge counters %+v, want ≥1 launched and ≥1 win", st)
	}
}

// A primary that fails hard after the hedge launched is not a latency
// sample: recorded, a column failing slowly (transport retries
// exhausted) would drag its own percentile toward MaxDelay and switch
// hedging off for exactly the column that needs it.
func TestHedgeTrackerIgnoresFailedPrimary(t *testing.T) {
	code := testCode(t)
	const sectorSize, stripes = 64, 2
	gates := map[string]*gateDevice{}
	var servers []Server
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("s%d", i)
		servers = append(servers, Server{Name: name, URL: "local://" + name})
	}
	v, err := Open(context.Background(), Config{
		Fleet:      &Fleet{Servers: servers},
		Code:       code,
		SectorSize: sectorSize,
		Stripes:    stripes,
		Dial: func(ctx context.Context, server Server) (store.Device, error) {
			g := &gateDevice{FaultDevice: store.NewMemDevice(stripes*code.R(), sectorSize)}
			gates[server.Name] = g
			return g, nil
		},
		Hedge:   &HedgeConfig{MinDelay: time.Millisecond, MinSamples: 4},
		Monitor: MonitorConfig{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	ctx := context.Background()
	hd := v.devs[0].(*hedgedColumn)
	buf := [][]byte{make([]byte, sectorSize)}
	for i := 0; i < 8; i++ {
		if err := hd.ReadSectors(ctx, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	slowest, _ := hd.tracker.percentile(1, 1)
	launched := v.Stats().HedgesLaunched

	// Column 0 fails hard 10ms in — long after the hedge launches — and
	// m more dead siblings make the hedge fail first, so the read ends
	// in the arm that receives the failed primary.
	place := v.Placement()
	gates[place[0].Name].delay.Store(int64(10 * time.Millisecond))
	for _, srv := range place[:3] {
		gates[srv.Name].fail.Store(true)
	}
	if err := hd.ReadSectors(ctx, 0, buf); !errors.Is(err, store.ErrDeviceFailed) {
		t.Fatalf("read of a failed column behind a failed hedge: %v, want ErrDeviceFailed", err)
	}
	if st := v.Stats(); st.HedgesLaunched != launched+1 {
		t.Fatalf("hedge counters %+v, want one more launch than %d", st, launched)
	}
	if got, _ := hd.tracker.percentile(1, 1); got != slowest {
		t.Fatalf("tracker's slowest sample went %v → %v: the failed primary was recorded", slowest, got)
	}
}

// Below MinSamples no hedge may launch, however slow the primary.
func TestHedgeWaitsForSamples(t *testing.T) {
	code := testCode(t)
	const sectorSize, stripes = 64, 2
	var servers []Server
	for i := 0; i < 6; i++ {
		servers = append(servers, Server{Name: fmt.Sprintf("s%d", i), URL: "local://"})
	}
	v, err := Open(context.Background(), Config{
		Fleet:      &Fleet{Servers: servers},
		Code:       code,
		SectorSize: sectorSize,
		Stripes:    stripes,
		Dial: func(ctx context.Context, server Server) (store.Device, error) {
			return &gateDevice{FaultDevice: store.NewMemDevice(stripes*code.R(), sectorSize)}, nil
		},
		Hedge:   &HedgeConfig{MinSamples: 1 << 30},
		Monitor: MonitorConfig{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	hd := v.devs[0].(*hedgedColumn)
	if err := hd.ReadSectors(context.Background(), 0, [][]byte{make([]byte, sectorSize)}); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.HedgesLaunched != 0 {
		t.Fatalf("hedge launched with no latency history: %+v", st)
	}
}

// TestHedgedReadSubChunkExtents: the store's delta read–modify–write
// reads sub-chunk extents — a few rows from the middle of a stripe's
// chunk — through the hedge. A stalled column must be outrun on such an
// extent exactly as on a whole chunk, with the device's bytes, up to
// and including an extent that ends on the data region's last sector;
// one sector further the extent is sidecar, which is not encoded across
// columns, and the hedge must stand aside.
func TestHedgedReadSubChunkExtents(t *testing.T) {
	const sectorSize, stripes = 64, 3
	v, fx := openIntegrityVolume(t, stripes, sectorSize, &HedgeConfig{
		Percentile: 0.5,
		MinDelay:   2 * time.Millisecond,
		MaxDelay:   20 * time.Millisecond,
		MinSamples: 4,
		Window:     64,
	})
	defer v.Close()
	fillVolume(t, v)
	ctx := context.Background()
	hd, ok := v.devs[0].(*hedgedColumn)
	if !ok {
		t.Fatalf("column 0 device is %T, want *hedgedColumn", v.devs[0])
	}
	for i := 0; i < 8; i++ {
		if err := hd.ReadSectors(ctx, 0, [][]byte{make([]byte, sectorSize)}); err != nil {
			t.Fatal(err)
		}
	}
	victim := v.Placement()[0].Name
	const stall = 300 * time.Millisecond
	fx.gates[victim].delay.Store(int64(stall))

	r := v.code.R()
	read := func(start, n int) (time.Duration, [][]byte) {
		t.Helper()
		bufs := make([][]byte, n)
		for i := range bufs {
			bufs[i] = make([]byte, sectorSize)
		}
		begin := time.Now()
		if err := hd.ReadSectors(ctx, start, bufs); err != nil {
			t.Fatalf("hedged read of [%d,+%d): %v", start, n, err)
		}
		return time.Since(begin), bufs
	}
	for _, ext := range []struct{ start, n int }{
		{1*r + 1, 2},       // the middle of stripe 1's chunk
		{stripes*r - 2, 2}, // ends on the last data sector
		{1*r + r - 1, 2},   // straddles stripes 1 and 2
	} {
		launched := v.Stats().HedgesLaunched
		took, got := read(ext.start, ext.n)
		if took >= stall-50*time.Millisecond {
			t.Fatalf("extent [%d,+%d) took %v: the hedge did not outrun the stall", ext.start, ext.n, took)
		}
		if v.Stats().HedgesLaunched == launched {
			t.Fatalf("extent [%d,+%d): no hedge launched", ext.start, ext.n)
		}
		want := make([][]byte, ext.n)
		for i := range want {
			want[i] = make([]byte, sectorSize)
		}
		if err := fx.mems[victim].ReadSectors(ctx, ext.start, want); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("extent [%d,+%d): hedged sector %d differs from the device's", ext.start, ext.n, i)
			}
		}
	}
	// One sector into the sidecar region: served by the column itself,
	// stall and all.
	launched := v.Stats().HedgesLaunched
	took, _ := read(stripes*r-1, 2)
	if v.Stats().HedgesLaunched != launched {
		t.Fatal("a hedge was launched for an extent reaching into the sidecar region")
	}
	if took < stall {
		t.Fatalf("sidecar-reaching extent took %v, under the %v stall: not served by the column", took, stall)
	}
}
