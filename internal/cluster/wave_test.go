package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"stair/internal/store"
	"stair/internal/store/devtest"
)

// gate holds back each write until k are in flight, or until a timeout,
// which it counts.
type gate struct {
	k int

	mu                         sync.Mutex
	arrived, in, max, timeouts int
	open                       chan struct{}
}

func (g *gate) pass(do func() error) error {
	g.mu.Lock()
	g.in++
	g.max = max(g.max, g.in)
	open := g.open
	if g.arrived++; g.arrived == g.k {
		close(open)
		g.open, g.arrived = make(chan struct{}), 0
	}
	g.mu.Unlock()
	t := time.NewTimer(5 * time.Second)
	select {
	case <-open:
	case <-t.C:
		g.mu.Lock()
		g.timeouts++
		g.mu.Unlock()
	}
	t.Stop()
	err := do()
	g.mu.Lock()
	g.in--
	g.mu.Unlock()
	return err
}

// gatedDev is a dialled NetDevice behind a gate for writes. It forwards
// no optional capability, as a counting or tracing wrapper need not.
type gatedDev struct {
	store.Device
	g *gate
}

func (d gatedDev) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	return d.g.pass(func() error { return d.Device.WriteSectors(ctx, start, data) })
}

// TestWaveOverlapsColumnsThroughWrappers: a column answers for itself
// that its calls are remote, whatever its dial wrapped around the
// NetDevice, so a full stripe's writes reach all n columns at once — the
// gate lets them through only then — and the data reads back whole.
func TestWaveOverlapsColumnsThroughWrappers(t *testing.T) {
	code := testCode(t)
	const sectorSize, stripes = 64, 6
	var servers []Server
	for i := range code.N() {
		hs := devtest.NewServer(t, store.NewDeviceServer(store.NewMemDevice(stripes*code.R(), sectorSize)))
		servers = append(servers, Server{Name: fmt.Sprintf("s%d", i), URL: hs.URL})
	}
	g := &gate{k: code.N(), open: make(chan struct{})}
	ctx := context.Background()
	v, err := Open(ctx, Config{
		Fleet: &Fleet{Servers: servers}, Code: code, SectorSize: sectorSize, Stripes: stripes,
		Monitor: MonitorConfig{Interval: time.Hour},
		Dial: func(ctx context.Context, server Server) (store.Device, error) {
			d, err := store.DialNetDevice(ctx, server.URL, nil)
			if err != nil {
				return nil, err
			}
			return gatedDev{d, g}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	block := func(b int) []byte { return bytes.Repeat([]byte{byte(b*7 + 1)}, sectorSize) }
	for b := range v.Blocks() {
		if err := v.WriteBlock(ctx, b, block(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for b := range v.Blocks() {
		got, err := v.ReadBlock(ctx, b)
		if err != nil || !bytes.Equal(got, block(b)) {
			t.Fatalf("block %d: %v, or wrong content", b, err)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.max != code.N() || g.timeouts != 0 {
		t.Errorf("%d writes in flight at most, %d gate timeouts; want %d and 0", g.max, g.timeouts, code.N())
	}
}
