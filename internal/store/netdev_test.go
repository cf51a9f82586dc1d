package store_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stair/internal/core"
	"stair/internal/store"
	"stair/internal/store/devtest"
)

// newNetStore builds a store whose every device is a NetDevice talking
// to an in-process DeviceServer over real HTTP.
func newNetStore(t *testing.T, code *core.Code, stripes, sector int) *store.Store {
	t.Helper()
	devs := make([]store.Device, code.N())
	for i := range devs {
		srv := httptest.NewServer(store.NewDeviceServer(store.NewMemDevice(stripes*code.R(), sector)))
		t.Cleanup(srv.Close)
		d, err := store.DialNetDevice(context.Background(), srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	s, err := store.Open(store.Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestNetDeviceStoreEndToEnd: the full store lifecycle — fill, degraded
// reads under sector and device faults, scrub-driven repair, replace and
// rebuild — over HTTP backends. Each stripe-granular operation is one
// round trip per device, which is what makes this viable at all.
func TestNetDeviceStoreEndToEnd(t *testing.T) {
	code, err := core.New(core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	const (
		stripes = 4
		sector  = 128
	)
	s := newNetStore(t, code, stripes, sector)
	blocks := make([][]byte, s.Blocks())
	for b := range blocks {
		blocks[b] = make([]byte, sector)
		for i := range blocks[b] {
			blocks[b][i] = byte((b*17 + i*7 + 5) % 251)
		}
		if err := s.WriteBlock(bg, b, blocks[b]); err != nil {
			t.Fatalf("write block %d: %v", b, err)
		}
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}

	// Latent sector errors travel the fault control plane; the vectored
	// read reports them per sector and the degraded path reconstructs.
	if err := s.InjectBurst(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalBadSectors(); got != 2 {
		t.Fatalf("TotalBadSectors=%d over the wire, want 2", got)
	}
	for b, want := range blocks {
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatalf("degraded read of block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d corrupt through remote degraded read", b)
		}
	}
	if st := s.Stats(); st.DegradedReads == 0 {
		t.Fatal("no degraded reads recorded against remote bad sectors")
	}

	// Scrub + repair converge over the wire.
	if _, err := s.Scrub(bg); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	if got := s.TotalBadSectors(); got != 0 {
		t.Fatalf("TotalBadSectors=%d after remote scrub+repair, want 0", got)
	}

	// Whole-device failure surfaces as a whole-call error; replace and
	// rebuild restore health remotely.
	if err := s.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	for b, want := range blocks {
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatalf("read with failed remote device: block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d corrupt with failed remote device", b)
		}
	}
	if err := s.ReplaceDevice(2); err != nil {
		t.Fatal(err)
	}
	if err := s.RebuildDevice(bg, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalBadSectors(); got != 0 {
		t.Fatalf("TotalBadSectors=%d after remote rebuild, want 0", got)
	}
}

// hangDevice parks every data-path call until its context ends — the
// pathological backend under a device server.
type hangDevice struct{ store.FaultDevice }

func (hangDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	<-ctx.Done()
	return ctx.Err()
}

func (hangDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestNetDeviceCancellation: a hung server cannot wedge a caller — the
// request context aborts the round trip promptly.
func TestNetDeviceCancellation(t *testing.T) {
	srv := httptest.NewServer(store.NewDeviceServer(hangDevice{store.NewMemDevice(8, 64)}))
	t.Cleanup(srv.Close)
	d, err := store.DialNetDevice(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = d.ReadSectors(ctx, 0, [][]byte{make([]byte, 64)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read against hung server: %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled remote read took %v", elapsed)
	}
	if err := d.WriteSectors(ctx, 0, [][]byte{make([]byte, 64)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("write against hung server: %v, want context.DeadlineExceeded", err)
	}
}

// sectorBytes is sector i's payload in the frame-connection tests.
func sectorBytes(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 64) }

// heldDevice parks its first read until the test releases it, whatever
// the call's context says, so its server answers a read the client has
// already given up on.
type heldDevice struct {
	store.FaultDevice
	calls            atomic.Int64
	entered, release chan struct{}
}

func (h *heldDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if h.calls.Add(1) == 1 {
		h.entered <- struct{}{}
		<-h.release
	}
	return h.FaultDevice.ReadSectors(context.WithoutCancel(ctx), start, bufs)
}

// A read cancelled while its response is still to come must not leave
// that response on a connection a later call reuses: every later read
// of the same NetDevice gets its own sector's bytes.
func TestNetDeviceCancelledCallDoesNotPoisonConnection(t *testing.T) {
	mem := store.NewMemDevice(8, 64)
	for i := 0; i < 8; i++ {
		if err := store.WriteSector(bg, mem, i, sectorBytes(i)); err != nil {
			t.Fatal(err)
		}
	}
	held := &heldDevice{FaultDevice: mem, entered: make(chan struct{}, 1), release: make(chan struct{}, 1)}
	srv := httptest.NewServer(store.NewDeviceServer(held))
	t.Cleanup(srv.Close)
	d, err := store.DialNetDevice(bg, srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() { done <- d.ReadSectors(ctx, 0, [][]byte{make([]byte, 64)}) }()
	<-held.entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: %v, want context.Canceled", err)
	}
	// The server now sends sector 0's bytes after the abandoned read.
	held.release <- struct{}{}
	for i := 1; i < 8; i++ {
		buf := make([]byte, 64)
		if err := d.ReadSectors(bg, i, [][]byte{buf}); err != nil {
			t.Fatalf("read of sector %d after a cancelled call: %v", i, err)
		}
		if !bytes.Equal(buf, sectorBytes(i)) {
			t.Fatalf("read of sector %d returned the bytes of sector %d", i, buf[0]-1)
		}
	}
}

// ctxDevice reports the context error each parked call ends with.
type ctxDevice struct {
	store.FaultDevice
	entered chan struct{}
	ended   chan error
}

func (c ctxDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	c.entered <- struct{}{}
	<-ctx.Done()
	c.ended <- ctx.Err()
	return ctx.Err()
}

// A client that drops its connection mid-call cancels the server's
// device call, and once the NetDevice is closed every goroutine either
// side started for it is gone.
func TestNetDeviceDroppedConnectionCancelsServerCall(t *testing.T) {
	dev := ctxDevice{FaultDevice: store.NewMemDevice(8, 64), entered: make(chan struct{}, 1), ended: make(chan error, 1)}
	srv := httptest.NewServer(store.NewDeviceServer(dev))
	t.Cleanup(srv.Close)
	baseline := runtime.NumGoroutine()
	d, err := store.DialNetDevice(bg, srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() { done <- d.ReadSectors(ctx, 0, [][]byte{make([]byte, 64)}) }()
	<-dev.entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: %v, want context.Canceled", err)
	}
	select {
	case err := <-dev.ended:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("server's device call ended with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server's device call never saw its client go")
	}
	d.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before dial", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close ends a NetDevice's frame calls: one parked on the server, one
// whose connection upgrade the server never answers, and one made after
// Close all fail with ErrDeviceFailed at once, and none dials again.
func TestNetDeviceCloseEndsCalls(t *testing.T) {
	dev := ctxDevice{FaultDevice: store.NewMemDevice(8, 64), entered: make(chan struct{}, 1), ended: make(chan error, 1)}
	ds := store.NewDeviceServer(dev)
	var hang atomic.Bool
	var upgrades atomic.Int64
	unhang := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/frames" {
			upgrades.Add(1)
			if hang.Load() {
				select {
				case <-r.Context().Done():
				case <-unhang:
				}
				return
			}
		}
		ds.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(unhang) }) // runs first
	d, err := store.DialNetDevice(bg, srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	read := func() { done <- d.ReadSectors(bg, 0, [][]byte{make([]byte, 64)}) }
	go read() // on the dial's connection, parked by the server's device
	<-dev.entered
	hang.Store(true)
	go read() // on a second connection, whose upgrade hangs
	for upgrades.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	hang.Store(false) // a dial after Close would now succeed
	begin := time.Now()
	d.Close()
	for range 2 {
		select {
		case err := <-done:
			if !errors.Is(err, store.ErrDeviceFailed) {
				t.Fatalf("call ended by Close: %v, want ErrDeviceFailed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a call outlived Close by 5 s")
		}
	}
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("Close took %v to end the calls", took)
	}
	if err := d.ReadSectors(bg, 0, [][]byte{make([]byte, 64)}); !errors.Is(err, store.ErrDeviceFailed) {
		t.Fatalf("read after Close: %v, want ErrDeviceFailed", err)
	}
	if n := upgrades.Load(); n != 2 {
		t.Fatalf("%d connection upgrades, want 2: a closed device dialled again", n)
	}
}

// A client with Timeout set cannot hand over an upgraded connection;
// dialling with one fails at once and names the cause.
func TestDialNetDeviceRefusesClientTimeout(t *testing.T) {
	srv := httptest.NewServer(store.NewDeviceServer(store.NewMemDevice(8, 64)))
	t.Cleanup(srv.Close)
	d, err := store.DialNetDevice(bg, srv.URL, &http.Client{Timeout: time.Minute})
	if err == nil {
		d.Close()
		t.Fatal("dial with a Timeout client succeeded")
	}
	if !strings.Contains(err.Error(), "Timeout") {
		t.Fatalf("dial error %q does not name the client's Timeout", err)
	}
}

// TestNetDeviceTransportDown: a dead server reads as a whole-device
// loss, and the store serves the data degraded from the survivors.
func TestNetDeviceTransportDown(t *testing.T) {
	code, err := core.New(core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	const (
		stripes = 2
		sector  = 128
	)
	devs := make([]store.Device, code.N())
	var dead *devtest.Server
	for i := range devs {
		srv := devtest.NewServer(t, store.NewDeviceServer(store.NewMemDevice(stripes*code.R(), sector)))
		d, err := store.DialNetDevice(context.Background(), srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
		if i == 3 {
			dead = srv
		}
	}
	s, err := store.Open(store.Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocks := make([][]byte, s.Blocks())
	for b := range blocks {
		blocks[b] = bytes.Repeat([]byte{byte(b + 1)}, sector)
		if err := s.WriteBlock(bg, b, blocks[b]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	dead.Kill() // device 3's transport goes away entirely
	for b, want := range blocks {
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatalf("read with dead transport: block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d corrupt with dead transport", b)
		}
	}
	if st := s.Stats(); st.DegradedReads == 0 {
		t.Fatal("dead transport did not surface as degraded reads")
	}
}
