package store

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// erringDevice fails its first failN data-path calls with a plain error,
// which its DeviceServer answers as a server error, then serves them.
// Geometry and the control plane always pass, so dialing is unaffected.
type erringDevice struct {
	FaultDevice
	failN int64
	seen  atomic.Int64
}

func (f *erringDevice) flake() error {
	if f.seen.Add(1) <= f.failN {
		return errors.New("injected flake")
	}
	return nil
}

func (f *erringDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if err := f.flake(); err != nil {
		return err
	}
	return f.FaultDevice.ReadSectors(ctx, start, bufs)
}

func (f *erringDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if err := f.flake(); err != nil {
		return err
	}
	return f.FaultDevice.WriteSectors(ctx, start, data)
}

// dialServer dials a DeviceServer for dev with a fast retry policy.
func dialServer(t *testing.T, dev Device) *NetDevice {
	t.Helper()
	srv := httptest.NewServer(NewDeviceServer(dev))
	t.Cleanup(srv.Close)
	d, err := DialNetDevice(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	d.retry = retryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	return d
}

func dialFlaky(t *testing.T, failN int64) *NetDevice {
	return dialServer(t, &erringDevice{FaultDevice: NewMemDevice(8, 64), failN: failN})
}

// A server that errs twice then recovers must be survived by the
// default three-attempt policy, transparently to the caller.
func TestNetDeviceRetriesTransient5xx(t *testing.T) {
	d := dialFlaky(t, 2)
	buf := make([]byte, 64)
	if err := d.ReadSectors(context.Background(), 0, [][]byte{buf}); err != nil {
		t.Fatalf("read through recovering server: %v", err)
	}
	if got := d.retries.Load(); got != 2 {
		t.Fatalf("client issued %d retries, want 2", got)
	}
}

// Writes are idempotent sector stores, so they retry too.
func TestNetDeviceRetriesWrite(t *testing.T) {
	d := dialFlaky(t, 1)
	if err := d.WriteSectors(context.Background(), 0, [][]byte{make([]byte, 64)}); err != nil {
		t.Fatalf("write through recovering server: %v", err)
	}
	if got := d.retries.Load(); got != 1 {
		t.Fatalf("client issued %d retries, want 1", got)
	}
}

// shrunkDevice reports a capacity of zero once shrunk, so its server
// refuses as a bad request every extent a client dialled before that
// still believes valid; frames counts the requests it refused.
type shrunkDevice struct {
	FaultDevice
	shrunk atomic.Bool
	frames atomic.Int64
}

func (s *shrunkDevice) Sectors() int {
	if s.shrunk.Load() {
		s.frames.Add(1)
		return 0
	}
	return s.FaultDevice.Sectors()
}

// A bad request means the request itself is wrong; retrying it would
// just repeat the mistake.
func TestNetDeviceNeverRetries4xx(t *testing.T) {
	dev := &shrunkDevice{FaultDevice: NewMemDevice(8, 64)}
	d := dialServer(t, dev)
	dev.shrunk.Store(true)
	err := d.ReadSectors(context.Background(), 0, [][]byte{make([]byte, 64)})
	if err == nil {
		t.Fatal("read against a refusing server succeeded")
	}
	if got := d.retries.Load(); got != 0 {
		t.Fatalf("client retried a bad request %d times", got)
	}
	if got := dev.frames.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

// ErrDeviceFailed is a state, not a blip: the device-failed answer must
// surface immediately so the store can switch to degraded reads
// instead of burning the backoff budget.
func TestNetDeviceNeverRetriesDeviceFailed(t *testing.T) {
	srv := httptest.NewServer(NewDeviceServer(NewMemDevice(8, 64)))
	t.Cleanup(srv.Close)
	d, err := DialNetDevice(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Fail(); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	err = d.ReadSectors(context.Background(), 0, [][]byte{make([]byte, 64)})
	if !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("read of failed device: %v, want ErrDeviceFailed", err)
	}
	if d.retries.Load() != 0 {
		t.Fatalf("client retried a failed device %d times", d.retries.Load())
	}
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("failed-device answer took %v — did it back off?", took)
	}
}

// Cancelling the caller's context mid-backoff aborts the retry loop
// immediately instead of sleeping out the schedule.
func TestNetDeviceCancelDuringBackoff(t *testing.T) {
	d := dialFlaky(t, 1<<30)
	d.retry = retryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- d.ReadSectors(ctx, 0, [][]byte{make([]byte, 64)})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled read: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read slept out its 10s backoff despite cancellation")
	}
}

// Ping reports liveness, not health: any HTTP answer (even an error
// status) proves the process is up; only transport failure is down.
func TestNetDevicePing(t *testing.T) {
	d := dialFlaky(t, 0)
	if err := d.Ping(context.Background()); err != nil {
		t.Fatalf("ping of live server: %v", err)
	}

	srv := httptest.NewServer(NewDeviceServer(NewMemDevice(8, 64)))
	dead, err := DialNetDevice(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := dead.Ping(context.Background()); err == nil {
		t.Fatal("ping of closed server succeeded")
	}
}

// /v1/metrics must reflect the traffic the server actually served.
func TestDeviceServerMetrics(t *testing.T) {
	mem := NewMemDevice(8, 64)
	ds := NewDeviceServer(mem)
	srv := httptest.NewServer(ds)
	t.Cleanup(srv.Close)
	d, err := DialNetDevice(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	ctx := context.Background()
	if err := d.WriteSectors(ctx, 0, [][]byte{make([]byte, 64), make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadSectors(ctx, 0, [][]byte{make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	if err := d.InjectSectorError(5); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadSectors(ctx, 5, [][]byte{make([]byte, 64)}); err == nil {
		t.Fatal("read of bad sector succeeded")
	}
	if err := SyncDevice(ctx, d); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m DeviceServerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Reads != 2 || m.Writes != 1 || m.Syncs != 1 {
		t.Fatalf("metrics %+v, want 2 reads / 1 write / 1 sync", m)
	}
	if m.ReadSectors != 2 || m.WrittenSectors != 2 {
		t.Fatalf("metrics %+v, want 2 sectors each way", m)
	}
	if m.LostSectors != 1 || m.BadSectors != 1 {
		t.Fatalf("metrics %+v, want 1 lost + 1 bad sector", m)
	}
	if m.Failed {
		t.Fatalf("metrics report failure on a healthy device: %+v", m)
	}
	if snap := ds.Metrics(); snap != m {
		t.Fatalf("in-process snapshot %+v differs from endpoint %+v", snap, m)
	}
}
