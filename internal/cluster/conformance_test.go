package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"stair/internal/store"
	"stair/internal/store/devtest"
)

// The cluster-backed device — a placement column over its dialled
// NetDevice — must present the exact same Device contract as a local
// backend.
func TestDeviceConformanceClusterColumn(t *testing.T) {
	devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		srv := httptest.NewServer(store.NewDeviceServer(store.NewMemDevice(sectors, sectorSize)))
		t.Cleanup(srv.Close)
		dev, err := store.DialNetDevice(context.Background(), srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		return newColumn(0, Server{Name: "s0", URL: srv.URL}, dev)
	})
}

// Over a file-backed server, the column stack (NetDevice, DeviceServer)
// carries a failed device's Sync answer through unchanged.
func TestDeviceConformanceClusterColumnFile(t *testing.T) {
	devtest.RunDurable(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		fd, err := store.OpenFileDevice(filepath.Join(t.TempDir(), "dev.img"), sectors, sectorSize)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(store.NewDeviceServer(fd))
		t.Cleanup(srv.Close)
		dev, err := store.DialNetDevice(context.Background(), srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		return newColumn(0, Server{Name: "s0", URL: srv.URL}, dev)
	})
}

// A hedging volume hands its store the bare columns — hedging lives in
// the store's client read, not in a device layer — so the column such a
// store reads through keeps the device contract, above all answering a
// failed device's reads and writes with ErrDeviceFailed, the answer the
// store learns device state from.
func TestDeviceConformanceHedgedColumn(t *testing.T) {
	devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		code := testCode(t)
		if sectors%code.R() != 0 {
			t.Fatalf("suite geometry %d sectors is not whole stripes of %d rows", sectors, code.R())
		}
		var servers []Server
		for i := 0; i < code.N(); i++ {
			servers = append(servers, Server{Name: fmt.Sprintf("s%d", i), URL: "local://"})
		}
		v, err := Open(context.Background(), Config{
			Fleet:      &Fleet{Servers: servers},
			Code:       code,
			SectorSize: sectorSize,
			Stripes:    sectors / code.R(),
			Dial: func(ctx context.Context, server Server) (store.Device, error) {
				return store.NewMemDevice(sectors, sectorSize), nil
			},
			Hedge:   &HedgeConfig{},
			Monitor: MonitorConfig{Interval: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		return v.cols[0]
	})
}

// A dead column answers exactly like a wholly failed device: fast
// ErrDeviceFailed on I/O and Sync, Failed() true, no transport touched.
func TestColumnDeadFastFail(t *testing.T) {
	srv := httptest.NewServer(store.NewDeviceServer(store.NewMemDevice(8, 64)))
	t.Cleanup(srv.Close)
	dev, err := store.DialNetDevice(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	col := newColumn(0, Server{Name: "s0", URL: srv.URL}, dev)
	col.markDead()
	begin := time.Now()
	err = col.ReadSectors(context.Background(), 0, [][]byte{make([]byte, 64)})
	if err != store.ErrDeviceFailed {
		t.Fatalf("dead column read: %v, want ErrDeviceFailed", err)
	}
	if took := time.Since(begin); took > 100*time.Millisecond {
		t.Fatalf("dead column took %v to answer — did it touch the transport?", took)
	}
	if err := col.WriteSectors(context.Background(), 0, [][]byte{make([]byte, 64)}); err != store.ErrDeviceFailed {
		t.Fatalf("dead column write: %v, want ErrDeviceFailed", err)
	}
	// The store's Sync barrier skips a device on this answer.
	if err := col.Sync(context.Background()); err != store.ErrDeviceFailed {
		t.Fatalf("dead column sync: %v, want ErrDeviceFailed", err)
	}
	if !col.Failed() {
		t.Fatal("dead column reports healthy")
	}
	// A closed column answers the same, not with a nil device.
	live := newColumn(1, Server{Name: "s0", URL: srv.URL}, dev)
	live.Close()
	if err := live.ReadSectors(context.Background(), 0, [][]byte{make([]byte, 64)}); err != store.ErrDeviceFailed {
		t.Fatalf("closed column read: %v, want ErrDeviceFailed", err)
	}
}

// Transport errors on live I/O reach the failure detector; typed
// device answers do not.
func TestColumnSuspicion(t *testing.T) {
	srv := devtest.NewServer(t, store.NewDeviceServer(store.NewMemDevice(8, 64)))
	dev, err := store.DialNetDevice(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	dev.SetRetryPolicy(store.RetryPolicy{MaxAttempts: 1})
	col := newColumn(0, Server{Name: "s0", URL: srv.URL}, dev)
	suspects := make(chan int, 4)
	col.onSuspect = func(c int, err error) { suspects <- c }

	// A typed partial loss is a device state, not transport trouble.
	if err := col.InjectSectorError(2); err != nil {
		t.Fatal(err)
	}
	if err := col.ReadSectors(context.Background(), 2, [][]byte{make([]byte, 64)}); err == nil {
		t.Fatal("read of bad sector succeeded")
	}
	select {
	case <-suspects:
		t.Fatal("SectorErrors raised a transport suspicion")
	default:
	}

	// Kill the server: the transport error must raise a suspicion.
	srv.Kill()
	if err := col.ReadSectors(context.Background(), 0, [][]byte{make([]byte, 64)}); err == nil {
		t.Fatal("read through dead transport succeeded")
	}
	select {
	case c := <-suspects:
		if c != 0 {
			t.Fatalf("suspicion names column %d, want 0", c)
		}
	case <-time.After(time.Second):
		t.Fatal("transport error raised no suspicion")
	}
}
