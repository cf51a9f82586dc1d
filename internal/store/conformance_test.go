package store_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"stair/internal/store"
	"stair/internal/store/devtest"
)

// Every built-in backend presents the same vectored, context-aware
// contract; the devtest suite is that contract's executable form.

func TestDeviceConformanceMem(t *testing.T) {
	devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		return store.NewMemDevice(sectors, sectorSize)
	})
}

func openFileDevice(t *testing.T, sectors, sectorSize int) *store.FileDevice {
	d, err := store.OpenFileDevice(filepath.Join(t.TempDir(), "dev.img"), sectors, sectorSize)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceConformanceFile(t *testing.T) {
	devtest.RunDurable(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		return openFileDevice(t, sectors, sectorSize)
	})
}

func TestDeviceConformanceLatency(t *testing.T) {
	devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		return store.NewLatencyDeviceProfile(store.NewMemDevice(sectors, sectorSize),
			store.LatencyProfile{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond})
	})
}

// dialServed exports dev through a DeviceServer and dials it.
func dialServed(t *testing.T, dev store.Device) *store.NetDevice {
	srv := httptest.NewServer(store.NewDeviceServer(dev))
	t.Cleanup(srv.Close)
	d, err := store.DialNetDevice(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceConformanceNet(t *testing.T) {
	devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		return dialServed(t, store.NewMemDevice(sectors, sectorSize))
	})
}

// Over the wire a failed FileDevice's Sync still answers ErrDeviceFailed.
func TestDeviceConformanceNetFile(t *testing.T) {
	devtest.RunDurable(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		return dialServed(t, openFileDevice(t, sectors, sectorSize))
	})
}
