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

func TestDeviceConformanceFile(t *testing.T) {
	devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		d, err := store.OpenFileDevice(filepath.Join(t.TempDir(), "dev.img"), sectors, sectorSize)
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
}

func TestDeviceConformanceLatency(t *testing.T) {
	devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		return store.NewLatencyDeviceProfile(store.NewMemDevice(sectors, sectorSize),
			store.LatencyProfile{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond})
	})
}

func TestDeviceConformanceNet(t *testing.T) {
	devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
		srv := httptest.NewServer(store.NewDeviceServer(store.NewMemDevice(sectors, sectorSize)))
		t.Cleanup(srv.Close)
		d, err := store.DialNetDevice(context.Background(), srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
}
