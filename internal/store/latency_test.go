package store_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"stair/internal/store"
)

// Spike and Serial latency profiles must actually shape timing: a
// certain spike delays a single call, and a serial device queues
// concurrent calls instead of overlapping them.
func TestLatencyProfileSpikeAndSerial(t *testing.T) {
	spiky := store.NewLatencyDeviceProfile(store.NewMemDevice(4, 64), store.LatencyProfile{
		Spike: 30 * time.Millisecond, SpikeProb: 1,
	})
	defer spiky.Close()
	begin := time.Now()
	if err := spiky.ReadSectors(context.Background(), 0, [][]byte{make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took < 30*time.Millisecond {
		t.Fatalf("certain spike: read took %v, want ≥ 30ms", took)
	}

	serial := store.NewLatencyDeviceProfile(store.NewMemDevice(4, 64), store.LatencyProfile{
		Latency: 20 * time.Millisecond, Serial: true,
	})
	defer serial.Close()
	begin = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := serial.ReadSectors(context.Background(), i, [][]byte{make([]byte, 64)}); err != nil {
				t.Errorf("serial read %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if took := time.Since(begin); took < 40*time.Millisecond {
		t.Fatalf("serial device overlapped concurrent calls: %v, want ≥ 40ms", took)
	}
}
