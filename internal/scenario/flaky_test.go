package scenario

import (
	"testing"
	"time"

	"stair/internal/store"
	"stair/internal/store/devtest"
)

// The stallable device the grey-failure scenarios and the soak gate
// stand on must keep the whole device contract, stalled or not: a stall
// only delays data calls, it never changes what they return.
func TestDeviceConformanceFlaky(t *testing.T) {
	for _, tc := range []struct {
		name    string
		perCall time.Duration
	}{{"Unstalled", 0}, {"Stalled", 200 * time.Microsecond}} {
		t.Run(tc.name, func(t *testing.T) {
			devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
				d := NewFlakyDevice(store.NewMemDevice(sectors, sectorSize))
				if tc.perCall > 0 {
					d.StallFor(time.Hour, tc.perCall)
				}
				return d
			})
		})
	}
}
