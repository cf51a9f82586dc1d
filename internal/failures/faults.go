package failures

import (
	"fmt"
	"math/rand"
)

// FaultTarget is the fault-injection surface of a storage system
// (internal/store implements it): n devices of stripes×r sectors that
// can wholly fail or suffer latent sector errors. The drivers below
// replay this package's failure processes (§7.1.2, §7.2.2) against any
// target, so integration tests and examples see the same patterns.
type FaultTarget interface {
	// Geometry returns (devices, stripes, sectors per chunk, sector
	// size in bytes).
	Geometry() (n, stripes, r, sectorSize int)
	// FailDevice marks one device wholly failed.
	FailDevice(dev int) error
	// InjectBurst corrupts a run of consecutive sectors on one device,
	// clipped at the device end.
	InjectBurst(dev, start, length int) error
	// FailedDevices lists wholly failed devices.
	FailedDevices() []int
}

// Burst locates one drawn latent-sector-error burst: Len consecutive
// sectors starting Start sectors into device Dev's data region.
type Burst struct {
	Dev   int
	Start int
	Len   int
}

// DrawBursts draws the §7.2.2 burst process against the target's live
// devices — per-sector burst-start probability pStart, lengths from the
// (b1, α) distribution — without injecting anything. Splitting the draw
// from the injection lets a scheduler record, gate (e.g. against the
// code's coverage) or replay the planned bursts; InjectBursts applies
// them. Devices are visited in index order, so the same rng state
// always yields the same plan.
func DrawBursts(t FaultTarget, rng *rand.Rand, pStart float64, dist *BurstDist) []Burst {
	n, stripes, r, _ := t.Geometry()
	down := map[int]bool{}
	for _, dev := range t.FailedDevices() {
		down[dev] = true
	}
	sectors := stripes * r
	var out []Burst
	for dev := 0; dev < n; dev++ {
		if down[dev] {
			continue
		}
		// ChunkFailures already clips bursts at the chunk end.
		for _, b := range ChunkFailures(rng, sectors, pStart, dist) {
			out = append(out, Burst{Dev: dev, Start: b.Start, Len: b.Len})
		}
	}
	return out
}

// InjectBursts applies drawn bursts to the target, returning the
// number of sectors injected (bursts may overlap; the count sums raw
// burst lengths, matching what InjectBurst was asked to do).
func InjectBursts(t FaultTarget, bursts []Burst) (int, error) {
	lost := 0
	for _, b := range bursts {
		if err := t.InjectBurst(b.Dev, b.Start, b.Len); err != nil {
			return lost, err
		}
		lost += b.Len
	}
	return lost, nil
}

// InjectRandomBurstsOn draws latent-sector-error bursts on every live
// device of the target per the (b1, α) distribution, with per-sector
// burst-start probability pStart (§7.2.2). It returns the number of
// sectors lost. Draw-then-inject, so its rng consumption matches
// DrawBursts exactly.
func InjectRandomBurstsOn(t FaultTarget, rng *rand.Rand, pStart float64, dist *BurstDist) (int, error) {
	return InjectBursts(t, DrawBursts(t, rng, pStart, dist))
}

// FailRandomDevicesOn draws whole-device failures on the target's live
// devices as a Bernoulli event with probability p per device (§7.1.2's
// discretised lifetime model), returning the devices it failed.
func FailRandomDevicesOn(t FaultTarget, rng *rand.Rand, p float64) ([]int, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("failures: p=%v must be in [0,1]", p)
	}
	n, _, _, _ := t.Geometry()
	down := map[int]bool{}
	for _, dev := range t.FailedDevices() {
		down[dev] = true
	}
	var out []int
	for _, dev := range (DeviceProcess{P: p}).Failed(rng, n) {
		if down[dev] {
			continue
		}
		if err := t.FailDevice(dev); err != nil {
			return out, err
		}
		out = append(out, dev)
	}
	return out, nil
}
