package store

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// LatencyProfile describes the timing behaviour of a simulated remote
// or spinning backend, charged per vectored call (not per sector).
type LatencyProfile struct {
	// Latency is the fixed cost of every call.
	Latency time.Duration
	// Jitter adds a uniform random extra in [0, Jitter] per call.
	Jitter time.Duration
	// Spike adds a large extra delay to a SpikeProb fraction of calls —
	// the heavy-tailed "hiccup" regime (GC pause, network stall,
	// background compaction) that the store's hedged client reads
	// (Config.Hedge) defend against.
	// Uniform jitter alone cannot model it: with a uniform tail the p99
	// is barely above the median and hedging has nothing to win.
	Spike     time.Duration
	SpikeProb float64
	// Serial queues calls behind each other, like a single-spindle disk
	// or a one-connection transport: two concurrent calls cost two
	// latencies of wall clock, not one, so a wide flush pipeline over
	// such devices is bounded by its calls per device, not by how many
	// it overlaps.
	Serial bool
	// Seed, when non-zero, seeds the device's private jitter/spike RNG,
	// making the simulated timing sequence reproducible run to run —
	// what a deterministic scenario harness needs. Zero keeps the old
	// behaviour (a per-device time-derived seed). Every device draws
	// from its own rand.Rand under its own lock either way; nothing
	// touches the shared process RNG.
	Seed int64
}

// LatencyDevice wraps a Device and charges a per-call latency profile,
// simulating remote media where every operation is a round trip. Because
// the cost is per call, not per sector, it makes the value of vectored
// I/O measurable: a full-stripe flush pays one latency hit per device
// instead of R.
//
// The sleep honors context cancellation, so a slow simulated backend
// cannot wedge a store operation past its deadline. Geometry, Close and
// the fault-injection hooks pass through to the wrapped device.
type LatencyDevice struct {
	Forwarder
	profile LatencyProfile

	mu  sync.Mutex // guards rng, and spans the sleep when profile.Serial
	rng *rand.Rand
}

// NewLatencyDeviceProfile wraps inner, delaying every data operation
// and Sync by a draw from profile.
func NewLatencyDeviceProfile(inner Device, profile LatencyProfile) *LatencyDevice {
	seed := profile.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &LatencyDevice{
		Forwarder: Forwarder{Inner: inner},
		profile:   profile,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// drawLocked draws one operation's wait from the device's private RNG;
// the caller holds d.mu.
func (d *LatencyDevice) drawLocked() time.Duration {
	p := d.profile
	wait := p.Latency
	if p.Jitter > 0 {
		wait += time.Duration(d.rng.Int63n(int64(p.Jitter) + 1))
	}
	if p.Spike > 0 && p.SpikeProb > 0 && d.rng.Float64() < p.SpikeProb {
		wait += p.Spike
	}
	return wait
}

// delay sleeps one operation's latency, aborting early when ctx is
// cancelled. A Serial profile holds the device mutex across the sleep,
// so concurrent calls queue behind each other instead of overlapping.
func (d *LatencyDevice) delay(ctx context.Context) error {
	p := d.profile
	d.mu.Lock()
	wait := d.drawLocked()
	if !p.Serial {
		d.mu.Unlock()
	} else {
		defer d.mu.Unlock()
	}
	if wait <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ReadSectors charges one latency hit, then forwards the vectored read.
func (d *LatencyDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if err := d.delay(ctx); err != nil {
		return err
	}
	return d.Inner.ReadSectors(ctx, start, bufs)
}

// WriteSectors charges one latency hit, then forwards the vectored
// write.
func (d *LatencyDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if err := d.delay(ctx); err != nil {
		return err
	}
	return d.Inner.WriteSectors(ctx, start, data)
}

// Sync charges one latency hit, then forwards the durability barrier to
// the wrapped device (a no-op when it has no Syncer capability).
func (d *LatencyDevice) Sync(ctx context.Context) error {
	if err := d.delay(ctx); err != nil {
		return err
	}
	return d.Forwarder.Sync(ctx)
}
