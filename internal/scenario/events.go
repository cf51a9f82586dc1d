package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"stair/internal/core"
	"stair/internal/failures"
	"stair/internal/store"
)

// Event is one scheduled correlated-failure action: fired At into the
// scenario, executing Do against the env while recording what happened
// in the ledger.
type Event struct {
	At   time.Duration
	Name string
	Do   func(ctx context.Context, env *Env, led *Ledger) error
}

// Ledger is a scenario run's deterministic injection record. It owns
// the event RNG (seeded from the spec, independent of the trace RNG)
// and the *planned-lost* model: which devices and sectors the schedule
// has deliberately damaged and not yet explicitly healed. Storm gating
// consults only this planned state — never the live store, whose
// repair progress depends on scheduling — so the accepted/skipped
// burst sequence is a pure function of (seed, event schedule). The
// planned model is conservative: a sector stays "lost" until a
// rebuild event clears its device, even if a background repair already
// healed it, so gating can only under-inject, never exceed coverage.
type Ledger struct {
	mu sync.Mutex

	rng *rand.Rand
	log []string

	n, stripes, r int
	code          *core.Code

	downDevs map[int]bool
	injected map[int]map[int]bool // dev → data-sector set
	rebuilds map[int]chan error   // dev → async rebuild completion
}

func newLedger(env *Env, seed int64) *Ledger {
	n, stripes, r, _ := env.Store.Geometry()
	return &Ledger{
		// The event RNG is decorrelated from the trace RNG (which uses
		// the seed directly) by a fixed xor, so the two streams never
		// alias even though the spec carries one seed.
		rng:      rand.New(rand.NewSource(seed ^ 0x5ce4a210_0e7e4751)),
		n:        n,
		stripes:  stripes,
		r:        r,
		code:     env.Code,
		downDevs: map[int]bool{},
		injected: map[int]map[int]bool{},
		rebuilds: map[int]chan error{},
	}
}

func (l *Ledger) logf(format string, args ...any) {
	l.log = append(l.log, fmt.Sprintf(format, args...))
}

// lines returns a copy of the event log.
func (l *Ledger) lines() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.log...)
}

// injectedCount counts distinct injected data sectors.
func (l *Ledger) injectedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0
	for _, secs := range l.injected {
		total += len(secs)
	}
	return total
}

// plannedCellsLocked returns the planned-lost cells of one stripe:
// whole columns for planned-down devices plus individually injected
// sectors.
func (l *Ledger) plannedCellsLocked(stripe int) []core.Cell {
	var cells []core.Cell
	for dev := 0; dev < l.n; dev++ {
		for row := 0; row < l.r; row++ {
			if l.downDevs[dev] || l.injected[dev][stripe*l.r+row] {
				cells = append(cells, core.Cell{Col: dev, Row: row})
			}
		}
	}
	return cells
}

// recordInjectedLocked adds a burst to the planned model.
func (l *Ledger) recordInjectedLocked(dev, start, length int) {
	if l.injected[dev] == nil {
		l.injected[dev] = map[int]bool{}
	}
	for i := 0; i < length; i++ {
		l.injected[dev][start+i] = true
	}
}

// clearDeviceLocked forgets a device's planned damage (after an
// explicit replace/rebuild heals it).
func (l *Ledger) clearDeviceLocked(dev int) {
	delete(l.downDevs, dev)
	delete(l.injected, dev)
}

// FailDevice wholly fails one device at the given offset.
func FailDevice(at time.Duration, dev int) Event {
	return Event{At: at, Name: fmt.Sprintf("fail dev=%d", dev), Do: func(ctx context.Context, env *Env, led *Ledger) error {
		led.mu.Lock()
		led.downDevs[dev] = true
		led.logf("t=%v fail dev=%d", at, dev)
		led.mu.Unlock()
		return env.Store.FailDevice(dev)
	}}
}

// ReplaceDevice swaps a failed device for a fresh, all-unwritten one.
// The planned model keeps the device down — a replacement holds no
// data — until a rebuild event declares it healed; its individually
// injected sectors are gone with the old medium.
func ReplaceDevice(at time.Duration, dev int) Event {
	return Event{At: at, Name: fmt.Sprintf("replace dev=%d", dev), Do: func(ctx context.Context, env *Env, led *Ledger) error {
		led.mu.Lock()
		led.downDevs[dev] = true
		delete(led.injected, dev)
		led.logf("t=%v replace dev=%d", at, dev)
		led.mu.Unlock()
		return env.Store.ReplaceDevice(dev)
	}}
}

// RebuildDevice synchronously rebuilds a replaced device, then clears
// it from the planned-lost model.
func RebuildDevice(at time.Duration, dev int) Event {
	return Event{At: at, Name: fmt.Sprintf("rebuild dev=%d", dev), Do: func(ctx context.Context, env *Env, led *Ledger) error {
		if err := env.Store.RebuildDevice(ctx, dev); err != nil {
			return err
		}
		led.mu.Lock()
		led.clearDeviceLocked(dev)
		led.logf("t=%v rebuild dev=%d", at, dev)
		led.mu.Unlock()
		return nil
	}}
}

// RebuildDeviceAsync starts a background rebuild of a replaced device
// — the window an LSE storm then strikes into. Pair with AwaitRebuild;
// the planned model keeps the device down until then.
func RebuildDeviceAsync(at time.Duration, dev int) Event {
	return Event{At: at, Name: fmt.Sprintf("rebuild-async dev=%d", dev), Do: func(ctx context.Context, env *Env, led *Ledger) error {
		done := make(chan error, 1)
		led.mu.Lock()
		if led.rebuilds[dev] != nil {
			led.mu.Unlock()
			return fmt.Errorf("rebuild already running for dev %d", dev)
		}
		led.rebuilds[dev] = done
		led.logf("t=%v rebuild-async dev=%d", at, dev)
		led.mu.Unlock()
		go func() { done <- env.Store.RebuildDevice(ctx, dev) }()
		return nil
	}}
}

// AwaitRebuild blocks until the device's async rebuild completes, then
// clears it from the planned-lost model.
func AwaitRebuild(at time.Duration, dev int) Event {
	return Event{At: at, Name: fmt.Sprintf("await-rebuild dev=%d", dev), Do: func(ctx context.Context, env *Env, led *Ledger) error {
		led.mu.Lock()
		done := led.rebuilds[dev]
		delete(led.rebuilds, dev)
		led.mu.Unlock()
		if done == nil {
			return fmt.Errorf("no async rebuild running for dev %d", dev)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case err := <-done:
			if err != nil {
				return err
			}
		}
		led.mu.Lock()
		led.clearDeviceLocked(dev)
		led.logf("t=%v await-rebuild dev=%d", at, dev)
		led.mu.Unlock()
		return nil
	}}
}

// StormConfig parameterises one latent-sector-error storm: the
// §7.2.2 burst process ((b1, α) length distribution, per-sector start
// probability) drawn across the target devices' data regions.
type StormConfig struct {
	// PStart is the per-sector burst-start probability.
	PStart float64
	// B1/Alpha/MaxLen shape the burst-length distribution; zero values
	// select the field-typical (0.9, 1.5) with bursts capped at r.
	B1     float64
	Alpha  float64
	MaxLen int
	// Devs restricts the storm to these devices; empty means every
	// device not planned-down.
	Devs []int
}

// LSEStorm draws a §7.2.2 burst storm and injects every burst the
// code's coverage still absorbs on top of the planned-lost state.
// Bursts that would push any touched stripe beyond coverage are
// skipped — and logged, so the fingerprint still witnesses the draw.
// The real-world reading: a storm harsher than the deployment's
// (m, e) budget *would* lose data; the harness proves the system
// survives everything inside the budget with zero loss, which is the
// paper's reliability claim.
func LSEStorm(at time.Duration, cfg StormConfig) Event {
	return Event{At: at, Name: fmt.Sprintf("lse-storm p=%v", cfg.PStart), Do: func(ctx context.Context, env *Env, led *Ledger) error {
		b1, alpha, maxLen := cfg.B1, cfg.Alpha, cfg.MaxLen
		if b1 == 0 {
			b1 = 0.9
		}
		if alpha == 0 {
			alpha = 1.5
		}
		led.mu.Lock()
		defer led.mu.Unlock()
		if maxLen == 0 {
			maxLen = led.r
		}
		dist, err := failures.NewBurstDist(b1, alpha, maxLen)
		if err != nil {
			return err
		}
		devs := cfg.Devs
		if len(devs) == 0 {
			for dev := 0; dev < led.n; dev++ {
				devs = append(devs, dev)
			}
		} else {
			devs = append([]int(nil), devs...)
			sort.Ints(devs)
		}
		dataSectors := led.stripes * led.r
		for _, dev := range devs {
			if led.downDevs[dev] {
				continue
			}
			// The draw happens whether or not the bursts land: gating must
			// not perturb the RNG stream, or one skipped burst would
			// reshuffle every later storm.
			for _, b := range failures.ChunkFailures(led.rng, dataSectors, cfg.PStart, dist) {
				if led.burstCoveredLocked(dev, b.Start, b.Len) {
					if err := env.Store.InjectBurst(dev, b.Start, b.Len); err != nil {
						return err
					}
					led.recordInjectedLocked(dev, b.Start, b.Len)
					led.logf("t=%v storm dev=%d start=%d len=%d", at, dev, b.Start, b.Len)
				} else {
					led.logf("t=%v storm-skip dev=%d start=%d len=%d (coverage)", at, dev, b.Start, b.Len)
				}
			}
		}
		return nil
	}}
}

// burstCoveredLocked reports whether injecting the burst keeps every
// stripe it touches recoverable given the planned-lost state. A cell
// both planned lost and in the burst is listed twice, which CanRecover,
// taking the list as a set, ignores.
func (l *Ledger) burstCoveredLocked(dev, start, length int) bool {
	for stripe := start / l.r; stripe*l.r < start+length && stripe < l.stripes; stripe++ {
		cells := l.plannedCellsLocked(stripe)
		for row := 0; row < l.r; row++ {
			if sec := stripe*l.r + row; sec >= start && sec < start+length {
				cells = append(cells, core.Cell{Col: dev, Row: row})
			}
		}
		if ok, err := l.code.CanRecover(cells); err != nil || !ok {
			return false
		}
	}
	return true
}

// StartScrubber starts the store's paced background scrubber.
func StartScrubber(at time.Duration, interval time.Duration, stripesPerSec float64) Event {
	return Event{At: at, Name: "scrubber-start", Do: func(ctx context.Context, env *Env, led *Ledger) error {
		led.mu.Lock()
		led.logf("t=%v scrubber-start interval=%v rate=%v", at, interval, stripesPerSec)
		led.mu.Unlock()
		return env.Store.StartScrubber(store.ScrubberOptions{Interval: interval, StripesPerSec: stripesPerSec})
	}}
}

// StopScrubber stops the background scrubber.
func StopScrubber(at time.Duration) Event {
	return Event{At: at, Name: "scrubber-stop", Do: func(ctx context.Context, env *Env, led *Ledger) error {
		led.mu.Lock()
		led.logf("t=%v scrubber-stop", at)
		led.mu.Unlock()
		env.Store.StopScrubber()
		return nil
	}}
}

// StallColumn makes the flaky device behind a cluster column stall for
// dur: probes fail (heartbeat misses) and every data call pays perCall
// extra — the grey-failure regime hedged reads exist for. A stall
// shorter than FailAfter sweeps is a flap the detector must ride out;
// a longer one is a real death it must declare.
func StallColumn(at time.Duration, col int, dur, perCall time.Duration) Event {
	return Event{At: at, Name: fmt.Sprintf("stall col=%d", col), Do: func(ctx context.Context, env *Env, led *Ledger) error {
		f := env.flakyCol(col)
		if f == nil {
			return fmt.Errorf("column %d has no flaky device (store env, or dead column)", col)
		}
		f.StallFor(dur, perCall)
		led.mu.Lock()
		led.logf("t=%v stall col=%d dur=%v percall=%v", at, col, dur, perCall)
		led.mu.Unlock()
		return nil
	}}
}

// AwaitFailover polls until the column is alive again on a spare (the
// monitor has declared it dead and completed the swap), bounded by
// within.
func AwaitFailover(at time.Duration, col int, within time.Duration) Event {
	return Event{At: at, Name: fmt.Sprintf("await-failover col=%d", col), Do: func(ctx context.Context, env *Env, led *Ledger) error {
		if env.Volume == nil {
			return fmt.Errorf("await-failover needs a cluster env")
		}
		deadline := time.Now().Add(within)
		for {
			if env.Volume.Stats().Failovers > 0 {
				if h := env.Volume.Health(); col < len(h) && h[col].Alive {
					led.mu.Lock()
					led.logf("t=%v await-failover col=%d", at, col)
					led.mu.Unlock()
					return nil
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("column %d not failed over within %v", col, within)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}}
}
