package scenario

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stair/internal/cluster"
	"stair/internal/core"
	"stair/internal/failures"
	"stair/internal/store"
)

// EnvOptions parameterises the prebuilt environments. The zero value
// (plus a seed) selects the standard scenario geometry: a 6×4 STAIR
// code with m=2, e=(1,2), integrity on, spiky latency-shaped memory
// devices.
type EnvOptions struct {
	// Seed derives every device's private latency RNG, so a run's
	// simulated timing is reproducible under -race.
	Seed int64
	// Stripes/SectorSize size the volume; zero selects 24 stripes of
	// 1 KiB sectors (small enough that a full scenario settles in
	// seconds, large enough that stripes outnumber lock shards).
	Stripes    int
	SectorSize int
	// Profile shapes the simulated devices; the zero value selects the
	// default spiky profile (120µs ± 80µs with 3ms spikes on 0.3% of
	// calls). The per-device Seed field is always overridden.
	Profile store.LatencyProfile
	// MaxDirtyStripes bounds the write buffer (flush backpressure);
	// zero selects 8 — tight enough that the failure scenarios exercise
	// writers evicting other stripes. The latency guard raises
	// it to the stripe count so it measures the write path, not an
	// artificially small buffer.
	MaxDirtyStripes int
}

func (o EnvOptions) withDefaults() EnvOptions {
	if o.Stripes == 0 {
		o.Stripes = 24
	}
	if o.SectorSize == 0 {
		o.SectorSize = 1024
	}
	if o.MaxDirtyStripes == 0 {
		o.MaxDirtyStripes = 8
	}
	if o.Profile == (store.LatencyProfile{}) {
		o.Profile = store.LatencyProfile{
			Latency:   120 * time.Microsecond,
			Jitter:    80 * time.Microsecond,
			Spike:     3 * time.Millisecond,
			SpikeProb: 0.003,
		}
	}
	return o
}

// scenarioCode builds the standard scenario code: n=6, r=4, m=2,
// e=(1,2) — two whole-device failures plus a two-step staircase of
// sector bursts, the smallest geometry exercising every coverage
// regime the scenarios push into.
func scenarioCode() (*core.Code, error) {
	return core.New(core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
}

// NewStoreEnv builds a store-backed env: latency-shaped in-memory
// devices (per-device seeded RNGs), end-to-end integrity on, bounded
// repair queue with two workers.
func NewStoreEnv(opts EnvOptions) (*Env, error) {
	opts = opts.withDefaults()
	code, err := scenarioCode()
	if err != nil {
		return nil, err
	}
	meta := store.IntegrityMetaSectors(opts.Stripes, code.R(), opts.SectorSize)
	devs := make([]store.Device, code.N())
	for col := range devs {
		p := opts.Profile
		p.Seed = opts.Seed*1000003 + int64(col) + 1
		devs[col] = store.NewLatencyDeviceProfile(
			store.NewMemDevice(opts.Stripes*code.R()+meta, opts.SectorSize), p)
	}
	st, err := store.Open(store.Config{
		Code:            code,
		SectorSize:      opts.SectorSize,
		Stripes:         opts.Stripes,
		Devices:         devs,
		MaxDirtyStripes: opts.MaxDirtyStripes,
		RepairWorkers:   2,
		Integrity:       &store.IntegrityOptions{Epoch: 1},
	})
	if err != nil {
		return nil, err
	}
	return &Env{
		Target:  st,
		Store:   st,
		Code:    code,
		closers: []func() error{st.Close},
	}, nil
}

// NewClusterEnv builds a cluster-backed env: six active columns plus
// one spare, every fleet device a FlakyDevice (stallable, pingable)
// over a latency-shaped memory device, hedged reads on, a fast failure
// detector (40ms sweeps, dead after 5 misses), integrity on.
func NewClusterEnv(opts EnvOptions) (*Env, error) {
	opts = opts.withDefaults()
	code, err := scenarioCode()
	if err != nil {
		return nil, err
	}
	fleet := &cluster.Fleet{}
	for i := 0; i < code.N()+1; i++ {
		fleet.Servers = append(fleet.Servers, cluster.Server{
			Name:  fmt.Sprintf("s%d", i),
			URL:   "local://",
			Spare: i == code.N(),
		})
	}
	meta := store.IntegrityMetaSectors(opts.Stripes, code.R(), opts.SectorSize)
	env := &Env{Code: code, flaky: map[string]*FlakyDevice{}}
	var (
		flakyMu   sync.Mutex
		dialCount atomic.Int64
	)
	v, err := cluster.Open(context.Background(), cluster.Config{
		Fleet:      fleet,
		VolumeName: "scenario",
		Code:       code,
		SectorSize: opts.SectorSize,
		Stripes:    opts.Stripes,
		Dial: func(ctx context.Context, server cluster.Server) (store.Device, error) {
			p := opts.Profile
			p.Seed = opts.Seed*7919 + dialCount.Add(1)
			f := NewFlakyDevice(store.NewLatencyDeviceProfile(
				store.NewMemDevice(opts.Stripes*code.R()+meta, opts.SectorSize), p))
			flakyMu.Lock()
			env.flaky[server.Name] = f
			flakyMu.Unlock()
			return f, nil
		},
		Hedge:           &cluster.HedgeConfig{},
		Monitor:         cluster.MonitorConfig{Interval: 40 * time.Millisecond, Timeout: 20 * time.Millisecond, FailAfter: 5},
		Integrity:       &store.IntegrityOptions{Epoch: 1},
		MaxDirtyStripes: opts.MaxDirtyStripes,
		RepairWorkers:   2,
	})
	if err != nil {
		return nil, err
	}
	env.Target = v
	env.Store = v.Store()
	env.Volume = v
	env.closers = append(env.closers, v.Close)
	return env, nil
}

// scaled stretches a duration by the STAIR_SOAK multiplier.
func scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * SoakScale())
}

// BaseTrace is the common trace shape: open-loop Poisson arrivals with
// 3× bursts in the first 80ms of every 300ms window (dur scaled by
// STAIR_SOAK), Zipfian keys. Blocks is left zero for PrepareSpec to
// bind to the env's block space.
func BaseTrace(seed int64, mix Mix, rate float64, dur time.Duration) TraceSpec {
	return TraceSpec{
		Seed:        seed,
		Duration:    scaled(dur),
		Rate:        rate,
		Mix:         mix,
		BurstEvery:  300 * time.Millisecond,
		BurstLen:    80 * time.Millisecond,
		BurstFactor: 3,
	}
}

// PrepareSpec binds a spec's trace to the env's block space. Call once
// after building the env, before Run.
func PrepareSpec(env *Env, spec *Spec) {
	if spec.Trace.Blocks == 0 {
		spec.Trace.Blocks = env.Target.Blocks()
	}
}

// ShelfOutageSpec is the whole-shelf outage: the two columns sharing a
// backend shelf (devices 0 and 1 — exactly the code's m) die at once
// under load, a gated LSE drizzle lands on the survivors, then both
// shelves are replaced and rebuilt. Every stripe spends the outage at
// the edge of device coverage; the audit demands it all comes back.
func ShelfOutageSpec(seed int64) Spec {
	return Spec{
		Name:    "shelf-outage",
		Seed:    seed,
		Trace:   BaseTrace(seed, MixedMix(), 1500, 1200*time.Millisecond),
		Clients: 256,
		Events: []Event{
			FailDevice(scaled(150*time.Millisecond), 0),
			FailDevice(scaled(150*time.Millisecond), 1),
			LSEStorm(scaled(300*time.Millisecond), StormConfig{PStart: 0.008}),
			ReplaceDevice(scaled(500*time.Millisecond), 0),
			ReplaceDevice(scaled(520*time.Millisecond), 1),
			RebuildDevice(scaled(560*time.Millisecond), 0),
			RebuildDevice(scaled(600*time.Millisecond), 1),
		},
	}
}

// LSEStormRebuildSpec is the paper's headline correlated mode
// (§7.1.2): a device dies, and while its replacement rebuilds, latent-
// sector-error storms strike the surviving devices — the exposure
// window the e-vector of global parities exists for.
func LSEStormRebuildSpec(seed int64) Spec {
	return Spec{
		Name:    "lse-storm-during-rebuild",
		Seed:    seed,
		Trace:   BaseTrace(seed, ReadHeavyMix(), 1800, 1200*time.Millisecond),
		Clients: 256,
		Events: []Event{
			FailDevice(scaled(100*time.Millisecond), 0),
			ReplaceDevice(scaled(250*time.Millisecond), 0),
			RebuildDeviceAsync(scaled(260*time.Millisecond), 0),
			LSEStorm(scaled(300*time.Millisecond), StormConfig{PStart: 0.02}),
			LSEStorm(scaled(420*time.Millisecond), StormConfig{PStart: 0.02}),
			LSEStorm(scaled(540*time.Millisecond), StormConfig{PStart: 0.02}),
			AwaitRebuild(scaled(800*time.Millisecond), 0),
		},
	}
}

// ScrubVsFailingSpec races the paced background scrubber against a
// progressively failing device: the §7.2.2 burst process on device 4
// doubles its intensity step by step (failures.Degrading) until the
// device finally dies outright and is replaced and rebuilt — while the
// scrubber keeps sweeping and feeding the repair queue mid-decay.
func ScrubVsFailingSpec(seed int64) Spec {
	ramp := failures.Degrading{P0: 0.01, Growth: 2}
	return Spec{
		Name:    "scrub-vs-failing-device",
		Seed:    seed,
		Trace:   BaseTrace(seed, WriteHeavyMix(), 1200, 1300*time.Millisecond),
		Clients: 192,
		Events: []Event{
			StartScrubber(scaled(60*time.Millisecond), 120*time.Millisecond, 400),
			LSEStorm(scaled(200*time.Millisecond), StormConfig{PStart: ramp.PAt(0), Devs: []int{4}}),
			LSEStorm(scaled(350*time.Millisecond), StormConfig{PStart: ramp.PAt(1), Devs: []int{4}}),
			LSEStorm(scaled(500*time.Millisecond), StormConfig{PStart: ramp.PAt(2), Devs: []int{4}}),
			FailDevice(scaled(650*time.Millisecond), 4),
			ReplaceDevice(scaled(800*time.Millisecond), 4),
			RebuildDevice(scaled(820*time.Millisecond), 4),
		},
	}
}

// HeartbeatFlapSpec exercises the failure detector against grey
// failure during hedged reads (cluster env only): two short stalls the
// detector must ride out as flaps — hedges absorbing the latency — and
// one long stall it must declare dead, failing over to the spare and
// rebuilding, all under open-loop read load.
func HeartbeatFlapSpec(seed int64) Spec {
	return Spec{
		Name:    "heartbeat-flap",
		Seed:    seed,
		Trace:   BaseTrace(seed, ReadHeavyMix(), 1200, 2400*time.Millisecond),
		Clients: 256,
		Events: []Event{
			StallColumn(scaled(250*time.Millisecond), 2, 120*time.Millisecond, 15*time.Millisecond),
			StallColumn(scaled(600*time.Millisecond), 2, 120*time.Millisecond, 15*time.Millisecond),
			StallColumn(scaled(1000*time.Millisecond), 2, 1500*time.Millisecond, 15*time.Millisecond),
			AwaitFailover(scaled(2300*time.Millisecond), 2, 10*time.Second),
		},
	}
}
