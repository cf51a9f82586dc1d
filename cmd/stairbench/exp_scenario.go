package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"stair/internal/cluster"
	"stair/internal/gf"
	"stair/internal/scenario"
	"stair/internal/store"
)

func init() {
	register("scenario", "trace-driven load + correlated-failure scenarios: p50/p99/p999 per op class, clean-end audit (writes BENCH_scenario.json)", runScenario)
}

// scenarioBenchConfig pins the harness shape so rows are comparable
// run to run.
type scenarioBenchConfig struct {
	N          int   `json:"n"`
	R          int   `json:"r"`
	M          int   `json:"m"`
	E          []int `json:"e"`
	SectorSize int   `json:"sector_size"`
	Stripes    int   `json:"stripes"`
	// Seed is the fixed scenario seed; SoakScale the STAIR_SOAK
	// duration multiplier the run used (1 = quick CI shape).
	Seed      int64   `json:"seed"`
	SoakScale float64 `json:"soak_scale"`
	// The simulated device profile behind every scenario.
	LatencyUS   float64  `json:"latency_us"`
	JitterUS    float64  `json:"jitter_us"`
	SpikeUS     float64  `json:"spike_us"`
	SpikeProb   float64  `json:"spike_prob"`
	GFKernel    string   `json:"gf_kernel"`
	ScenarioSet []string `json:"scenarios"`
}

// scenarioBenchRow is one (scenario, op class) latency row. The
// percentile fields are embedded from the harness histogram: count,
// p50_us, p99_us, p999_us, mean_us, max_us.
type scenarioBenchRow struct {
	Scenario string `json:"scenario"`
	Class    string `json:"class"`
	scenario.Percentiles
	Errors uint64 `json:"errors"`
	Note   string `json:"note,omitempty"`
}

// scenarioBenchMetrics snapshots one scenario's end-state counters —
// the same shape /v1/metrics serves, so soak artifacts and bench rows
// cross-check.
type scenarioBenchMetrics struct {
	Fingerprint     string         `json:"fingerprint"`
	InjectedSectors int            `json:"injected_sectors"`
	SettleScrubs    int            `json:"settle_scrubs"`
	Store           store.Stats    `json:"store"`
	Cluster         *cluster.Stats `json:"cluster,omitempty"`
}

type scenarioBenchReport struct {
	Config  scenarioBenchConfig             `json:"config"`
	Results []scenarioBenchRow              `json:"results"`
	Metrics map[string]scenarioBenchMetrics `json:"metrics"`
}

// runScenario drives the scenario harness end to end: the three
// standard workload mixes against a healthy store (the baseline
// percentile rows), then every correlated-failure scenario — erroring
// out unless each completes with zero unrecoverable stripes and zero
// integrity false alarms. The report is BENCH_scenario.json, written
// whole: this experiment is the file's only writer.
func runScenario() error {
	const seed = 1
	ctx := context.Background()
	opts := scenario.EnvOptions{Seed: seed}

	cfg := scenarioBenchConfig{
		N: 6, R: 4, M: 2, E: []int{1, 2},
		SectorSize: 1024, Stripes: 24,
		Seed:      seed,
		SoakScale: scenario.SoakScale(),
		LatencyUS: 120, JitterUS: 80, SpikeUS: 3000, SpikeProb: 0.003,
		GFKernel: gf.ActiveKernelName(),
	}
	var rows []scenarioBenchRow
	metrics := map[string]scenarioBenchMetrics{}

	record := func(spec scenario.Spec, res *scenario.Result, note string) {
		classes := make([]string, 0, len(res.Load.PerClass))
		for class := range res.Load.PerClass {
			classes = append(classes, string(class))
		}
		sort.Strings(classes)
		for _, class := range classes {
			rows = append(rows, scenarioBenchRow{
				Scenario:    spec.Name,
				Class:       class,
				Percentiles: res.Load.PerClass[scenario.OpClass(class)],
				Errors:      res.Load.Errors,
				Note:        note,
			})
		}
		metrics[spec.Name] = scenarioBenchMetrics{
			Fingerprint:     res.Fingerprint,
			InjectedSectors: res.InjectedSectors,
			SettleScrubs:    res.SettleScrubs,
			Store:           res.StoreStats,
			Cluster:         res.ClusterStats,
		}
		cfg.ScenarioSet = append(cfg.ScenarioSet, spec.Name)
	}

	runOne := func(spec scenario.Spec, env *scenario.Env, note string) error {
		defer env.Close()
		scenario.PrepareSpec(env, &spec)
		res, err := scenario.Run(ctx, env, spec)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		if len(res.Violations) > 0 {
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "scenario %s: VIOLATION: %s\n", spec.Name, v)
			}
			return fmt.Errorf("scenario %s ended dirty (%d violations)", spec.Name, len(res.Violations))
		}
		record(spec, res, note)
		return nil
	}

	// --- Healthy baselines: the three standard mixes, no failures ----
	// The baselines open the write buffer to the full stripe count so
	// the rows measure the data path, not the deliberately tight
	// backpressure cap the failure scenarios stress.
	healthyOpts := opts
	healthyOpts.MaxDirtyStripes = cfg.Stripes
	healthyDur := 800 * time.Millisecond
	for _, mix := range []scenario.Mix{
		scenario.ReadHeavyMix(), scenario.MixedMix(), scenario.WriteHeavyMix(),
	} {
		env, err := scenario.NewStoreEnv(healthyOpts)
		if err != nil {
			return err
		}
		spec := scenario.Spec{
			Name:    "healthy-" + mix.Name,
			Seed:    seed,
			Trace:   scenario.BaseTrace(seed, mix, 1000, healthyDur),
			Clients: 192,
		}
		if err := runOne(spec, env, "healthy store, open-loop latency incl. queueing"); err != nil {
			return err
		}
	}

	// --- Correlated-failure scenarios --------------------------------
	storeSpecs := []struct {
		spec scenario.Spec
		note string
	}{
		{scenario.ShelfOutageSpec(seed), "m simultaneous device deaths + LSE drizzle on survivors"},
		{scenario.LSEStormRebuildSpec(seed), "LSE storms striking survivors mid-rebuild (§7.1.2 window)"},
		{scenario.ScrubVsFailingSpec(seed), "paced scrub racing a progressively failing device"},
	}
	for _, s := range storeSpecs {
		env, err := scenario.NewStoreEnv(opts)
		if err != nil {
			return err
		}
		if err := runOne(s.spec, env, s.note); err != nil {
			return err
		}
	}
	{
		env, err := scenario.NewClusterEnv(opts)
		if err != nil {
			return err
		}
		if err := runOne(scenario.HeartbeatFlapSpec(seed), env,
			"grey failure: detector rides out flaps, declares the long stall, hedges absorb"); err != nil {
			return err
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "scenario\tclass\tcount\tp50 µs\tp99 µs\tp999 µs\terrs\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.0f\t%.0f\t%.0f\t%d\n",
			r.Scenario, r.Class, r.Count, r.P50us, r.P99us, r.P999us, r.Errors)
	}
	w.Flush()
	fmt.Println("\nall scenarios settled clean: 0 unrecoverable stripes, 0 integrity false alarms")

	raw, err := json.MarshalIndent(scenarioBenchReport{Config: cfg, Results: rows, Metrics: metrics}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_scenario.json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_scenario.json")
	return nil
}
