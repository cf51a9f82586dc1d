package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"stair/internal/cluster"
	"stair/internal/core"
	"stair/internal/store"
)

func init() {
	register("cluster", "cluster volume: hedged vs unhedged tail latency, coalesced vs naive flush (updates BENCH_store.json)", runCluster)
}

// clusterBenchConfig pins the simulated fleet so the JSON entries are
// comparable run to run.
type clusterBenchConfig struct {
	N          int   `json:"n"`
	R          int   `json:"r"`
	M          int   `json:"m"`
	E          []int `json:"e"`
	SectorSize int   `json:"sector_size"`
	Stripes    int   `json:"stripes"`
	// The read fleet's latency profile: every call costs LatencyMS plus
	// uniform jitter, and a SpikeProb fraction stalls an extra SpikeMS —
	// the heavy tail hedging is for. Reads is the measured sample count
	// per scenario (after warm-up).
	LatencyMS float64 `json:"latency_ms"`
	JitterMS  float64 `json:"jitter_ms"`
	SpikeMS   float64 `json:"spike_ms"`
	SpikeProb float64 `json:"spike_prob"`
	Reads     int     `json:"reads"`
	// HedgePercentile is where the hedged scenario launches its
	// sibling reconstruction.
	HedgePercentile float64 `json:"hedge_percentile"`
	// The write fleet's profile: SerialLatencyMS per call with calls
	// queued (single-spindle semantics), flushed by FlushWorkers
	// concurrent stripe write-backs, coalesced within CoalesceWindowMS
	// per backend in the coalesced scenario.
	SerialLatencyMS  float64 `json:"serial_latency_ms"`
	FlushWorkers     int     `json:"flush_workers"`
	CoalesceWindowMS float64 `json:"coalesce_window_ms"`
	GoMaxProcs       int     `json:"gomaxprocs"`
	GFKernel         string  `json:"gf_kernel"`
}

// clusterBenchResult is one scenario's outcome: tail-latency scenarios
// fill P50MS/P99MS, throughput scenarios fill MiBps.
type clusterBenchResult struct {
	Op    string  `json:"op"`
	P50MS float64 `json:"p50_ms,omitempty"`
	P99MS float64 `json:"p99_ms,omitempty"`
	MiBps float64 `json:"mib_per_s,omitempty"`
	Note  string  `json:"note,omitempty"`
}

type clusterBenchReport struct {
	Config  clusterBenchConfig   `json:"config"`
	Results []clusterBenchResult `json:"results"`
}

// runCluster measures the cluster layer's two tail defences over an
// in-process fleet: hedged vs unhedged read latency on spiky backends,
// and coalesced vs naive flush throughput on serial (queued-service)
// backends. Results merge into BENCH_store.json under "cluster",
// preserving the store experiment's entries.
func runCluster(o options) error {
	report, err := loadStoreReport()
	if err != nil {
		return err
	}
	code, err := core.New(core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	if err != nil {
		return err
	}
	const (
		sector  = 4096
		stripes = 16
		reads   = 2000
	)
	cfg := clusterBenchConfig{
		N: 6, R: 4, M: 2, E: []int{1, 2},
		SectorSize: sector, Stripes: stripes,
		LatencyMS: 0.5, JitterMS: 0.2, SpikeMS: 20, SpikeProb: 0.02,
		Reads:           reads,
		HedgePercentile: 0.9,
		SerialLatencyMS: 2, FlushWorkers: 16, CoalesceWindowMS: 0.5,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GFKernel:   code.KernelName(),
	}
	var results []clusterBenchResult

	spikyProfile := store.LatencyProfile{
		Latency:   time.Duration(cfg.LatencyMS * float64(time.Millisecond)),
		Jitter:    time.Duration(cfg.JitterMS * float64(time.Millisecond)),
		Spike:     time.Duration(cfg.SpikeMS * float64(time.Millisecond)),
		SpikeProb: cfg.SpikeProb,
	}
	serialProfile := store.LatencyProfile{
		Latency: time.Duration(cfg.SerialLatencyMS * float64(time.Millisecond)),
		Serial:  true,
	}

	fleet := &cluster.Fleet{}
	for i := 0; i < code.N(); i++ {
		fleet.Servers = append(fleet.Servers, cluster.Server{
			Name: fmt.Sprintf("s%d", i), URL: "local://",
		})
	}
	openVol := func(profile store.LatencyProfile, hedge *cluster.HedgeConfig, coalesce *store.CoalesceOptions, flushWorkers int) (*cluster.Volume, error) {
		return cluster.Open(context.Background(), cluster.Config{
			Fleet:      fleet,
			VolumeName: "bench",
			Code:       code,
			SectorSize: sector,
			Stripes:    stripes,
			Dial: func(ctx context.Context, server cluster.Server) (store.Device, error) {
				mem := store.NewMemDevice(stripes*code.R(), sector)
				return store.NewLatencyDeviceProfile(mem, profile), nil
			},
			Hedge:           hedge,
			Coalesce:        coalesce,
			FlushWorkers:    flushWorkers,
			MaxDirtyStripes: stripes,
			Monitor:         cluster.MonitorConfig{Interval: time.Hour},
		})
	}

	ctx := context.Background()
	fill := func(v *cluster.Volume) error {
		buf := make([]byte, sector)
		for b := 0; b < v.Blocks(); b++ {
			for i := range buf {
				buf[i] = byte(b + i)
			}
			if err := v.WriteBlock(ctx, b, buf); err != nil {
				return err
			}
		}
		return v.Sync(ctx)
	}

	// --- Tail latency: unhedged vs hedged reads on a spiky fleet ----
	measureReads := func(v *cluster.Volume) ([]time.Duration, error) {
		blocks := v.Blocks()
		// Warm-up pass: touches every column enough to arm the hedge
		// trackers past MinSamples before measurement starts.
		for b := 0; b < blocks; b++ {
			if _, err := v.ReadBlock(ctx, b); err != nil {
				return nil, err
			}
		}
		lat := make([]time.Duration, reads)
		for i := range lat {
			begin := time.Now()
			if _, err := v.ReadBlock(ctx, (i*13)%blocks); err != nil {
				return nil, err
			}
			lat[i] = time.Since(begin)
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		return lat, nil
	}
	quantile := func(lat []time.Duration, q float64) float64 {
		idx := int(q * float64(len(lat)))
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		return float64(lat[idx]) / float64(time.Millisecond)
	}

	for _, mode := range []struct {
		suffix string
		hedge  *cluster.HedgeConfig
		note   string
	}{
		{"unhedged", nil, "spiky fleet, no tail defence: p99 eats the full spike"},
		{"hedged", &cluster.HedgeConfig{Percentile: cfg.HedgePercentile},
			"same fleet, sibling-reconstruction hedge past p90: tail clipped"},
	} {
		v, err := openVol(spikyProfile, mode.hedge, nil, 0)
		if err != nil {
			return err
		}
		if err := fill(v); err != nil {
			v.Close()
			return err
		}
		lat, err := measureReads(v)
		if err != nil {
			v.Close()
			return err
		}
		note := mode.note
		if mode.hedge != nil {
			st := v.Stats()
			note = fmt.Sprintf("%s (launched %d, won %d, lost %d)",
				mode.note, st.HedgesLaunched, st.HedgeWins, st.HedgeLosses)
		}
		results = append(results, clusterBenchResult{
			Op:    "read-" + mode.suffix,
			P50MS: quantile(lat, 0.50),
			P99MS: quantile(lat, 0.99),
			Note:  note,
		})
		v.Close()
	}

	// --- Throughput: naive vs coalesced flush on serial backends ----
	userBytes := float64(0)
	for _, mode := range []struct {
		suffix   string
		coalesce *store.CoalesceOptions
		note     string
	}{
		{"naive", nil, "serial (queued-service) backends: concurrent stripe flushes queue per call"},
		{"coalesced", &store.CoalesceOptions{Window: time.Duration(cfg.CoalesceWindowMS * float64(time.Millisecond))},
			"same backends, adjacent stripe extents merged into one call per backend"},
	} {
		v, err := openVol(serialProfile, nil, mode.coalesce, cfg.FlushWorkers)
		if err != nil {
			return err
		}
		userBytes = float64(v.Blocks()) * float64(sector)
		begin := time.Now()
		if err := fill(v); err != nil {
			v.Close()
			return err
		}
		took := time.Since(begin)
		note := mode.note
		if mode.coalesce != nil {
			cs := v.Stats().Coalesce
			note = fmt.Sprintf("%s (%d caller writes → %d device calls)",
				mode.note, cs.Writes, cs.InnerWrites)
		}
		results = append(results, clusterBenchResult{
			Op:    "write-" + mode.suffix,
			MiBps: userBytes / took.Seconds() / (1 << 20),
			Note:  note,
		})
		v.Close()
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "op\tp50 ms\tp99 ms\tMiB/s\tnote\n")
	for _, res := range results {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.1f\t%s\n", res.Op, res.P50MS, res.P99MS, res.MiBps, res.Note)
	}
	w.Flush()

	// Merge into BENCH_store.json without clobbering the store
	// experiment's entries.
	report.Cluster = &clusterBenchReport{Config: cfg, Results: results}
	if err := writeStoreReport(report); err != nil {
		return err
	}
	fmt.Println("\nupdated BENCH_store.json (cluster section)")
	return nil
}

// loadStoreReport reads the existing BENCH_store.json. Only a missing
// file yields an empty report: every experiment writes the whole file
// back, so treating an unreadable or malformed one as empty would erase
// the other experiments' sections.
func loadStoreReport() (storeBenchReport, error) {
	var report storeBenchReport
	raw, err := os.ReadFile("BENCH_store.json")
	if errors.Is(err, fs.ErrNotExist) {
		return report, nil
	}
	if err != nil {
		return report, err
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		return report, fmt.Errorf("BENCH_store.json: %w", err)
	}
	return report, nil
}

// writeStoreReport writes the merged report back.
func writeStoreReport(report storeBenchReport) error {
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	return os.WriteFile("BENCH_store.json", raw, 0o644)
}
