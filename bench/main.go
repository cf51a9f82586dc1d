// Command bench is the repository's benchmark (BENCHMARK.json): it drives
// four workloads through the public API of internal/store and
// internal/cluster from one client goroutine in a closed loop, checks
// every result against a shadow model, and prints the metrics as one
// JSON object on the last line of standard output. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"stair/internal/gf"
	"stair/internal/store/integrity"
	"stair/internal/store/mem"
)

// gomaxprocs is fixed and recorded: one client goroutine plus whatever
// the store, the HTTP servers and the runtime run beside it.
const gomaxprocs = 2

// traceDir is where a traced run writes trace-<workload>.json.
const traceDir = "bench/out"

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: bulk-mem, smallio-mem, durable-file, cluster-http")
		seed    = flag.Uint64("seed", 1, "seed of block sequences, payload versions and the failed-device rotation")
		seconds = flag.Float64("seconds", 35, "cap on the measured time: a run measures its workload's committed number of rounds and stops early only here")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		aa      = flag.Int("aa", 0, "A/A check: run every workload 2×N times as alternating sets A and B and compare the set medians")
		hog     = flag.Bool("hog", false, "with -aa: run a memory-streaming neighbour, 8 s on / 8 s off")
		noise   = flag.Float64("noise", 0, "print the host-noise series of a memory probe for this many seconds and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)
	if err := gf.Init(); err != nil {
		fatal(err)
	}
	switch {
	case *noise > 0:
		noiseSeries(*noise)
		return
	case *aa > 0:
		if err := aaCheck(*aa, *hog); err != nil {
			fatal(err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown -workload %q", *name))
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: traceDir, scratch: defaultScratch}
	res, err := runWorkload(context.Background(), w, opt)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkload performs one run and reduces it to the result object. The
// human-readable report goes to standard error.
func runWorkload(ctx context.Context, w *workload, opt options) (result, error) {
	r := newRunner(ctx, w, opt)
	if err := r.run(); err != nil {
		return result{}, err
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, map[string]float64(nil)
	if opt.trace {
		var sp *spanStats
		defs = perLayer
		values, sp = r.perLayerMetrics()
		tf := traceFile{Workload: w.name, Seed: opt.seed, Metrics: values,
			TailSamples:    map[string]int{"update": len(sp.updateOps), "read": len(sp.readOps), "degraded_read": len(sp.degradedOps)},
			UpdateCoverage: median(sp.coverage)}
		if err := writeTrace(opt.outDir, tf, r.rec); err != nil {
			return result{}, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "tail samples: %v; store+device self time covers %.1f%% of the update pass\n",
			tf.TailSamples, 100*tf.UpdateCoverage)
	} else {
		values = r.endToEndMetrics()
	}
	fmt.Fprintf(os.Stderr, "workload %s seed %d: %d rounds in %.1fs, gomaxprocs=%d gf=%s crc=%s pool=%v\n",
		w.name, opt.seed, len(r.rounds), r.elapsed.Seconds(), gomaxprocs, gf.ActiveKernelName(), integrity.KernelName(), mem.Enabled())
	for ph := phase(0); ph < numPhases; ph++ {
		t := r.passTimes(ph, nil)
		fmt.Fprintf(os.Stderr, "  pass %-14s %4d samples, quiet floor %8.3f ms, 10th percentile %8.3f ms, median %8.3f ms\n",
			phaseNames[ph], len(t), quietFloor(t)/1e6, quantile(t, 0.10)/1e6, median(t)/1e6)
	}
	for _, d := range defs {
		// A metric of a layer the workload does not have reads 0; one that
		// has no samples is NaN, and a run that short reports nothing.
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s has no value (computed %v: %v): the run was too short to sample it", d.name, ok, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(os.Stderr, "ops_attempted %d ops_failed %d settle_scrubs %d discarded_passes %d\n", r.attempted, r.failed, r.settles, r.discarded)
	return res, nil
}
