// Command stairbench regenerates every table and figure of the STAIR
// paper's evaluation (FAST '14, §5-§7 and Appendix B) as text tables,
// and runs the correlated-failure scenarios (-experiment scenario, which
// writes BENCH_scenario.json). It is not the store's performance
// instrument: store- and cluster-layer throughput, latency and
// allocation numbers come from bench/ (BENCHMARK.json, bash
// bench/run.sh).
//
// Usage:
//
//	stairbench -experiment fig11a          # one experiment
//	stairbench -experiment all             # everything
//	stairbench -experiment fig12 -full     # full paper-scale sweep
//	stairbench -list                       # enumerate experiments
//
// Speed experiments default to a 4 MiB stripe so that a complete run
// finishes in minutes on a laptop; -full switches to the paper's 32 MiB
// stripes and denser parameter grids (and -stripe overrides directly).
// Like the paper's implementation, the hot GF region loops run as SIMD
// split-table kernels where the CPU allows (see internal/gf); every run
// banners which kernel produced its numbers, and BENCH_scenario.json
// records it, so speed figures are never compared across kernels
// unawares. STAIR_GF_KERNEL=portable forces the scalar baseline for A/B
// runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"stair/internal/core"
	"stair/internal/gf"
)

type options struct {
	full      bool
	stripeMiB int
}

type experiment struct {
	name string
	desc string
	run  func(o options) error
}

var experiments []experiment

func register(name, desc string, run func(o options) error) {
	experiments = append(experiments, experiment{name, desc, run})
}

func main() {
	var (
		name   = flag.String("experiment", "", "experiment id (see -list), or 'all'")
		list   = flag.Bool("list", false, "list experiments and exit")
		full   = flag.Bool("full", false, "paper-scale sweeps (32 MiB stripes, dense grids)")
		stripe = flag.Int("stripe", 0, "stripe size in MiB for speed experiments (overrides -full default)")
	)
	flag.Parse()

	// Resolve GF kernel dispatch before any measurement: a typo'd
	// STAIR_GF_KERNEL must die here, not mid-benchmark.
	if err := gf.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "stairbench:", err)
		os.Exit(1)
	}

	sort.Slice(experiments, func(i, j int) bool { return experiments[i].name < experiments[j].name })

	if *list || *name == "" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-8s %s\n", e.name, e.desc)
		}
		if *name == "" {
			os.Exit(0)
		}
		return
	}

	o := options{full: *full, stripeMiB: *stripe}
	if o.stripeMiB == 0 {
		if o.full {
			o.stripeMiB = 32
		} else {
			o.stripeMiB = 4
		}
	}

	// Every speed number below depends on which GF region kernel
	// dispatch picked; say so once, up front.
	fmt.Printf("gf kernel: %s (%s/%s, available: %v)\n",
		gf.ActiveKernelName(), runtime.GOOS, runtime.GOARCH, gf.KernelNames())
	fmt.Printf("data path: source-major plan, tile %d B\n\n", core.PlanDefaults().TileBytes)

	run := func(e experiment) {
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		if err := e.run(o); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *name == "all" {
		for _, e := range experiments {
			run(e)
		}
		return
	}
	for _, e := range experiments {
		if e.name == *name {
			run(e)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *name)
	os.Exit(2)
}
