// Command stairbench prints the STAIR paper's (FAST '14) tables and its
// coding-cost, update-penalty and reliability figures as text tables,
// and runs the correlated-failure scenarios (-experiment scenario, which
// writes BENCH_scenario.json). The speed figures (§6.2, Figs. 11-13:
// STAIR vs SD encoding and worst-case decoding) are the root package's
// benchmarks, `go test -run '^$' -bench 'Fig1[123]' .`, not experiments
// here. Neither is this the store's performance instrument: store- and
// cluster-layer throughput, latency and allocation numbers come from
// bench/ (BENCHMARK.json, bash bench/run.sh).
//
// Usage:
//
//	stairbench -experiment fig9            # one experiment
//	stairbench -experiment all             # everything
//	stairbench -list                       # enumerate experiments
//
// Every run banners which GF region kernel dispatch picked (see
// internal/gf), and BENCH_scenario.json records it, so the timed
// scenario rows are never compared across kernels unawares.
// STAIR_GF_KERNEL=portable forces the scalar baseline for A/B runs.
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

type experiment struct {
	name string
	desc string
	run  func() error
}

var experiments []experiment

func register(name, desc string, run func() error) {
	experiments = append(experiments, experiment{name, desc, run})
}

func main() {
	var (
		name = flag.String("experiment", "", "experiment id (see -list), or 'all'")
		list = flag.Bool("list", false, "list experiments and exit")
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

	// Every speed number below depends on which GF region kernel
	// dispatch picked; say so once, up front.
	fmt.Printf("gf kernel: %s (%s/%s, available: %v)\n",
		gf.ActiveKernelName(), runtime.GOOS, runtime.GOARCH, gf.KernelNames())
	fmt.Printf("data path: source-major plan, tile %d B\n\n", core.PlanDefaults().TileBytes)

	run := func(e experiment) {
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		if err := e.run(); err != nil {
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
