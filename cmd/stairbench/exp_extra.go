package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"text/tabwriter"

	"stair/internal/core"
	"stair/internal/failures"
	"stair/internal/reliability"
)

func init() {
	register("ablation", "implementation ablation: zero-term elision (model vs executed Mult_XORs)", runAblation)
	register("monte", "Monte-Carlo validation of the Pstr model via the failure simulator", runMonteCarlo)
}

// runAblation quantifies one implementation choice beyond the paper:
// eliding Mult_XORs whose coefficient or source region is known to be
// zero (actual vs model cost).
func runAblation() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "config\tmethod\tmodel Mult_XOR\tactual\tsaved")
	for _, cfg := range []core.Config{
		{N: 8, R: 16, M: 2, E: []int{1, 1, 2}},
		{N: 8, R: 16, M: 2, E: []int{4}},
		{N: 16, R: 16, M: 2, E: []int{1, 1, 1, 1}},
		{N: 16, R: 16, M: 3, E: []int{1, 3}},
	} {
		c, err := core.New(cfg)
		if err != nil {
			return err
		}
		for _, m := range []core.Method{core.MethodUpstairs, core.MethodDownstairs} {
			model, actual := c.Cost(m), c.CostActual(m)
			fmt.Fprintf(w, "%v\t%v\t%d\t%d\t%.1f%%\n", cfg.E, m, model, actual,
				100*float64(model-actual)/float64(model))
		}
	}
	return w.Flush()
}

// runMonteCarlo simulates the correlated sector-failure model over many
// stripes and compares the observed unrecoverable fraction with the
// analytic Pstr — the same cross-check the reliability tests run, shown
// here at experiment scale with an exaggerated Psec so events are
// observable.
func runMonteCarlo() error {
	// Psec is exaggerated relative to real drives (~1e-10) so failures
	// are observable, but kept small enough that the paper's
	// first-order correlated model (one burst per chunk, no clipping)
	// stays accurate to a few percent: the bias scales with r·Psec/B.
	const (
		n, m, r = 8, 1, 16
		psec    = 0.002
		trials  = 600000
	)
	dist, err := failures.NewBurstDist(0.9, 1.0, r)
	if err != nil {
		return err
	}
	model := reliability.Correlated{Psec: psec, Dist: dist}
	specs := []reliability.CodeSpec{
		{Kind: "rs"},
		{Kind: "stair", E: []int{2}},
		{Kind: "stair", E: []int{1, 2}},
		{Kind: "sd", S: 2},
	}
	rng := rand.New(rand.NewSource(2024))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "code\tanalytic Pstr\tsimulated\trel.err")

	// Draw per-chunk failure counts once per trial and evaluate every
	// coverage on the same sample.
	type covFn struct {
		spec   reliability.CodeSpec
		covers reliability.CoverageFunc
		bad    int
	}
	var fns []covFn
	for _, spec := range specs {
		var cf reliability.CoverageFunc
		switch spec.Kind {
		case "rs":
			cf = reliability.RSCoverage()
		case "stair":
			cf = reliability.StairCoverage(spec.E)
		case "sd":
			cf = reliability.SDCoverage(spec.S)
		}
		fns = append(fns, covFn{spec: spec, covers: cf})
	}
	pStart := psec / dist.Mean()
	for trial := 0; trial < trials; trial++ {
		var counts []int
		for chunk := 0; chunk < n-m; chunk++ {
			lost := failures.LostSectors(failures.ChunkFailures(rng, r, pStart, dist))
			if len(lost) > 0 {
				counts = append(counts, len(lost))
			}
		}
		sort.Ints(counts)
		for i := range fns {
			if !fns[i].covers(counts) {
				fns[i].bad++
			}
		}
	}
	for _, f := range fns {
		analytic := reliability.Pstr(n-m, model, f.covers)
		sim := float64(f.bad) / trials
		rel := 0.0
		if analytic > 0 {
			rel = (sim - analytic) / analytic
		}
		fmt.Fprintf(w, "%s\t%.4g\t%.4g\t%+.1f%%\n", f.spec, analytic, sim, 100*rel)
	}
	fmt.Fprintln(w, "(sampler draws bursts per sector; the analytic model is the paper's")
	fmt.Fprintln(w, " first-order approximation, so a few percent of bias is expected)")
	return w.Flush()
}
