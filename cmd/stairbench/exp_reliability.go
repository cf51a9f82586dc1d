package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"stair/internal/failures"
	"stair/internal/reliability"
)

func init() {
	register("narr", "Narr per s for the §7.2 system (paper §7.2 table)", runNarr)
	register("fig17", "MTTDL vs Pbit, independent sector failures (paper Fig. 17)", runFig17)
	register("fig18", "MTTDL vs Pbit, correlated bursts b1=0.98 α=1.79 (paper Fig. 18)", runFig18)
	register("fig19a", "burst length CDFs for (b1,α) pairs (paper Fig. 19a)", runFig19a)
	register("fig19b", "MTTDL of e=(s) vs e=(1,s−1) under burst models (paper Fig. 19b)", runFig19b)
}

var pbitGrid = []float64{1e-14, 1e-13, 1e-12, 1e-11, 1e-10}

func runNarr() error {
	p := reliability.DefaultParams()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "s\tefficiency\tNarr")
	for s := 0; s <= 12; s++ {
		eff := reliability.Efficiency(p.N, p.R, p.M, s)
		fmt.Fprintf(w, "%d\t%.4f\t%d\n", s, eff, reliability.Narr(p, eff))
	}
	return w.Flush()
}

func fig17Codes() []reliability.CodeSpec {
	return []reliability.CodeSpec{
		{Kind: "rs"},
		{Kind: "stair", E: []int{1}}, // identical to SD s=1
		{Kind: "stair", E: []int{2}},
		{Kind: "stair", E: []int{1, 1}},
		{Kind: "sd", S: 2},
		{Kind: "stair", E: []int{3}},
		{Kind: "stair", E: []int{1, 2}},
		{Kind: "stair", E: []int{1, 1, 1}},
		{Kind: "sd", S: 3},
	}
}

func printMTTDLTable(model func(pbit float64) reliability.ChunkModel) error {
	p := reliability.DefaultParams()
	specs := fig17Codes()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "Pbit")
	for _, s := range specs {
		fmt.Fprintf(w, "\t%s", s)
	}
	fmt.Fprintln(w, "\t(hours)")
	for _, pbit := range pbitGrid {
		fmt.Fprintf(w, "%.0e", pbit)
		for _, spec := range specs {
			fmt.Fprintf(w, "\t%.3g", reliability.SystemMTTDL(p, spec, model(pbit)))
		}
		fmt.Fprintln(w, "\t")
	}
	return w.Flush()
}

func runFig17() error {
	p := reliability.DefaultParams()
	return printMTTDLTable(func(pbit float64) reliability.ChunkModel {
		return reliability.Independent{Psec: reliability.PsecFromPbit(pbit, p.SectorSize), Rval: p.R}
	})
}

func runFig18() error {
	p := reliability.DefaultParams()
	dist, err := failures.NewBurstDist(0.98, 1.79, p.R)
	if err != nil {
		return err
	}
	return printMTTDLTable(func(pbit float64) reliability.ChunkModel {
		return reliability.Correlated{Psec: reliability.PsecFromPbit(pbit, p.SectorSize), Dist: dist}
	})
}

var burstPairs = []struct{ b1, alpha float64 }{
	{0.9, 1}, {0.98, 1.79}, {0.99, 2}, {0.999, 3}, {0.9999, 4},
}

func runFig19a() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "len")
	for _, p := range burstPairs {
		fmt.Fprintf(w, "\tb1=%g α=%g", p.b1, p.alpha)
	}
	fmt.Fprintln(w)
	dists := make([]*failures.BurstDist, len(burstPairs))
	for i, p := range burstPairs {
		d, err := failures.NewBurstDist(p.b1, p.alpha, 16)
		if err != nil {
			return err
		}
		dists[i] = d
	}
	for l := 1; l <= 16; l++ {
		fmt.Fprintf(w, "%d", l)
		for _, d := range dists {
			fmt.Fprintf(w, "\t%.4f", d.CDF(l))
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func runFig19b() error {
	p := reliability.DefaultParams()
	pairs := []struct{ b1, alpha float64 }{
		{0.9, 1}, {0.99, 2}, {0.999, 3}, {0.9999, 4},
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, pbit := range []float64{1e-14, 1e-12, 1e-10} {
		fmt.Fprintf(w, "Pbit=%.0e\n", pbit)
		fmt.Fprint(w, "s")
		for _, bp := range pairs {
			fmt.Fprintf(w, "\te=(s) b1=%g\te=(1,s-1) b1=%g", bp.b1, bp.b1)
		}
		fmt.Fprintln(w)
		for s := 1; s <= 12; s++ {
			fmt.Fprintf(w, "%d", s)
			for _, bp := range pairs {
				dist, err := failures.NewBurstDist(bp.b1, bp.alpha, p.R)
				if err != nil {
					return err
				}
				model := reliability.Correlated{Psec: reliability.PsecFromPbit(pbit, p.SectorSize), Dist: dist}
				es := reliability.SystemMTTDL(p, reliability.CodeSpec{Kind: "stair", E: []int{s}}, model)
				fmt.Fprintf(w, "\t%.3g", es)
				if s >= 2 {
					e1s := reliability.SystemMTTDL(p, reliability.CodeSpec{Kind: "stair", E: []int{1, s - 1}}, model)
					fmt.Fprintf(w, "\t%.3g", e1s)
				} else {
					fmt.Fprint(w, "\t-")
				}
			}
			fmt.Fprintln(w)
		}
		w.Flush()
	}
	return nil
}
