package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"stair/internal/core"
)

func init() {
	register("fig9", "Mult_XORs of standard/upstairs/downstairs encoding vs e (paper Fig. 9)", runFig9)
	register("fig10", "space saving in devices vs r for s ≤ 4 (paper Fig. 10)", runFig10)
	register("idr", "§2 worked example: STAIR vs IDR redundant sectors (n=8, m=2, β=4)", runIDRExample)
}

func runFig9() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "r\te\tstandard\tupstairs\tdownstairs\tchosen\t(actual exec)")
	for _, r := range []int{8, 16, 24, 32} {
		for _, e := range partitions(4, 4, 6) {
			c, err := core.New(core.Config{N: 8, R: r, M: 2, E: e})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d\t%v\t%d\t%d\t%d\t%v\t%d\n", r, e,
				c.Cost(core.MethodStandard), c.Cost(core.MethodUpstairs),
				c.Cost(core.MethodDownstairs), c.Method(), c.CostActual(core.MethodAuto))
		}
	}
	return w.Flush()
}

func runFig10() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "s\tm'\tr\tsaving(devices)")
	for s := 1; s <= 4; s++ {
		for mPrime := 1; mPrime <= s; mPrime++ {
			for _, r := range []int{4, 8, 16, 32} {
				// The most even split of s over m' chunks (the shape of
				// Figure 10: the saving depends only on s, m', r).
				e := make([]int, mPrime)
				for i := range e {
					e[i] = s / mPrime
				}
				for i := 0; i < s%mPrime; i++ {
					e[mPrime-1-i]++
				}
				fmt.Fprintf(w, "%d\t%d\t%d\t%.3f\n", s, mPrime, r, core.SpaceSavingDevices(e, r))
			}
		}
	}
	return w.Flush()
}

func runIDRExample() error {
	const n, m, beta = 8, 2, 4
	idrSectors := beta * (n - m)
	stairE := []int{1, beta}
	stairSectors := 1 + beta
	fmt.Printf("burst length β=%d, n=%d, m=%d\n", beta, n, m)
	fmt.Printf("IDR scheme:   %d redundant sectors per stripe (β per data chunk)\n", idrSectors)
	fmt.Printf("STAIR e=%v: %d redundant sectors per stripe\n", stairE, stairSectors)
	fmt.Printf("ratio: %.1fx\n", float64(idrSectors)/float64(stairSectors))
	return nil
}
