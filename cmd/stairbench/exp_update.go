package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"stair/internal/core"
	"stair/internal/sd"
)

func init() {
	register("fig14", "update penalty of STAIR vs e at n=16, s=4 (paper Fig. 14)", runFig14)
	register("fig15", "update penalty: RS vs SD vs STAIR at n=r=16 (paper Fig. 15)", runFig15)
}

func runFig14() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "r\te\tm=1\tm=2\tm=3")
	for _, r := range []int{8, 16, 24, 32} {
		for _, e := range partitions(4, 4, 6) {
			fmt.Fprintf(w, "%d\t%v", r, e)
			for m := 1; m <= 3; m++ {
				c, err := core.New(core.Config{N: 16, R: r, M: m, E: e})
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "\t%.2f", c.MeanUpdatePenalty())
			}
			fmt.Fprintln(w)
		}
	}
	return w.Flush()
}

func runFig15() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "m\tcode\tavg\tmin\tmax")
	for m := 1; m <= 3; m++ {
		fmt.Fprintf(w, "%d\tRS\t%d\t\t\n", m, m)
		for s := 1; s <= 3; s++ {
			c, err := sd.New(sd.Config{N: 16, R: 16, M: m, S: s})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d\tSD s=%d\t%.2f\t\t\n", m, s, c.MeanUpdatePenalty())
		}
		for s := 1; s <= 4; s++ {
			var sum, minP, maxP float64
			count := 0
			for _, e := range partitions(s, 16, 16-m) {
				c, err := core.New(core.Config{N: 16, R: 16, M: m, E: e})
				if err != nil {
					continue
				}
				p := c.MeanUpdatePenalty()
				if count == 0 || p < minP {
					minP = p
				}
				if count == 0 || p > maxP {
					maxP = p
				}
				sum += p
				count++
			}
			fmt.Fprintf(w, "%d\tSTAIR s=%d\t%.2f\t%.2f\t%.2f\n", m, s, sum/float64(count), minP, maxP)
		}
	}
	return w.Flush()
}
