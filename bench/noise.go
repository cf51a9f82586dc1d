package main

import (
	"fmt"
	"time"
)

// noiseSeries reproduces the host-noise diagnosis: it times a fixed
// memory-streaming pass (a sum over a 64 MiB buffer, far larger than L2)
// back to back and prints, per 2 s window, the fastest pass, the 10th
// percentile, the median and the slowest. On a host that flips between a
// quiet and a contended mode the median and the 10th percentile jump
// between two levels; the fastest pass moves least, and the quiet floor
// of the whole series (what the benchmark reports) stays at the lower
// level.
func noiseSeries(seconds float64) {
	buf := make([]uint64, 8<<20)
	for i := range buf {
		buf[i] = uint64(i)
	}
	var sink uint64
	var all, window []float64
	start := time.Now()
	next := 2 * time.Second
	fmt.Println("window_s  passes  min_ms  p10_ms  median_ms  max_ms")
	for time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		for _, v := range buf {
			sink += v
		}
		ms := float64(time.Since(t0)) / 1e6
		all, window = append(all, ms), append(window, ms)
		if el := time.Since(start); el >= next {
			fmt.Printf("%8.0f  %6d  %6.2f  %6.2f  %9.2f  %6.2f\n", next.Seconds(), len(window),
				quantile(window, 0), quantile(window, 0.10), median(window), quantile(window, 1))
			window, next = window[:0], next+2*time.Second
		}
	}
	fmt.Printf("whole series: %d passes, quiet floor %.2f ms, 10th percentile %.2f ms, median %.2f ms, median/floor %.3f (sink %d)\n",
		len(all), quietFloor(all), quantile(all, 0.10), median(all), median(all)/quietFloor(all), sink&1)
}
