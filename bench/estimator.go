package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of samples by linear
// interpolation between order statistics. It returns NaN for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// quietFloor is the benchmark's estimator for every timed metric: the
// mean of a phase's three fastest passes. A pass is fixed work, so
// interference from the host only ever adds time; the host flips between
// a quiet and a contended mode every few seconds, and in the contended
// mode even the 10th percentile of a run's passes rides 10–40 % above the
// quiet level, while the fastest few of several hundred stay within
// 1–3 % of it as long as a handful of passes met a quiet moment. Three
// rather than one, so that no single reading decides a metric. Passes
// that did not do the fixed work are discarded before they get here.
func quietFloor(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	s = s[:min(3, len(s))]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func median(samples []float64) float64 { return quantile(samples, 0.50) }
