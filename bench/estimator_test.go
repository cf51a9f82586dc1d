package main

import (
	"math"
	"math/rand/v2"
	"testing"
)

// bimodal draws n pass times from a host that flips between a quiet and
// a contended mode in blocks of ten passes, the given share of blocks
// (at random places) being contended. Interference only ever adds time:
// a quiet pass takes 1 plus up to a few percent, a contended one slow
// plus as much again.
func bimodal(rng *rand.Rand, n int, contended, slow float64) []float64 {
	const block = 10
	blocks := n / block
	busy := make([]bool, blocks)
	for _, i := range rng.Perm(blocks)[:int(contended*float64(blocks))] {
		busy[i] = true
	}
	out := make([]float64, 0, n)
	for _, b := range busy {
		for i := 0; i < block; i++ {
			if b {
				out = append(out, slow+0.08*math.Abs(rng.NormFloat64()))
			} else {
				out = append(out, 1+0.02*math.Abs(rng.NormFloat64()))
			}
		}
	}
	return out
}

func TestQuietFloorRecoversQuietMode(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, contended := range []float64{0.3, 0.5, 0.7, 0.9} {
		for _, slow := range []float64{1.15, 1.45} {
			var worst, decileOff float64
			for trial := 0; trial < 50; trial++ {
				s := bimodal(rng, 300, contended, slow)
				worst = math.Max(worst, math.Abs(quietFloor(s)-1))
				decileOff = math.Max(decileOff, math.Abs(quantile(s, 0.10)-1))
			}
			if worst > 0.02 {
				t.Errorf("contended share %.0f%%, slow mode ×%.2f: quiet floor off by %.1f%%, want ≤ 2%%", 100*contended, slow, 100*worst)
			}
			if contended >= 0.9 && decileOff < 0.1 {
				t.Errorf("contended share %.0f%%, slow mode ×%.2f: the 10th percentile never left the quiet mode (off by %.1f%%); the test no longer shows why the floor is used", 100*contended, slow, 100*decileOff)
			}
		}
	}
}

func TestQuietFloorAveragesTheThreeFastest(t *testing.T) {
	if got := quietFloor([]float64{9, 2, 7, 4, 3}); got != 3 {
		t.Errorf("quietFloor = %v, want 3", got)
	}
	if got := quietFloor([]float64{5, 3}); got != 4 {
		t.Errorf("quietFloor of two samples = %v, want 4", got)
	}
	if !math.IsNaN(quietFloor(nil)) {
		t.Error("quietFloor of no samples is not NaN")
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.1, 1.4}, {1, 5}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if s[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// is [3.5, 13.5, 31.0]; the median is 13.5.
	got := quartileSpread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
