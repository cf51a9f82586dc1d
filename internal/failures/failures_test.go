package failures

import (
	"math"
	"math/rand"
	"testing"
)

func TestBurstDistFig19aCDFOrdering(t *testing.T) {
	// Figure 19(a): burstier parameter pairs have lower CDFs at every
	// length below the maximum.
	pairs := []struct{ b1, alpha float64 }{
		{0.9, 1}, {0.98, 1.79}, {0.99, 2}, {0.999, 3}, {0.9999, 4},
	}
	dists := make([]*BurstDist, len(pairs))
	for i, p := range pairs {
		d, err := NewBurstDist(p.b1, p.alpha, 16)
		if err != nil {
			t.Fatal(err)
		}
		dists[i] = d
	}
	for l := 1; l < 16; l++ {
		for i := 0; i+1 < len(dists); i++ {
			if dists[i].CDF(l) > dists[i+1].CDF(l)+1e-12 {
				t.Errorf("CDF ordering violated at length %d between pair %d and %d", l, i, i+1)
			}
		}
	}
}

func TestBurstDistSampleMatchesPMF(t *testing.T) {
	d, err := NewBurstDist(0.9, 1.0, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const n = 200000
	counts := make([]int, 17)
	for i := 0; i < n; i++ {
		counts[d.Sample(rng)]++
	}
	for l := 1; l <= 16; l++ {
		got := float64(counts[l]) / n
		want := d.P(l)
		se := math.Sqrt(want*(1-want)/n) + 1e-9
		if math.Abs(got-want) > 6*se {
			t.Errorf("P(%d): sampled %v, want %v", l, got, want)
		}
	}
}

func TestBurstDistBoundaries(t *testing.T) {
	d, _ := NewBurstDist(0.95, 2, 8)
	if d.P(0) != 0 || d.P(9) != 0 {
		t.Error("out-of-range P should be 0")
	}
	if d.CDF(0) != 0 || d.CDF(100) != 1 {
		t.Error("CDF boundaries wrong")
	}
	if len(d.probs) != 8 {
		t.Error("probability vector length wrong")
	}
	one, err := NewBurstDist(0.5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.P(1) != 1 || one.Mean() != 1 {
		t.Error("maxLen=1 should be a point mass")
	}
}

func TestChunkFailuresClipping(t *testing.T) {
	d, _ := NewBurstDist(0.0, 1.0, 16) // always multi-sector bursts
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		bursts := ChunkFailures(rng, 16, 0.3, d)
		for _, b := range bursts {
			if b.Start < 0 || b.Start+b.Len > 16 || b.Len < 1 {
				t.Fatalf("burst %+v escapes the chunk", b)
			}
		}
	}
}

func TestLostSectors(t *testing.T) {
	got := LostSectors([]SectorBurst{{Start: 3, Len: 2}, {Start: 4, Len: 3}, {Start: 0, Len: 1}})
	want := []int{0, 3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestDeviceProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	never := DeviceProcess{P: 0}
	if len(never.Failed(rng, 100)) != 0 {
		t.Error("P=0 produced failures")
	}
	always := DeviceProcess{P: 1}
	if len(always.Failed(rng, 100)) != 100 {
		t.Error("P=1 missed failures")
	}
	some := DeviceProcess{P: 0.5}
	n := 0
	for trial := 0; trial < 1000; trial++ {
		n += len(some.Failed(rng, 10))
	}
	if n < 4500 || n > 5500 {
		t.Errorf("P=0.5 over 10000 draws gave %d failures", n)
	}
}

func TestDegradingRamp(t *testing.T) {
	d := Degrading{P0: 0.01, Growth: 2}
	want := []float64{0.01, 0.02, 0.04, 0.08}
	for step, w := range want {
		if got := d.PAt(step); got < w*0.999 || got > w*1.001 {
			t.Errorf("PAt(%d) = %v, want %v", step, got, w)
		}
	}
	// The ramp clamps at 1 instead of running away.
	if got := d.PAt(100); got != 1 {
		t.Errorf("PAt(100) = %v, want clamp at 1", got)
	}
	// Growth 1 holds steady; a negative product clamps at 0.
	steady := Degrading{P0: 0.05, Growth: 1}
	if got := steady.PAt(10); got != 0.05 {
		t.Errorf("steady PAt(10) = %v, want 0.05", got)
	}
	neg := Degrading{P0: -0.1, Growth: 2}
	if got := neg.PAt(3); got != 0 {
		t.Errorf("negative PAt(3) = %v, want clamp at 0", got)
	}
}
