// Package failures models sector and device failure processes following
// the STAIR paper's reliability analysis (§7.1.2, §7.2.2) and the field
// studies it builds on (Bairavasundaram et al., Schroeder et al.).
//
// Sector failures come in bursts whose length distribution is described
// by a pair (b1, α): b1 is the fraction of length-1 bursts, and α is the
// tail index of a Pareto distribution fitted to lengths ≥ 2. Typical
// field values are b1 ∈ [0.9, 0.99] and α ∈ [1, 2].
package failures

import (
	"fmt"
	"math"
	"math/rand"
)

// BurstDist is a discrete burst-length distribution over 1..MaxLen,
// parameterised by (b1, α) per §7.2.2: P(L=1) = b1 and, for i ≥ 2,
// P(L=i) ∝ i^{-α} − (i+1)^{-α} (a discrete Pareto tail), truncated and
// renormalised at MaxLen (the paper assumes bursts never exceed a chunk).
type BurstDist struct {
	B1     float64
	Alpha  float64
	MaxLen int
	probs  []float64 // probs[i-1] = P(L = i)
	cdf    []float64
	mean   float64
}

// NewBurstDist validates the parameters and precomputes the distribution.
func NewBurstDist(b1, alpha float64, maxLen int) (*BurstDist, error) {
	if b1 < 0 || b1 > 1 {
		return nil, fmt.Errorf("failures: b1=%v must be in [0,1]", b1)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("failures: alpha=%v must be positive", alpha)
	}
	if maxLen < 1 {
		return nil, fmt.Errorf("failures: maxLen=%d must be ≥ 1", maxLen)
	}
	d := &BurstDist{B1: b1, Alpha: alpha, MaxLen: maxLen}
	d.probs = make([]float64, maxLen)
	d.probs[0] = b1
	if maxLen > 1 {
		// Tail weights w_i = i^{-α} − (i+1)^{-α} for i = 2..maxLen,
		// normalised to total 1−b1.
		norm := math.Pow(2, -alpha) - math.Pow(float64(maxLen+1), -alpha)
		if norm <= 0 {
			// maxLen == 1 handled above; degenerate tail.
			norm = 1
		}
		for i := 2; i <= maxLen; i++ {
			w := math.Pow(float64(i), -alpha) - math.Pow(float64(i+1), -alpha)
			d.probs[i-1] = (1 - b1) * w / norm
		}
	} else {
		d.probs[0] = 1
	}
	d.cdf = make([]float64, maxLen)
	acc := 0.0
	for i, p := range d.probs {
		acc += p
		d.cdf[i] = acc
		d.mean += float64(i+1) * p
	}
	return d, nil
}

// P returns P(L = i) for burst length i (1-based).
func (d *BurstDist) P(i int) float64 {
	if i < 1 || i > d.MaxLen {
		return 0
	}
	return d.probs[i-1]
}

// CDF returns P(L ≤ i) — the curves of the paper's Figure 19(a).
func (d *BurstDist) CDF(i int) float64 {
	if i < 1 {
		return 0
	}
	if i > d.MaxLen {
		return 1
	}
	return d.cdf[i-1]
}

// Mean returns E[L], the paper's B (Eq. 14).
func (d *BurstDist) Mean() float64 { return d.mean }

// Sample draws a burst length.
func (d *BurstDist) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range d.cdf {
		if u <= c {
			return i + 1
		}
	}
	return d.MaxLen
}

// SectorBurst is one injected failure event: Start sectors into a chunk,
// Len consecutive sectors lost.
type SectorBurst struct {
	Start int
	Len   int
}

// ChunkFailures draws the set of failure bursts striking one chunk of r
// sectors during an exposure window where each sector independently
// begins a burst with probability pStart = Psec/B (§7.1.2: the
// probability that a sector is the beginning of a burst). Bursts are
// clipped at the chunk boundary, matching the paper's assumption that a
// burst spans one chunk only.
func ChunkFailures(rng *rand.Rand, r int, pStart float64, d *BurstDist) []SectorBurst {
	var bursts []SectorBurst
	for s := 0; s < r; s++ {
		if rng.Float64() >= pStart {
			continue
		}
		l := d.Sample(rng)
		if s+l > r {
			l = r - s
		}
		bursts = append(bursts, SectorBurst{Start: s, Len: l})
	}
	return bursts
}

// LostSectors flattens bursts into a deduplicated, sorted sector list.
func LostSectors(bursts []SectorBurst) []int {
	seen := map[int]bool{}
	var out []int
	for _, b := range bursts {
		for i := 0; i < b.Len; i++ {
			if !seen[b.Start+i] {
				seen[b.Start+i] = true
				out = append(out, b.Start+i)
			}
		}
	}
	// Insertion sort; lists are tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Degrading models a progressively failing device: a per-sector
// burst-start probability that grows geometrically step by step, the
// shape of the field studies' "errors beget errors" finding (a device
// that has started throwing latent sector errors keeps throwing them,
// faster). Step 0 is P0; each subsequent step multiplies by Growth.
type Degrading struct {
	// P0 is the step-0 burst-start probability.
	P0 float64
	// Growth is the per-step multiplier (> 1 degrades, 1 holds steady).
	Growth float64
}

// PAt returns the burst-start probability at the given step, clamped
// to 1.
func (d Degrading) PAt(step int) float64 {
	p := d.P0
	for i := 0; i < step; i++ {
		p *= d.Growth
	}
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// DeviceProcess draws device failures as a Bernoulli event per device per
// exposure window with probability p (a discretisation of the paper's
// exponential lifetime model with rate λ over a window t: p ≈ 1−e^{-λt}).
type DeviceProcess struct {
	P float64
}

// Failed draws which of n devices fail during one window.
func (dp DeviceProcess) Failed(rng *rand.Rand, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if rng.Float64() < dp.P {
			out = append(out, i)
		}
	}
	return out
}
