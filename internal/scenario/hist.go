// Package scenario is the proving ground for the rest of the tree: a
// trace-driven load harness (mixed op sizes, Zipfian hot spots,
// open-loop arrival with bursts, hundreds of concurrent clients) that
// drives a store.Store or a cluster Volume while a correlated-failure
// scheduler replays the paper's §7.1.2/§7.2.2 failure processes —
// whole-shelf outages, latent-sector-error storms during rebuild, a
// scrub racing a progressively failing device, heartbeat flaps during
// hedged reads — as composable, seed-deterministic scenarios.
//
// Latency is reported as p50/p99/p999 per op class from HDR-style
// log-linear histograms, measured open-loop (from each op's scheduled
// arrival, so queueing delay counts — a closed-loop harness would hide
// exactly the coordinated omission the tail defences exist to fight).
// Every scenario ends with a settle phase (flush, rebuilds, repair
// quiesce, scrub-until-clean) and a ledger-backed audit: zero
// unrecoverable stripes, zero integrity false alarms, zero residual
// bad sectors, and a byte-identical fingerprint for a given seed.
package scenario

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear bucket layout: values 0..linearMax-1 µs are exact; above
// that each power of two is split into subCount/2 equal sub-buckets, so
// the relative quantization error is bounded by 2/subCount ≈ 3%. This
// is the HDR-histogram scheme with a fixed µs unit and enough octaves
// for any duration Go can represent.
const (
	subBits   = 6
	subCount  = 1 << subBits // 64 linear buckets, 32 sub-buckets/octave
	octaves   = 64 - subBits // enough for values up to 1<<63 µs
	bucketLen = subCount + octaves*(subCount/2)
)

// Histogram is a fixed-size, lock-free latency histogram in
// microseconds. Record is safe for concurrent use (atomic adds on
// independent buckets); the read side (Percentiles, Quantile) takes a
// point-in-time snapshot bucket by bucket, which is exact once the
// recorders have stopped — the only state the harness reports.
type Histogram struct {
	buckets [bucketLen]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // total µs, for the mean
	max     atomic.Uint64
}

// bucketOf maps a µs value to its bucket index.
func bucketOf(us uint64) int {
	if us < subCount {
		return int(us)
	}
	// bits.Len64(us) ≥ subBits+1 here; shifting by e drops us into
	// [subCount/2, subCount), the top half of the linear range.
	e := bits.Len64(us) - subBits
	return subCount + (e-1)*(subCount/2) + int(us>>uint(e)) - subCount/2
}

// bucketHigh returns the exclusive upper value bound of a bucket — the
// conservative (pessimistic) value quantiles report.
func bucketHigh(idx int) float64 {
	if idx < subCount {
		return float64(idx + 1)
	}
	e := (idx-subCount)/(subCount/2) + 1
	s := (idx - subCount) % (subCount / 2)
	return float64((uint64(subCount/2+s) + 1) << uint(e))
}

// Record adds one latency sample.
func (h *Histogram) Record(d time.Duration) {
	us := uint64(0)
	if d > 0 {
		us = uint64(d / time.Microsecond)
	}
	h.buckets[bucketOf(us)].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	for {
		cur := h.max.Load()
		if us <= cur || h.max.CompareAndSwap(cur, us) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile returns the q-quantile (q in [0,1]) in microseconds, using
// each bucket's upper bound so the answer never understates. Zero
// samples report 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := 0; i < bucketLen; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			high := bucketHigh(i)
			if m := float64(h.max.Load()); high > m && m > 0 {
				// The top occupied bucket's upper bound can overshoot the
				// true max; clamp so p999 of a tight distribution never
				// exceeds the largest sample actually seen.
				return m
			}
			return high
		}
	}
	return float64(h.max.Load())
}

// Percentiles is the reported latency row for one op class. All values
// are microseconds; the JSON field names are the BENCH_scenario.json
// schema (see README: Scenario harness & soak testing).
type Percentiles struct {
	Count  uint64  `json:"count"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	MeanUS float64 `json:"mean_us"`
	MaxUS  float64 `json:"max_us"`
}

// Percentiles snapshots the histogram into the reported row.
func (h *Histogram) Percentiles() Percentiles {
	p := Percentiles{
		Count:  h.count.Load(),
		P50us:  h.Quantile(0.50),
		P99us:  h.Quantile(0.99),
		P999us: h.Quantile(0.999),
		MaxUS:  float64(h.max.Load()),
	}
	if p.Count > 0 {
		p.MeanUS = float64(h.sum.Load()) / float64(p.Count)
	}
	return p
}
