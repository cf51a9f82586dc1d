package scenario

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stair/internal/store/mem"
)

// OpClass labels one latency population. Reads and writes are reported
// separately: they take different paths (direct/degraded read vs
// buffered write + flush backpressure) with different tails.
type OpClass string

const (
	// OpRead is a block read (possibly degraded).
	OpRead OpClass = "read"
	// OpWrite is a block write into the stripe buffer.
	OpWrite OpClass = "write"
)

// MixEntry is one op shape in a workload mix: an op class, how many
// consecutive blocks it touches, and its selection weight.
type MixEntry struct {
	Op     OpClass `json:"op"`
	Blocks int     `json:"blocks"`
	Weight int     `json:"weight"`
}

// Mix is a named weighted mixture of op shapes.
type Mix struct {
	Name    string     `json:"name"`
	Entries []MixEntry `json:"entries"`
}

// ReadHeavyMix models a serving tier: 90% single-block reads, 5%
// 4-block scans, 5% single-block writes.
func ReadHeavyMix() Mix {
	return Mix{Name: "read-heavy", Entries: []MixEntry{
		{Op: OpRead, Blocks: 1, Weight: 90},
		{Op: OpRead, Blocks: 4, Weight: 5},
		{Op: OpWrite, Blocks: 1, Weight: 5},
	}}
}

// MixedMix models a balanced OLTP-ish mix: 50% reads, 30% writes, with
// a multi-block share on each side.
func MixedMix() Mix {
	return Mix{Name: "mixed", Entries: []MixEntry{
		{Op: OpRead, Blocks: 1, Weight: 50},
		{Op: OpRead, Blocks: 4, Weight: 10},
		{Op: OpWrite, Blocks: 1, Weight: 30},
		{Op: OpWrite, Blocks: 4, Weight: 10},
	}}
}

// WriteHeavyMix models an ingest tier: 80% writes (a quarter of them
// 8-block sequential runs), 20% reads.
func WriteHeavyMix() Mix {
	return Mix{Name: "write-heavy", Entries: []MixEntry{
		{Op: OpWrite, Blocks: 1, Weight: 60},
		{Op: OpWrite, Blocks: 8, Weight: 20},
		{Op: OpRead, Blocks: 1, Weight: 20},
	}}
}

// TraceOp is one generated operation: its open-loop arrival offset from
// trace start, op class, first block and block count.
type TraceOp struct {
	At     time.Duration
	Op     OpClass
	Block  int
	Blocks int
}

// TraceSpec parameterises a generated trace. The same spec (same seed)
// always generates the identical op sequence — the determinism the
// scenario fingerprints build on.
type TraceSpec struct {
	// Seed drives every random choice (arrivals, mix selection, keys).
	Seed int64
	// Duration is the trace length; Rate the mean arrival rate, ops/s.
	Duration time.Duration
	Rate     float64
	// Mix is the op mixture.
	Mix Mix
	// Blocks is the addressable key space (the target's block count).
	Blocks int
	// BurstEvery/BurstLen/BurstFactor overlay open-loop arrival bursts:
	// within every BurstEvery window, arrivals during the first
	// BurstLen come BurstFactor× faster. Zero BurstEvery disables.
	BurstEvery  time.Duration
	BurstLen    time.Duration
	BurstFactor float64
}

// zipfS and zipfV shape the hot-spot key distribution (rand.NewZipf).
const zipfS, zipfV = 1.2, 1

// GenTrace expands a spec into the concrete op sequence, sorted by
// arrival time. Arrivals are exponential (open-loop Poisson) with the
// burst overlay; keys are Zipfian (zipfS, zipfV) over a seeded
// permutation of the block space, so hot keys do not cluster on the
// first stripes.
func GenTrace(spec TraceSpec) ([]TraceOp, error) {
	if spec.Blocks <= 0 {
		return nil, fmt.Errorf("scenario: trace needs a positive block space, got %d", spec.Blocks)
	}
	if spec.Rate <= 0 || spec.Duration <= 0 {
		return nil, fmt.Errorf("scenario: trace needs positive rate and duration (rate=%v dur=%v)", spec.Rate, spec.Duration)
	}
	if len(spec.Mix.Entries) == 0 {
		return nil, fmt.Errorf("scenario: trace mix %q has no entries", spec.Mix.Name)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(spec.Blocks-1))
	perm := rng.Perm(spec.Blocks)
	totalWeight := 0
	for _, e := range spec.Mix.Entries {
		if e.Blocks <= 0 || e.Blocks > spec.Blocks || e.Weight <= 0 {
			return nil, fmt.Errorf("scenario: bad mix entry %+v for %d blocks", e, spec.Blocks)
		}
		totalWeight += e.Weight
	}

	var ops []TraceOp
	var t time.Duration
	for {
		rate := spec.Rate
		if spec.BurstEvery > 0 && spec.BurstFactor > 1 && t%spec.BurstEvery < spec.BurstLen {
			rate *= spec.BurstFactor
		}
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= spec.Duration {
			return ops, nil
		}
		pick := rng.Intn(totalWeight)
		var entry MixEntry
		for _, e := range spec.Mix.Entries {
			if pick < e.Weight {
				entry = e
				break
			}
			pick -= e.Weight
		}
		block := perm[zipf.Uint64()]
		if block+entry.Blocks > spec.Blocks {
			block = spec.Blocks - entry.Blocks
		}
		ops = append(ops, TraceOp{At: t, Op: entry.Op, Block: block, Blocks: entry.Blocks})
	}
}

// LoadResult is one load phase's outcome.
type LoadResult struct {
	// PerClass holds the latency rows, keyed by op class. Latency is
	// measured from each op's *scheduled* arrival (open-loop), so ops
	// queued behind a stalled store pay their queueing delay — the
	// coordinated-omission-free figure.
	PerClass map[OpClass]Percentiles
	// Ops counts operations completed; Errors those that returned an
	// error (errored ops are excluded from the latency rows).
	Ops    uint64
	Errors uint64
	// Wall is the load phase's wall-clock span.
	Wall time.Duration
}

// RunLoad replays a trace against the target with the given client
// concurrency: a dispatcher releases ops at their scheduled times into
// a queue the clients drain. It returns when every op has completed or
// ctx is cancelled (the remaining ops are abandoned).
func RunLoad(ctx context.Context, target Target, trace []TraceOp, clients int) (LoadResult, error) {
	if clients <= 0 {
		clients = 64
	}
	res := LoadResult{PerClass: map[OpClass]Percentiles{}}
	if len(trace) == 0 {
		return res, nil
	}
	hists := map[OpClass]*Histogram{OpRead: {}, OpWrite: {}}
	var ops, errs atomic.Uint64

	type queued struct {
		op    TraceOp
		sched time.Time
	}
	queue := make(chan queued, len(trace))
	begin := time.Now()

	var wg sync.WaitGroup
	blockSize := target.BlockSize()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			buf := make([]byte, blockSize)
			for q := range queue {
				if ctx.Err() != nil {
					continue // drain without executing
				}
				var err error
				for i := 0; i < q.op.Blocks && err == nil; i++ {
					b := q.op.Block + i
					switch q.op.Op {
					case OpRead:
						var out []byte
						out, err = target.ReadBlock(ctx, b)
						if err == nil {
							mem.Release(out)
						}
					case OpWrite:
						stampPayload(buf, b, client)
						err = target.WriteBlock(ctx, b, buf)
					}
				}
				ops.Add(1)
				if err != nil {
					errs.Add(1)
					continue
				}
				hists[q.op.Op].Record(time.Since(q.sched))
			}
		}(c)
	}

	// Open-loop dispatcher: release each op at begin+At regardless of
	// how the previous ones are faring.
	var dispatchErr error
	timer := time.NewTimer(0)
	defer timer.Stop()
dispatch:
	for _, op := range trace {
		sched := begin.Add(op.At)
		if wait := time.Until(sched); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				dispatchErr = ctx.Err()
				break dispatch
			case <-timer.C:
			}
		}
		queue <- queued{op: op, sched: sched}
	}
	close(queue)
	wg.Wait()

	res.Ops = ops.Load()
	res.Errors = errs.Load()
	res.Wall = time.Since(begin)
	for class, h := range hists {
		if h.Count() > 0 {
			res.PerClass[class] = h.Percentiles()
		}
	}
	return res, dispatchErr
}

// stampPayload gives a write buffer deterministic, distinguishable
// content without paying a full-buffer fill per op: an in-place header
// keyed by (block, client). Parity and checksums protect whatever
// bytes are written, so the load path needs distinguishable — not
// verifiable — payloads.
func stampPayload(buf []byte, block, client int) {
	if len(buf) >= 16 {
		binary.LittleEndian.PutUint64(buf[0:], uint64(block)*0x9e3779b97f4a7c15+1)
		binary.LittleEndian.PutUint64(buf[8:], uint64(client)*0xbf58476d1ce4e5b9+1)
	}
}
