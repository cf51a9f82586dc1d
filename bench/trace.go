package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a span; the benchmark records spans only from its own
// files, around its calls into each layer (choosing-metrics §4).
type spanKind uint8

const (
	spPass   spanKind = iota // one phase pass; Parent is -1
	spUpdate                 // one update op: WriteBlock + Flush (+ Sync)
	spWriteBlock
	spFlush
	spSync
	spReadBlock
	spQuiesce
	spRebuild
	spScrub
	spCoreNew
	spDial
	spOpen
	spPrefill
	spDevRead
	spDevWrite
	spDevSync
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"pass", "update", "store.WriteBlock", "store.Flush", "store.Sync",
	"store.ReadBlockInto", "store.Quiesce", "store.RebuildDevice", "store.Scrub",
	"core.New", "dial", "open", "prefill",
	"device.ReadSectors", "device.WriteSectors", "device.Sync",
}

// span is one recorded interval. Start and End are nanoseconds since the
// recorder's epoch; Parent indexes the span that caused it (-1 for a
// pass); Phase and Round locate it in the run.
type span struct {
	Kind   spanKind
	Phase  phase
	Round  int32
	Parent int32
	Start  int64
	End    int64
}

// recorder keeps spans in memory. The client goroutine opens and closes
// op spans; device spans arrive from whatever goroutine the store (or
// the coalescer, or a hedge racer) issues the device call on, parented
// to the single client's current op. spans holds the round in flight:
// when it ends the runner folds it into the per-layer statistics, keeps
// the first maxSpansWritten for the trace file, and reuses the slice.
type recorder struct {
	epoch time.Time
	// on gates recording: a traced run alternates traced and untraced
	// rounds so trace.overhead_ratio compares like with like, and the
	// high-rate passes record a sample of their ops.
	on atomic.Bool
	// cur is the client's innermost open span, the parent of any device
	// call issued meanwhile.
	cur atomic.Int32

	mu    sync.Mutex
	spans []span
	phase phase
	round int32

	kept  []span // spans of the first rounds, parents rebased, for the trace file
	total int    // spans recorded over the whole run
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<17)}
	r.cur.Store(-1)
	return r
}

// set turns recording on or off.
func (r *recorder) set(on bool) {
	if r.on.Load() != on {
		r.on.Store(on)
	}
}

// endRound hands back the finished round's spans and starts the next
// round with an empty slice. The returned slice is valid until then.
func (r *recorder) endRound() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans
	if room := maxSpansWritten - len(r.kept); room > 0 {
		base := int32(len(r.kept))
		for _, s := range spans[:min(room, len(spans))] {
			if s.Parent >= 0 {
				s.Parent += base
			}
			r.kept = append(r.kept, s)
		}
	}
	r.total += len(spans)
	r.spans = r.spans[:0]
	return spans
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a client-side span under the current one and makes it
// current. It returns -1 when recording is off.
func (r *recorder) begin(kind spanKind) int32 {
	if !r.enabled() {
		return -1
	}
	parent := r.cur.Load()
	start := r.now()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Kind: kind, Phase: r.phase, Round: r.round, Parent: parent, Start: start})
	r.mu.Unlock()
	r.cur.Store(id)
	return id
}

// end closes a span opened by begin and restores its parent as current.
func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[id].End = end
	parent := r.spans[id].Parent
	r.mu.Unlock()
	r.cur.Store(parent)
}

// device records a completed device call (any goroutine).
func (r *recorder) device(kind spanKind, start, end int64) {
	parent := r.cur.Load()
	r.mu.Lock()
	r.spans = append(r.spans, span{Kind: kind, Phase: r.phase, Round: r.round, Parent: parent, Start: start, End: end})
	r.mu.Unlock()
}

// setPass tells the recorder which phase and round following spans
// belong to.
func (r *recorder) setPass(ph phase, round int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phase, r.round = ph, int32(round)
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval its children cover (children of one client op do not overlap
// except for hedge racers and coalesced batches, so the cover is the
// union of child intervals, computed in start order).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans))
	lastEnd := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start
	}
	// Spans are appended in begin order for client spans, and in
	// completion order for device spans; children of one parent are
	// close to start order, and the union below only needs each child's
	// overlap with what earlier children already covered.
	for i := range spans {
		p := spans[i].Parent
		if p < 0 {
			continue
		}
		start, end := spans[i].Start, spans[i].End
		if start < lastEnd[p] {
			start = lastEnd[p]
		}
		if end > start {
			covered[p] += end - start
			lastEnd[p] = end
		}
	}
	for i := range spans {
		self[i] -= covered[i]
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// maxSpansWritten bounds the trace file: every span feeds the per-layer
// metrics, but only the first rounds' are written out.
const maxSpansWritten = 50000

type spanJSON struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Round  int32  `json:"round"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type traceFile struct {
	Workload     string         `json:"workload"`
	Seed         uint64         `json:"seed"`
	SpansTotal   int            `json:"spans_total"`
	SpansWritten int            `json:"spans_written"`
	TailSamples  map[string]int `json:"tail_samples"`
	// UpdateCoverage is (store self time + device time) ÷ update pass
	// time: what the spans account for, the rest being the benchmark.
	UpdateCoverage float64            `json:"update_coverage"`
	Metrics        map[string]float64 `json:"metrics"`
	Spans          []spanJSON         `json:"spans"`
}

// writeTrace writes the spans (bounded) and the per-layer numbers
// derived from them to bench/out/trace-<workload>.json.
func writeTrace(dir string, tf traceFile, rec *recorder) error {
	tf.SpansTotal, tf.SpansWritten = rec.total, len(rec.kept)
	tf.Spans = make([]spanJSON, len(rec.kept))
	for i, s := range rec.kept {
		tf.Spans[i] = spanJSON{ID: i, Name: spanNames[s.Kind], Phase: phaseNames[s.Phase],
			Round: s.Round, Parent: s.Parent, Start: s.Start, End: s.End}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+tf.Workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
