package main

import (
	"context"
	"math"
	"reflect"
	"testing"
)

func readBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the workload and
// metric tables the program emits from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	var e2e, layers []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", layers, perLayer)
	}
	for _, w := range workloads {
		if c := dataPerStripe / w.updates; w.updates < dataPerStripe && c*w.updates != dataPerStripe || w.updates > dataPerStripe && w.updates%dataPerStripe != 0 {
			t.Errorf("%s: %d updates per pass neither divides nor is a multiple of %d", w.name, w.updates, dataPerStripe)
		}
		if w.rounds < 120 || w.rounds/w.failStride < 20 || w.rounds/w.setupStride < 20 {
			t.Errorf("%s: %d rounds, failure episode every %d, set-up every %d: want ≥ 120 rounds and ≥ 20 passes of every phase", w.name, w.rounds, w.failStride, w.setupStride)
		}
		if w.stripes <= 8 {
			t.Errorf("%s: %d stripes do not exceed the degraded-stripe cache", w.name, w.stripes)
		}
	}
}

// smokeRun is one short traced run: it yields both metric sets, the exact
// ones being independent of tracing.
type smokeRun struct {
	e2e, layers map[string]float64
	versions    []uint32
}

func runSmoke(t *testing.T, w *workload, seed uint64) smokeRun {
	t.Helper()
	dir := t.TempDir()
	r := newRunner(context.Background(), w, options{seed: seed, rounds: 3, trace: true, outDir: dir, scratch: dir})
	if err := r.run(); err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed, first: %v", w.name, seed, r.failed, r.attempted, r.firstErr)
	}
	layers, _ := r.perLayerMetrics()
	if err := writeTrace(dir, traceFile{Workload: w.name, Seed: seed, Metrics: layers}, r.rec); err != nil {
		t.Fatal(err)
	}
	return smokeRun{e2e: r.endToEndMetrics(), layers: layers, versions: r.sh.version}
}

// TestSmoke runs three rounds of every workload and checks that every
// metric of BENCHMARK.json is emitted once, finite, that no op fails, and
// that the exact counts repeat for a seed and the op sequence does not
// across seeds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			a, b, other := runSmoke(t, w, 7), runSmoke(t, w, 7), runSmoke(t, w, 8)
			for _, d := range endToEnd {
				if v, ok := a.e2e[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v), want finite and positive", d.name, v, ok)
				}
			}
			if len(a.e2e) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics emitted, want %d", len(a.e2e), len(endToEnd))
			}
			// Metrics that may read 0: counts of events that depend on
			// timing or need not happen in three rounds, and the metrics of
			// a layer this workload does not have.
			zeroOK := map[string]bool{
				"store.degraded_cache_hit_ratio": true, "device.scratch_flats": true,
				"go.gc_cycles": true, "go.gc_pause_total_ms": true,
				"cluster.coalesce_merge_ratio": true, "cluster.hedges_launched": true, "cluster.hedge_wins": true,
				"journal.bytes_per_flush": w.backend != backendFile, "store.journaled_flushes": w.backend != backendFile,
				"device.sync_calls": w.backend != backendFile, "cluster.open_ms": w.backend != backendCluster,
			}
			for _, d := range perLayer {
				v, ok := a.layers[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v == 0 && !zeroOK[d.name] {
					t.Errorf("per-layer metric %s = %v (present %v), want finite and positive", d.name, v, ok)
				}
			}
			if len(a.layers) != len(perLayer) {
				t.Errorf("%d per-layer metrics emitted, want %d", len(a.layers), len(perLayer))
			}

			exactE2E := []string{"dev_write_amp", "space_overhead"}
			exactLayers := []string{"store.full_flushes", "store.sub_flushes", "device.write_calls_per_op"}
			if w.backend != backendCluster {
				// Hedged reads launch on timing, so read calls repeat
				// only without the cluster layer.
				exactLayers = append(exactLayers, "device.read_calls_per_op")
			}
			for _, name := range exactE2E {
				if a.e2e[name] != b.e2e[name] {
					t.Errorf("%s differs across two runs of one seed: %v vs %v", name, a.e2e[name], b.e2e[name])
				}
			}
			for _, name := range exactLayers {
				if a.layers[name] != b.layers[name] {
					t.Errorf("%s differs across two runs of one seed: %v vs %v", name, a.layers[name], b.layers[name])
				}
			}
			if !reflect.DeepEqual(a.versions, b.versions) {
				t.Error("two runs of one seed wrote different block sequences")
			}
			if reflect.DeepEqual(a.versions, other.versions) {
				t.Error("two seeds wrote the same block sequence")
			}
			if a.e2e["space_overhead"] != other.e2e["space_overhead"] {
				t.Errorf("space_overhead depends on the seed: %v vs %v", a.e2e["space_overhead"], other.e2e["space_overhead"])
			}
		})
	}
}

// TestFindWorkload keeps the name lookup honest.
func TestFindWorkload(t *testing.T) {
	if findWorkload("no-such") != nil {
		t.Error("found a workload that does not exist")
	}
	for i := range workloads {
		if findWorkload(workloads[i].name) != &workloads[i] {
			t.Errorf("workload %q: not found by name", workloads[i].name)
		}
	}
}
