package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"
)

// benchmarkFile is BENCHMARK.json, the committed contract: the A/A check
// reads the bounds, the smoke test pins the workload and metric lists.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (bf benchmarkFile, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// exactMetrics are counts, not times: their A/A difference only has to
// stay within the bound; a timed metric's has to stay within half of it.
var exactMetrics = map[string]bool{"dev_write_amp": true, "allocs_per_op": true, "space_overhead": true}

// aaCheck runs every workload 2×n times on this same binary, alternating
// sets A and B (each run a fresh process with its own seed), and prints
// per workload×metric both set medians, their relative difference, the
// bound, and the spread of all 2×n values (the distance between their
// quartiles as a share of their median, as the driver takes it). With
// hog, a neighbour streams memory 8 s on / 8 s off for the whole check.
// It returns an error if a difference exceeds its bound, or half its
// bound for a timed metric.
func aaCheck(n int, hog bool) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	seconds := bf.RunSeconds
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if hog {
		stop := startHog()
		defer stop()
	}
	fmt.Printf("A/A check: %d+%d runs per workload, capped at %.0f s each, hog=%v, gomaxprocs=%d\n", n, n, seconds, hog, gomaxprocs)
	fmt.Printf("%-13s %-17s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "median A", "median B", "diff", "bound", "spread", "verdict")
	// Workloads take turns, so that the two sets of each see the same
	// stretch of the host's drift and durable-file's disk traffic is
	// spread over the whole check.
	sets := make([][2]map[string][]float64, len(workloads))
	for wi := range sets {
		sets[wi] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < 2*n; i++ {
		for wi, w := range workloads {
			res, err := runChild(exe, w.name, uint64(1000+i), seconds)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			for name, mv := range res.Metrics {
				sets[wi][i%2][name] = append(sets[wi][i%2][name], mv.Value)
			}
		}
	}
	failed := 0
	for wi, w := range workloads {
		sets := sets[wi]
		for _, m := range bf.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			diff := (b - a) / a
			limit, verdict := m.Bound, "pass"
			if !exactMetrics[m.Name] {
				limit = m.Bound / 2
			}
			if math.Abs(diff) > limit {
				verdict = "FAIL"
				failed++
			}
			all := append(append([]float64(nil), sets[0][m.Name]...), sets[1][m.Name]...)
			fmt.Printf("%-13s %-17s %12.4f %12.4f %+7.2f%% %5.0f%% %6.2f%%  %s\n", w.name, m.Name, a, b, 100*diff, 100*m.Bound, 100*quartileSpread(all), verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload×metric pairs differ by more than their bound (half of it for timed metrics)", failed)
	}
	fmt.Println("A/A check passed: every set-median difference is within its bound, and within half of it for timed metrics")
	return nil
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles of Python's
// statistics.quantiles(values, n=4), which is how the driver measures a
// metric's run-to-run spread.
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

// runChild runs one untraced run in a fresh process and parses the
// result object off its last line.
func runChild(exe, workload string, seed uint64, seconds float64) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64))
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var last []byte
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("parsing result line: %w", err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// startHog starts the benchmark-owned neighbour: one goroutine streaming
// a 256 MiB buffer, 8 s on and 8 s off. The returned function stops it
// and waits for it to exit.
func startHog() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]uint64, 32<<20)
		var sink uint64
		for on := true; ; on = !on {
			until := time.Now().Add(8 * time.Second)
			for time.Now().Before(until) {
				select {
				case <-quit:
					_ = sink
					return
				default:
				}
				if !on {
					time.Sleep(50 * time.Millisecond)
					continue
				}
				for i := range buf {
					buf[i] += sink
					sink ^= buf[i]
				}
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}
