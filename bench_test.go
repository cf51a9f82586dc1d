// Benchmarks regenerating the measured quantities of the paper's
// evaluation, one family per figure, and the store's per-stripe costs.
// They are the repo's one reproduction of the speed figures (§6.2,
// Figs. 11-13: STAIR vs SD encoding and worst-case decoding, each
// comparison a pair of STAIR/ and SD/ rows); cmd/stairbench prints the
// analytic tables and figures. Stripes are 1 MiB unless a row says
// otherwise (the paper's are 32 MiB), so
// `go test -run '^$' -bench 'Fig1[123]' .` completes in seconds.
package stair_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"stair/internal/cluster"
	"stair/internal/core"
	"stair/internal/failures"
	"stair/internal/reliability"
	"stair/internal/sd"
	"stair/internal/store"
	"stair/internal/store/devtest"
	"stair/internal/store/journal"
)

const benchStripeBytes = 1 << 20

// benchCtx is the context threaded through the store benchmarks.
var benchCtx = context.Background()

func benchCode(b *testing.B, cfg core.Config) *core.Code {
	b.Helper()
	c, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchStripe(b *testing.B, c *core.Code, stripeBytes int) *core.Stripe {
	b.Helper()
	sector := stripeBytes / (c.N() * c.R())
	sector -= sector % c.Field().SymbolBytes()
	if sector < c.Field().SymbolBytes() {
		sector = c.Field().SymbolBytes()
	}
	st, err := c.NewStripe(sector)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, cell := range c.DataCells() {
		rng.Read(st.Sector(cell.Col, cell.Row))
	}
	return st
}

// BenchmarkFig9EncodeMethods: encoding time of the three methods across
// the e-configurations of Figure 9 (n=8, r=16, m=2, s=4). The time
// ordering follows the Mult_XOR counts.
func BenchmarkFig9EncodeMethods(b *testing.B) {
	for _, e := range [][]int{{4}, {1, 3}, {2, 2}, {1, 1, 2}, {1, 1, 1, 1}} {
		c := benchCode(b, core.Config{N: 8, R: 16, M: 2, E: e})
		st := benchStripe(b, c, benchStripeBytes)
		for _, m := range []core.Method{core.MethodUpstairs, core.MethodDownstairs, core.MethodStandard} {
			b.Run(fmt.Sprintf("e=%v/%v", e, m), func(b *testing.B) {
				b.SetBytes(int64(st.SectorSize * c.N() * c.R()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.EncodeWith(st, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEncodeByKernel re-runs the canonical encode labelled by the
// dispatched GF region kernel, so committed benchmark logs record which
// kernel produced this file's numbers (sub-benchmark names carry it,
// e.g. BenchmarkEncodeByKernel/kernel=avx2). Force the baseline with
// STAIR_GF_KERNEL=portable for an A/B pair; the spread is the SIMD win
// on every other benchmark in this file.
func BenchmarkEncodeByKernel(b *testing.B) {
	c := benchCode(b, core.Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	st := benchStripe(b, c, benchStripeBytes)
	b.Run("kernel="+c.KernelName(), func(b *testing.B) {
		b.SetBytes(int64(st.SectorSize * c.N() * c.R()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Encode(st); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sweepSectors are the sector sizes of the per-stripe sweep benchmarks,
// spanning the paper's §6.2 sweep: 512 B is the small-I/O geometry, where
// fixed per-call costs dominate, and 32 KiB the bulk one.
var sweepSectors = []int{512, 2 << 10, 4 << 10, 8 << 10, 32 << 10}

// sectorName labels a sweep benchmark row: sector=512B, sector=8KiB.
func sectorName(sector int) string {
	if sector%(1<<10) == 0 {
		return fmt.Sprintf("sector=%dKiB", sector>>10)
	}
	return fmt.Sprintf("sector=%dB", sector)
}

// BenchmarkVerify: the scrubber's parity check of one encoded stripe in
// the benchmark geometry (n=8, r=16, m=2, e=(1,1,2)) — the encode plan
// run into pooled parity scratch and compared with the stored parity.
func BenchmarkVerify(b *testing.B) {
	c := benchCode(b, core.Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	for _, sector := range sweepSectors {
		st := benchStripe(b, c, sector*c.N()*c.R())
		if err := c.Encode(st); err != nil {
			b.Fatal(err)
		}
		b.Run(sectorName(sector), func(b *testing.B) {
			b.SetBytes(int64(sector * c.N() * c.R()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, err := c.Verify(st); err != nil || !ok {
					b.Fatalf("Verify = %v, %v", ok, err)
				}
			}
		})
	}
}

// BenchmarkRepairTwoColumns: a rebuild's decode of one stripe in the
// BenchmarkVerify geometry with its first two columns dead, at the same
// sector sizes.
func BenchmarkRepairTwoColumns(b *testing.B) {
	c := benchCode(b, core.Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	lost := lostChunks(2, c.R())
	for _, sector := range sweepSectors {
		st := benchStripe(b, c, sector*c.N()*c.R())
		if err := c.Encode(st); err != nil {
			b.Fatal(err)
		}
		b.Run(sectorName(sector), func(b *testing.B) {
			b.SetBytes(int64(sector * c.N() * c.R()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Repair(st, lost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// worstE is the coverage vector the speed figures of §6.2 (Figs. 11-13)
// run STAIR at for each s: the e whose chosen encoding method needs the
// most Mult_XORs (§6.2.1), picked by the Mult_XOR model over every
// partition of s. The pick holds at every point below; s=2 runs only at
// n=r=16, since at n=32 or r=8 it would be (1,1).
var worstE = map[int][]int{1: {1}, 2: {2}, 3: {1, 2}}

// fig11Points are Figure 11's (n, r): n swept at r=16 (11a) and r swept
// at n=16 (11b).
var fig11Points = [][2]int{{8, 16}, {16, 16}, {32, 16}, {16, 8}, {16, 32}}

// benchSD builds the SD code and a stripe of about stripeBytes for it,
// chunk-major like core.NewStripe, every cell random.
func benchSD(b *testing.B, cfg sd.Config, stripeBytes int) (*sd.Code, [][]byte) {
	b.Helper()
	c, err := sd.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sector := stripeBytes / (cfg.N * cfg.R)
	sector -= sector % 2
	cells := make([][]byte, cfg.N*cfg.R)
	rng := rand.New(rand.NewSource(2))
	for i := range cells {
		cells[i] = make([]byte, sector)
		rng.Read(cells[i])
	}
	return c, cells
}

// lostChunks lists every cell of the m leftmost chunks: the device
// failures every decode benchmark starts from.
func lostChunks(m, r int) []core.Cell {
	var lost []core.Cell
	for col := 0; col < m; col++ {
		for row := 0; row < r; row++ {
			lost = append(lost, core.Cell{Col: col, Row: row})
		}
	}
	return lost
}

// stairSectors appends the §6.2.2 worst-case sector failures of a STAIR
// code with m chunks lost: e_l sectors at the bottom of chunk m+l.
func stairSectors(lost []core.Cell, c *core.Code, m int) []core.Cell {
	for l, el := range c.E() {
		for h := 0; h < el; h++ {
			lost = append(lost, core.Cell{Col: m + l, Row: c.R() - 1 - h})
		}
	}
	return lost
}

// sdSectors appends s sector failures of an SD code with m chunks lost,
// in row order across the surviving chunks.
func sdSectors(lost []core.Cell, n, m, s int) []core.Cell {
	for k := 0; k < s; k++ {
		lost = append(lost, core.Cell{Col: m + k%(n-m), Row: k / (n - m)})
	}
	return lost
}

// benchRepair times repair, the Repair of one encoded stripe of
// stripeBytes. One untimed call first compiles and caches the decode
// plan, so the timed calls measure decoding, not plan compilation.
func benchRepair(b *testing.B, stripeBytes int, repair func() error) {
	if err := repair(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(stripeBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := repair(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Encode: STAIR vs SD encoding speed at Figure 11's
// points, m=2.
func BenchmarkFig11Encode(b *testing.B) {
	const m = 2
	for _, p := range fig11Points {
		n, r := p[0], p[1]
		for _, s := range []int{1, 3} {
			b.Run(fmt.Sprintf("STAIR/n=%d/r=%d/s=%d", n, r, s), func(b *testing.B) {
				c := benchCode(b, core.Config{N: n, R: r, M: m, E: worstE[s]})
				st := benchStripe(b, c, benchStripeBytes)
				b.SetBytes(int64(st.SectorSize * c.N() * c.R()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Encode(st); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("SD/n=%d/r=%d/s=%d", n, r, s), func(b *testing.B) {
				c, cells := benchSD(b, sd.Config{N: n, R: r, M: m, S: s}, benchStripeBytes)
				b.SetBytes(int64(len(cells[0]) * len(cells)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Encode(cells); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig12StripeSize: STAIR vs SD encoding speed vs stripe size
// (n=r=16, m=2, s=2), the cache-sensitivity sweep of Figure 12.
func BenchmarkFig12StripeSize(b *testing.B) {
	c := benchCode(b, core.Config{N: 16, R: 16, M: 2, E: worstE[2]})
	for _, size := range []int{128 << 10, 1 << 20, 8 << 20} {
		b.Run(fmt.Sprintf("STAIR/stripe=%dKB", size>>10), func(b *testing.B) {
			st := benchStripe(b, c, size)
			b.SetBytes(int64(st.SectorSize * c.N() * c.R()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Encode(st); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("SD/stripe=%dKB", size>>10), func(b *testing.B) {
			c, cells := benchSD(b, sd.Config{N: 16, R: 16, M: 2, S: 2}, size)
			b.SetBytes(int64(len(cells[0]) * len(cells)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Encode(cells); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13Decode: STAIR vs SD worst-case repair speed (§6.2.2: m
// chunks plus s=3 sectors lost) at Figure 13's points, n swept at r=16
// (13a) and r swept at n=16 (13b). STAIR loses the stair of e=(1,2) at
// the bottom of the next chunks, SD three sectors in row order across the
// surviving chunks.
func BenchmarkFig13Decode(b *testing.B) {
	const s = 3
	for _, p := range [][2]int{{8, 16}, {16, 16}, {16, 8}, {16, 32}} {
		n, r := p[0], p[1]
		for _, m := range []int{1, 2} {
			b.Run(fmt.Sprintf("STAIR/n=%d/r=%d/m=%d", n, r, m), func(b *testing.B) {
				c := benchCode(b, core.Config{N: n, R: r, M: m, E: worstE[s]})
				st := benchStripe(b, c, benchStripeBytes)
				if err := c.Encode(st); err != nil {
					b.Fatal(err)
				}
				lost := stairSectors(lostChunks(m, r), c, m)
				benchRepair(b, st.SectorSize*n*r, func() error { return c.Repair(st, lost) })
			})
			b.Run(fmt.Sprintf("SD/n=%d/r=%d/m=%d", n, r, m), func(b *testing.B) {
				c, cells := benchSD(b, sd.Config{N: n, R: r, M: m, S: s}, benchStripeBytes)
				if err := c.Encode(cells); err != nil {
					b.Fatal(err)
				}
				lost := sdSectors(lostChunks(m, r), n, m, s)
				benchRepair(b, len(cells[0])*n*r, func() error { return c.Repair(cells, lost) })
			})
		}
	}
}

// BenchmarkFig13DeviceOnlyDecode: the §6.2.2 fast path at n=r=16, e=(1).
// With device failures only, STAIR decodes like Reed-Solomon; the worst
// row adds the one sector e covers, and the ratio of the two rows per m
// is the paper's device-only speed-up (+79.39 %, +29.39 %, +11.98 % for
// m = 1, 2, 3).
func BenchmarkFig13DeviceOnlyDecode(b *testing.B) {
	for _, m := range []int{1, 2, 3} {
		c := benchCode(b, core.Config{N: 16, R: 16, M: m, E: worstE[1]})
		st := benchStripe(b, c, benchStripeBytes)
		if err := c.Encode(st); err != nil {
			b.Fatal(err)
		}
		for _, row := range []struct {
			name string
			lost []core.Cell
		}{{"devices", lostChunks(m, 16)}, {"worst", stairSectors(lostChunks(m, 16), c, m)}} {
			b.Run(fmt.Sprintf("m=%d/%s", m, row.name), func(b *testing.B) {
				benchRepair(b, st.SectorSize*c.N()*c.R(), func() error { return c.Repair(st, row.lost) })
			})
		}
	}
}

// BenchmarkFig14Update: incremental single-sector updates across the
// e-configurations of Figure 14 (n=16, r=16, s=4).
func BenchmarkFig14Update(b *testing.B) {
	for _, e := range [][]int{{4}, {1, 1, 2}, {1, 1, 1, 1}} {
		c := benchCode(b, core.Config{N: 16, R: 16, M: 2, E: e})
		st := benchStripe(b, c, benchStripeBytes)
		if err := c.Encode(st); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, st.SectorSize)
		rand.New(rand.NewSource(3)).Read(buf)
		cell := c.DataCells()[0]
		b.Run(fmt.Sprintf("e=%v", e), func(b *testing.B) {
			b.SetBytes(int64(st.SectorSize))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Update(st, cell, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig17MTTDL: the analytic reliability pipeline of Figures
// 17-19 (Pstr enumeration dominating).
func BenchmarkFig17MTTDL(b *testing.B) {
	p := reliability.DefaultParams()
	model := reliability.Independent{Psec: reliability.PsecFromPbit(1e-12, p.SectorSize), Rval: p.R}
	spec := reliability.CodeSpec{Kind: "stair", E: []int{1, 2}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reliability.SystemMTTDL(p, spec, model)
	}
}

// BenchmarkFig19Correlated: the correlated-model pipeline with a wide
// coverage vector (the most expensive Pstr enumeration of Figure 19b).
func BenchmarkFig19Correlated(b *testing.B) {
	p := reliability.DefaultParams()
	dist, err := failures.NewBurstDist(0.9, 1.0, p.R)
	if err != nil {
		b.Fatal(err)
	}
	model := reliability.Correlated{Psec: reliability.PsecFromPbit(1e-12, p.SectorSize), Dist: dist}
	spec := reliability.CodeSpec{Kind: "stair", E: []int{12}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reliability.SystemMTTDL(p, spec, model)
	}
}

// BenchmarkScheduleBuild: one-time construction cost (New compiles the
// upstairs/downstairs/standard schedules).
func BenchmarkScheduleBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(core.Config{N: 16, R: 16, M: 2, E: []int{1, 1, 2}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeScheduleBuild: per-pattern repair schedule compilation
// (amortised by the decode cache in steady state).
func BenchmarkDecodeScheduleBuild(b *testing.B) {
	c := benchCode(b, core.Config{N: 16, R: 16, M: 2, E: []int{1, 1, 2}})
	var lost []core.Cell
	for col := 0; col < 2; col++ {
		for row := 0; row < 16; row++ {
			lost = append(lost, core.Cell{Col: col, Row: row})
		}
	}
	lost = append(lost, core.Cell{Col: 2, Row: 15}, core.Cell{Col: 3, Row: 15}, core.Cell{Col: 4, Row: 14}, core.Cell{Col: 4, Row: 15})
	st := benchStripe(b, c, 64<<10)
	if err := c.Encode(st); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh code each round would re-measure construction; instead
		// vary the pattern slightly to defeat the cache.
		l := append([]core.Cell{}, lost...)
		l[len(l)-1].Row = 8 + i%8
		if ok, err := c.CanRecover(l); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// --- Store-level benchmarks (internal/store): the paths a deployment
// actually drives, healthy vs degraded — micro-benchmarks for working on
// one path. The numbers that count, end to end and per layer, come from
// bench/ (BENCHMARK.json, bash bench/run.sh).

func benchStore(b *testing.B, stripes int) *store.Store {
	b.Helper()
	return benchStoreWith(b, stripes, store.Config{})
}

// benchStoreWith is benchStore with cfg's options on (the end-to-end
// integrity layer, a journal); it sets the code, sector size and
// stripe count itself.
func benchStoreWith(b *testing.B, stripes int, cfg store.Config) *store.Store {
	b.Helper()
	c := benchCode(b, core.Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	sector := benchStripeBytes / (c.N() * c.R())
	sector -= sector % c.Field().SymbolBytes()
	cfg.Code, cfg.SectorSize, cfg.Stripes = c, sector, stripes
	s, err := store.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	buf := make([]byte, sector)
	rng := rand.New(rand.NewSource(9))
	for blk := 0; blk < s.Blocks(); blk++ {
		rng.Read(buf)
		if err := s.WriteBlock(benchCtx, blk, buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(benchCtx); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreWriteSeq: sequential volume fill — full-stripe encodes
// plus device writes. With journal=true every stripe's write-back is
// journaled: its intent, one digest per block, is appended and fsynced
// to a file in the benchmark's temporary directory first.
func BenchmarkStoreWriteSeq(b *testing.B) {
	for _, journaled := range []bool{false, true} {
		b.Run(fmt.Sprintf("journal=%v", journaled), func(b *testing.B) {
			var cfg store.Config
			if journaled {
				j, err := journal.Open(filepath.Join(b.TempDir(), "journal.wal"))
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { j.Close() })
				cfg.Journal = j
			}
			s := benchStoreWith(b, 4, cfg)
			buf := make([]byte, s.BlockSize())
			rand.New(rand.NewSource(10)).Read(buf)
			b.SetBytes(int64(s.Blocks() * s.BlockSize()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for blk := 0; blk < s.Blocks(); blk++ {
					if err := s.WriteBlock(benchCtx, blk, buf); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Flush(benchCtx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterWriteBack: full stripes written over 8 loopback device
// servers by one writer, or by eight on disjoint stripes, each writer
// flushing the stripes it fills, on devices without added latency and
// with 200 µs per call. One op writes every block of the volume and
// flushes; subflushes/op counts stripes evicted half-filled and written
// back by read–modify–write.
func BenchmarkClusterWriteBack(b *testing.B) {
	code := benchCode(b, core.Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}})
	const sector, stripes = 4096, 64
	for _, latUS := range []int{0, 200} {
		for _, writers := range []int{1, 8} {
			b.Run(fmt.Sprintf("latency_us=%d/writers=%d", latUS, writers), func(b *testing.B) {
				v := benchCluster(b, code, stripes, sector, latUS, false)
				buf := make([]byte, sector)
				per := v.Blocks() / writers
				b.SetBytes(int64(v.Blocks() * sector))
				before := v.Store().Stats().SubStripeFlushes
				b.ResetTimer()
				for range b.N {
					var wg sync.WaitGroup
					for w := range writers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for blk := w * per; blk < (w+1)*per; blk++ {
								if err := v.WriteBlock(benchCtx, blk, buf); err != nil {
									b.Error(err)
									return
								}
							}
						}()
					}
					wg.Wait()
					if err := v.Flush(benchCtx); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(v.Store().Stats().SubStripeFlushes-before)/float64(b.N), "subflushes/op")
			})
		}
	}
}

// benchCluster opens a volume over n loopback device servers, each a
// MemDevice answering every call latUS µs late, hedging client reads
// when hedge is set.
func benchCluster(b *testing.B, code *core.Code, stripes, sector, latUS int, hedge bool) *cluster.Volume {
	var servers []cluster.Server
	for i := range code.N() {
		var d store.Device = store.NewMemDevice(stripes*code.R(), sector)
		if latUS > 0 {
			d = store.NewLatencyDeviceProfile(d, store.LatencyProfile{Latency: time.Duration(latUS) * time.Microsecond})
		}
		hs := devtest.NewServer(b, store.NewDeviceServer(d))
		servers = append(servers, cluster.Server{Name: fmt.Sprintf("s%d", i), URL: hs.URL})
	}
	cfg := cluster.Config{
		Fleet: &cluster.Fleet{Servers: servers}, Code: code, SectorSize: sector, Stripes: stripes,
		Monitor: cluster.MonitorConfig{Interval: time.Hour},
	}
	if hedge {
		cfg.Hedge = &cluster.HedgeConfig{}
	}
	v, err := cluster.Open(benchCtx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { v.Close() })
	return v
}

// BenchmarkClusterRead: a healthy read of one of column 0's blocks over
// 8 loopback device servers, without and with hedging. The column's
// tracker is warmed with 64 reads first, so that every hedged read's
// primary runs on the store's I/O helpers and, answering inside the
// hedge delay, serves the read.
func BenchmarkClusterRead(b *testing.B) {
	code := benchCode(b, core.Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}})
	const sector, stripes = 4096, 16
	var blocks []int
	for stripe := range stripes {
		for ord, cell := range code.DataCells() {
			if cell.Col == 0 {
				blocks = append(blocks, stripe*len(code.DataCells())+ord)
			}
		}
	}
	for _, hedge := range []bool{false, true} {
		b.Run(fmt.Sprintf("hedge=%t/latency_us=0", hedge), func(b *testing.B) {
			v := benchCluster(b, code, stripes, sector, 0, hedge)
			buf := make([]byte, sector)
			for blk := range v.Blocks() {
				if err := v.WriteBlock(benchCtx, blk, buf); err != nil {
					b.Fatal(err)
				}
			}
			if err := v.Flush(benchCtx); err != nil {
				b.Fatal(err)
			}
			read := func(i int) {
				if err := v.Store().ReadBlockInto(benchCtx, blocks[i%len(blocks)], buf); err != nil {
					b.Fatal(err)
				}
			}
			for i := range 64 {
				read(i)
			}
			before := v.Store().Stats().HedgesLaunched
			b.SetBytes(sector)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				read(i)
			}
			b.StopTimer()
			b.ReportMetric(float64(v.Store().Stats().HedgesLaunched-before)/float64(b.N), "hedges/op")
		})
	}
}

// BenchmarkClusterDegradedRead: one block on a dead column read over 8
// loopback device servers, on devices without added latency and with
// 200 µs per call. With a column known down, each read is row-local: one
// wave of n−m sector reads from the block's row and a row solve (§4.3).
func BenchmarkClusterDegradedRead(b *testing.B) {
	code := benchCode(b, core.Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}})
	const sector, stripes, dead = 4096, 16, 0
	for _, latUS := range []int{0, 200} {
		b.Run(fmt.Sprintf("latency_us=%d", latUS), func(b *testing.B) {
			v := benchCluster(b, code, stripes, sector, latUS, false)
			buf := make([]byte, sector)
			for blk := range v.Blocks() {
				if err := v.WriteBlock(benchCtx, blk, buf); err != nil {
					b.Fatal(err)
				}
			}
			if err := v.Flush(benchCtx); err != nil {
				b.Fatal(err)
			}
			if err := v.Store().FailDevice(dead); err != nil {
				b.Fatal(err)
			}
			var lost []int
			for ord, cell := range code.DataCells() {
				if cell.Col == dead {
					for stripe := range stripes {
						lost = append(lost, stripe*len(code.DataCells())+ord)
					}
				}
			}
			before := v.Store().Stats().DegradedReads
			b.SetBytes(sector)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if err := v.Store().ReadBlockInto(benchCtx, lost[i%len(lost)], buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := v.Store().Stats().DegradedReads - before; got != uint64(b.N) {
				b.Fatalf("%d reads, %d degraded", b.N, got)
			}
		})
	}
}

// BenchmarkStoreSubStripeWrite: a single-block overwrite flushed through
// the §5.2 incremental-parity read–modify–write path — without and with
// the integrity layer, which verifies every cell the update reads and
// digests every cell it writes.
func BenchmarkStoreSubStripeWrite(b *testing.B) {
	for _, integ := range []*store.IntegrityOptions{nil, {Epoch: 1}} {
		b.Run(fmt.Sprintf("integrity=%t", integ != nil), func(b *testing.B) {
			s := benchStoreWith(b, 4, store.Config{Integrity: integ})
			buf := make([]byte, s.BlockSize())
			rand.New(rand.NewSource(11)).Read(buf)
			b.SetBytes(int64(s.BlockSize()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.WriteBlock(benchCtx, i%s.Blocks(), buf); err != nil {
					b.Fatal(err)
				}
				if err := s.Flush(benchCtx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreRead: healthy vs degraded block reads (1 and m failed
// devices) — the degraded cases pay an on-the-fly stripe repair.
func BenchmarkStoreRead(b *testing.B) {
	for _, fails := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("failed=%d", fails), func(b *testing.B) {
			s := benchStore(b, 4)
			for dev := 0; dev < fails; dev++ {
				if err := s.FailDevice(dev); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(s.BlockSize()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err := s.ReadBlock(benchCtx, i%s.Blocks())
				if err != nil {
					b.Fatal(err)
				}
				s.ReleaseBlock(buf)
			}
		})
	}
}

// BenchmarkStoreReadConcurrent: parallel reads over the whole volume —
// healthy reads on different stripes ride the sharded lock table
// instead of serialising on one mutex, so this scales with cores.
func BenchmarkStoreReadConcurrent(b *testing.B) {
	s := benchStore(b, 8)
	b.SetBytes(int64(s.BlockSize()))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			i++
			buf, err := s.ReadBlock(benchCtx, i%s.Blocks())
			if err != nil {
				b.Error(err)
				return
			}
			s.ReleaseBlock(buf)
		}
	})
}

// benchDegradedStore returns a filled store with devices 0 and 1 failed,
// and the blocks stored on device 0 — one per (stripe, row), stripe-major.
func benchDegradedStore(b *testing.B, stripes int) (*store.Store, []int) {
	b.Helper()
	s := benchStore(b, stripes)
	for _, dev := range []int{0, 1} {
		if err := s.FailDevice(dev); err != nil {
			b.Fatal(err)
		}
	}
	var lost []int
	cells := s.Code().DataCells()
	for blk := 0; blk < s.Blocks(); blk++ {
		if cells[blk%len(cells)].Col == 0 {
			lost = append(lost, blk)
		}
	}
	return s, lost
}

// benchBreakRow puts a sector error on a live device in the row of the
// given block, so that with two devices down the row holds m+1 losses and
// a degraded read of the block re-plans over the stripe.
func benchBreakRow(b *testing.B, s *store.Store, blk int) {
	b.Helper()
	cells := s.Code().DataCells()
	_, _, r, _ := s.Geometry()
	sector := blk/len(cells)*r + cells[blk%len(cells)].Row
	if err := s.InjectSectorError(2, sector); err != nil {
		b.Fatal(err)
	}
}

// benchReadBlock is one timed read of the degraded-read benchmarks.
func benchReadBlock(b *testing.B, s *store.Store, blk int, dst []byte) {
	if err := s.ReadBlockInto(benchCtx, blk, dst); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreDegradedReadMiss: what a degraded read costs with two
// devices down, cycling over 16 stripes. row-local: the block's row holds
// no other loss, so n−m sector reads and one row solve decide it (§4.3).
// replanned: its row holds a third loss — re-injected, untimed, before
// every read, since the repair each read queues heals it — so the read
// re-plans, loads what the whole-stripe peel pruned to the block reads,
// and decodes the block.
func BenchmarkStoreDegradedReadMiss(b *testing.B) {
	b.Run("row-local", func(b *testing.B) {
		s, lost := benchDegradedStore(b, 16)
		dst := make([]byte, s.BlockSize())
		b.SetBytes(int64(s.BlockSize()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchReadBlock(b, s, lost[i%len(lost)], dst)
		}
		b.StopTimer()
		if st := s.Stats(); st.DegradedReads != uint64(b.N) || st.DegradedReadFallbacks != 0 {
			b.Fatalf("%d reads: %d degraded, %d fallbacks", b.N, st.DegradedReads, st.DegradedReadFallbacks)
		}
	})
	b.Run("replanned", func(b *testing.B) {
		s, lost := benchDegradedStore(b, 16)
		dst := make([]byte, s.BlockSize())
		b.SetBytes(int64(s.BlockSize()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.Quiesce()
			benchBreakRow(b, s, lost[i%len(lost)])
			b.StartTimer()
			benchReadBlock(b, s, lost[i%len(lost)], dst)
		}
		b.StopTimer()
		if st := s.Stats(); st.DegradedReads != uint64(b.N) || st.DegradedReadFallbacks != 0 {
			b.Fatalf("%d reads: %d degraded, %d fallbacks", b.N, st.DegradedReads, st.DegradedReadFallbacks)
		}
	})
}

// BenchmarkStoreReadBlockSteady: the healthy per-block read fast path in
// steady state — one vectored device read into a caller-owned buffer.
// With the zero-copy stripe memory this path performs no heap
// allocations at all (the allocs/op column is the regression guard; see
// TestAllocRegressionGuard).
func BenchmarkStoreReadBlockSteady(b *testing.B) {
	s := benchStore(b, 4)
	dst := make([]byte, s.BlockSize())
	b.SetBytes(int64(s.BlockSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ReadBlockInto(benchCtx, i%s.Blocks(), dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreWriteBlockSteady: sequential full-stripe writes in
// steady state — blocks land in pooled slab-backed stripe buffers, full
// buffers flush with an in-place encode and contiguous per-device
// writes. Per-block allocations amortise to zero: the remaining
// per-flush bookkeeping (journal intent, cell partitions) is shared by
// a whole stripe's worth of blocks.
func BenchmarkStoreWriteBlockSteady(b *testing.B) {
	s := benchStore(b, 4)
	buf := make([]byte, s.BlockSize())
	rand.New(rand.NewSource(12)).Read(buf)
	b.SetBytes(int64(s.BlockSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteBlock(benchCtx, i%s.Blocks(), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Flush(benchCtx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreScrubRepair: one scrub pass plus repair convergence over
// a volume with one latent error per stripe.
func BenchmarkStoreScrubRepair(b *testing.B) {
	s := benchStore(b, 4)
	_, stripes, r, _ := s.Geometry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for stripe := 0; stripe < stripes; stripe++ {
			if err := s.InjectSectorError(stripe%3, stripe*r); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := s.Scrub(benchCtx); err != nil {
			b.Fatal(err)
		}
		s.Quiesce()
	}
}

// BenchmarkStoreScrubClean: one scrub pass over a clean volume — every
// stripe loaded and parity-checked by Verify, nothing to repair.
func BenchmarkStoreScrubClean(b *testing.B) {
	s := benchStore(b, 4)
	_, stripes, _, _ := s.Geometry()
	b.SetBytes(int64(stripes * s.Code().N() * s.Code().R() * s.BlockSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Scrub(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		if rep.StripesChecked != stripes || rep.StripesDamaged+rep.StripesInconsistent != 0 {
			b.Fatalf("scrub of a clean volume: %+v", rep)
		}
	}
}
