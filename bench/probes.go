package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"stair/internal/core"
	"stair/internal/gf"
	"stair/internal/rs"
	"stair/internal/sd"
	"stair/internal/store"
	"stair/internal/store/integrity"
	"stair/internal/store/journal"
	"stair/internal/store/mem"
)

// probe is one isolated layer measurement, run as an extra pass of every
// measured round of a traced run and reduced with the same quiet-floor
// rule as the phases. pass does fixed work at the workload's geometry
// and returns how long the measured part took; value turns the
// quiet floor of those times (ns) into the metric.
type probe struct {
	metric string
	pass   func() float64
	value  func(ns float64) float64
	close  func() error
}

const (
	// probeBytes is the region work of one gf / integrity probe pass:
	// small enough that the working set stays in L2 (4 MiB), large enough
	// that a pass takes a few hundred microseconds.
	probeBytes = 2 << 20
	mib        = 1 << 20
)

func gbps(bytes int) func(float64) float64 {
	return func(ns float64) float64 { return float64(bytes) / ns }
}
func mibps(bytes int) func(float64) float64 {
	return func(ns float64) float64 { return float64(bytes) / mib / (ns / 1e9) }
}
func perCall(calls int, unitNS float64) func(float64) float64 {
	return func(ns float64) float64 { return ns / float64(calls) / unitNS }
}

// timed runs f and returns its wall time in ns.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0))
}

func closeProbes(ps []probe) {
	for _, p := range ps {
		if p.close != nil {
			p.close()
		}
	}
}

// newProbes builds the layer probes at the workload's geometry. The
// probes touch only public functions of each layer.
func newProbes(w *workload, scratch string) (ps []probe, err error) {
	defer func() {
		if err != nil {
			closeProbes(ps)
		}
	}()
	size := w.sectorSize
	regions := max(probeBytes/size, 8)
	fill := func(b []byte, seed uint64) []byte { fillContent(b, seed, 0, 0); return b }
	flat := fill(make([]byte, (regions+4)*size), 1)
	region := func(i int) []byte { return flat[i*size:][:size] }
	f := gf.Get(8)

	// internal/gf: the region kernels behind every encode and decode.
	ps = append(ps, probe{metric: "gf.multxor_gbps", value: gbps(regions * size), pass: func() float64 {
		return timed(func() {
			for i := 0; i < regions; i++ {
				f.MultXOR(region(regions), region(i), uint32(2+i%250))
			}
		})
	}})
	dsts := [][]byte{region(regions), region(regions + 1), region(regions + 2), region(regions + 3)}
	coeffs := []uint32{3, 29, 76, 143}
	ps = append(ps, probe{metric: "gf.multxor_fused4_gbps", value: gbps(regions * size * len(dsts)), pass: func() float64 {
		return timed(func() {
			for i := 0; i < regions; i++ {
				f.MultXORFused(dsts, region(i), coeffs)
			}
		})
	}})
	ps = append(ps, probe{metric: "gf.xor_gbps", value: gbps(regions * size), pass: func() float64 {
		return timed(func() {
			for i := 0; i < regions; i++ {
				gf.XORRegion(region(regions), region(i))
			}
		})
	}})
	ps = append(ps, probe{metric: "gf.init_ms", value: perCall(1, 1e6), pass: func() float64 {
		return timed(func() {
			if _, ferr := gf.NewField(8); ferr != nil {
				panic(ferr)
			}
		})
	}})

	// internal/core: encode, the two decode shapes of §6.2.2, the §5.2
	// incremental update, and the cold costs (construction, first use of
	// an erasure pattern).
	code, err := core.New(codeConfig)
	if err != nil {
		return ps, err
	}
	st, err := code.NewStripe(size)
	if err != nil {
		return ps, err
	}
	cells := code.DataCells()
	for i, c := range cells {
		fillContent(st.Sector(c.Col, c.Row), 2, i, 0)
	}
	if err := code.Encode(st); err != nil {
		return ps, err
	}
	stripeBytes := code.SlabSize(size)
	reps := max(1, (1<<20)/stripeBytes) // ≥ 1 MiB of stripe per pass
	var devLost, worstLost []core.Cell
	for col := 0; col < codeM; col++ {
		for row := 0; row < codeR; row++ {
			devLost = append(devLost, core.Cell{Col: col, Row: row})
		}
	}
	worstLost = append(worstLost, devLost...)
	for l, el := range code.E() {
		for h := 0; h < el; h++ {
			worstLost = append(worstLost, core.Cell{Col: codeM + l, Row: codeR - 1 - h})
		}
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	ps = append(ps, probe{metric: "core.encode_mibps", value: mibps(reps * stripeBytes), pass: func() float64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				must(code.Encode(st))
			}
		})
	}})
	ps = append(ps, probe{metric: "core.decode_mdev_mibps", value: mibps(reps * stripeBytes), pass: func() float64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				must(code.Repair(st, devLost))
			}
		})
	}})
	ps = append(ps, probe{metric: "core.decode_sector_mibps", value: mibps(reps * stripeBytes), pass: func() float64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				must(code.Repair(st, worstLost))
			}
		})
	}})
	ps = append(ps, probe{metric: "core.update_us", value: perCall(len(cells), 1e3), pass: func() float64 {
		return timed(func() {
			for i, c := range cells {
				must(code.Update(st, c, region(i%regions)))
			}
		})
	}})
	penalty := code.MeanUpdatePenalty()
	ps = append(ps, probe{metric: "core.update_penalty", value: func(float64) float64 { return penalty },
		pass: func() float64 { return 0 }})
	// A fresh Code has cold plan caches: its first Repair of a pattern
	// compiles the decode plan, the second reuses it. The stripe is as
	// small as the field allows, so the difference is the compile.
	var fresh *core.Code
	ps = append(ps, probe{metric: "core.new_ms", value: perCall(1, 1e6), pass: func() float64 {
		return timed(func() {
			var nerr error
			fresh, nerr = core.New(codeConfig)
			must(nerr)
		})
	}})
	small, err := code.NewStripe(integrity.RecordSize)
	if err != nil {
		return ps, err
	}
	ps = append(ps, probe{metric: "core.decode_plan_cold_us", value: perCall(1, 1e3), pass: func() float64 {
		cold := timed(func() { must(fresh.Repair(small, worstLost)) })
		warm := timed(func() { must(fresh.Repair(small, worstLost)) })
		return max(cold-warm, 1)
	}})

	// Baselines of the paper's §6 comparison: Reed-Solomon with m parity
	// chunks (no sector tolerance) and the SD construction with the same
	// m and s, both over the same stripe shape.
	rsCode, err := rs.New(f, codeN, codeN-codeM, rs.Cauchy)
	if err != nil {
		return ps, err
	}
	rsData, rsParity := make([][]byte, codeN-codeM), make([][]byte, codeM)
	ps = append(ps, probe{metric: "rs.encode_mibps", value: mibps(reps * stripeBytes), pass: func() float64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				for row := 0; row < codeR; row++ {
					for col := range rsData {
						rsData[col] = st.Sector(col, row)
					}
					for p := range rsParity {
						rsParity[p] = st.Sector(codeN-codeM+p, row)
					}
					must(rsCode.EncodeRegions(rsData, rsParity))
				}
			}
		})
	}})
	sdCode, err := sd.New(sd.Config{N: codeN, R: codeR, M: codeM, S: 4})
	if err != nil {
		return ps, err
	}
	sdCells := make([][]byte, codeN*codeR)
	for i := range sdCells {
		sdCells[i] = fill(make([]byte, size), uint64(i))
	}
	ps = append(ps, probe{metric: "sd.encode_mibps", value: mibps(reps * stripeBytes), pass: func() float64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				must(sdCode.Encode(sdCells))
			}
		})
	}})

	// internal/store/mem: the pool round trip under every stripe load.
	const poolCalls = 2048
	ps = append(ps, probe{metric: "mem.acquire_release_ns", value: perCall(poolCalls, 1), pass: func() float64 {
		return timed(func() {
			for i := 0; i < poolCalls; i++ {
				mem.Release(mem.Acquire(stripeBytes))
			}
		})
	}})

	// internal/store/integrity: the digest every sector write stages and
	// every verified read recomputes.
	ps = append(ps, probe{metric: "integrity.sum_gbps", value: gbps(regions * size), pass: func() float64 {
		return timed(func() {
			for i := 0; i < regions; i++ {
				integrity.Sum(1, 0, i, region(i))
			}
		})
	}})
	mgr, err := integrity.NewManager(1, regions, size, 1)
	if err != nil {
		return ps, err
	}
	for i := 0; i < regions; i++ {
		mgr.Update(0, i, region(i))
	}
	ps = append(ps, probe{metric: "integrity.verify_ns", value: perCall(regions, 1), pass: func() float64 {
		return timed(func() {
			for i := 0; i < regions; i++ {
				if mgr.Verify(0, i, region(i)) != integrity.OK {
					panic("integrity probe: verify failed")
				}
			}
		})
	}})

	// internal/store/journal: one intent made durable, then committed —
	// what every journaled flush pays before its first device write.
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return ps, err
	}
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return ps, err
	}
	jrn, err := journal.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		os.RemoveAll(dir)
		return ps, err
	}
	const appends = 4
	ps = append(ps, probe{metric: "journal.append_commit_us", value: perCall(appends, 1e3),
		close: func() error { return errors.Join(jrn.Close(), os.RemoveAll(dir)) },
		pass: func() float64 {
			ns := timed(func() {
				for i := 0; i < appends; i++ {
					seq, aerr := jrn.Append(i, []int{i}, []uint64{uint64(i)}, []uint32{uint32(i)})
					must(aerr)
					must(jrn.Commit(seq))
				}
			})
			must(jrn.Truncate())
			return ns
		}})

	// netdev: one single-sector read over loopback HTTP.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ps, err
	}
	srv := &http.Server{Handler: store.NewDeviceServer(store.NewMemDevice(regions, size))}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{}}
	stopServer := func() error {
		client.CloseIdleConnections()
		err := srv.Close()
		<-served
		return err
	}
	nd, err := store.DialNetDevice(context.Background(), "http://"+ln.Addr().String(), client)
	if err != nil {
		return ps, errors.Join(err, stopServer())
	}
	const trips = 8
	vec := [][]byte{make([]byte, size)}
	ps = append(ps, probe{metric: "netdev.roundtrip_us", value: perCall(trips, 1e3),
		close: func() error { return errors.Join(nd.Close(), stopServer()) },
		pass: func() float64 {
			return timed(func() {
				for i := 0; i < trips; i++ {
					must(nd.ReadSectors(context.Background(), i%regions, vec))
				}
			})
		}})

	return ps, nil
}
