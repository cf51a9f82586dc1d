package main

import (
	"runtime"
	"sort"
	"time"

	"stair/internal/cluster"
)

// metricDef names one metric of BENCHMARK.json; the smoke test checks the
// two lists against that file.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"write_seq_mibps", "MiB/s"},
	{"update_us", "us"},
	{"read_us", "us"},
	{"degraded_read_us", "us"},
	{"rebuild_mibps", "MiB/s"},
	{"scrub_mibps", "MiB/s"},
	{"dev_write_amp", "ratio"},
	{"allocs_per_op", "count"},
	{"space_overhead", "ratio"},
}

var perLayer = []metricDef{
	{"gf.multxor_gbps", "GB/s"},
	{"gf.multxor_fused4_gbps", "GB/s"},
	{"gf.xor_gbps", "GB/s"},
	{"gf.init_ms", "ms"},
	{"core.encode_mibps", "MiB/s"},
	{"core.decode_mdev_mibps", "MiB/s"},
	{"core.decode_sector_mibps", "MiB/s"},
	{"core.update_us", "us"},
	{"core.update_penalty", "count"},
	{"core.new_ms", "ms"},
	{"core.decode_plan_cold_us", "us"},
	{"rs.encode_mibps", "MiB/s"},
	{"sd.encode_mibps", "MiB/s"},
	{"store.write_block_ns", "ns"},
	{"store.flush_full_us", "us"},
	{"store.flush_rmw_us", "us"},
	{"store.read_block_ns", "ns"},
	{"store.read_degraded_us", "us"},
	{"store.rebuild_stripe_us", "us"},
	{"store.scrub_stripe_us", "us"},
	{"store.open_ms", "ms"},
	{"store.self_share.update", "ratio"},
	{"store.self_share.write_seq", "ratio"},
	{"store.self_share.degraded_read", "ratio"},
	{"store.allocs_per_update", "count"},
	{"store.allocs_per_read", "count"},
	{"store.allocs_per_degraded_read", "count"},
	{"store.full_flushes", "count"},
	{"store.sub_flushes", "count"},
	{"store.degraded_cache_hit_ratio", "ratio"},
	{"store.verified_sectors_per_read", "count"},
	{"store.repaired_sectors", "count"},
	{"store.journaled_flushes", "count"},
	{"mem.acquire_release_ns", "ns"},
	{"integrity.sum_gbps", "GB/s"},
	{"integrity.verify_ns", "ns"},
	{"journal.append_commit_us", "us"},
	{"journal.bytes_per_flush", "B"},
	{"device.read_calls_per_op", "count"},
	{"device.write_calls_per_op", "count"},
	{"device.sectors_per_call", "count"},
	{"device.read_bytes_per_update_byte", "ratio"},
	{"device.read_busy_share", "ratio"},
	{"device.write_busy_share", "ratio"},
	{"device.sync_calls", "count"},
	{"device.scratch_flats", "count"},
	{"netdev.roundtrip_us", "us"},
	{"cluster.open_ms", "ms"},
	{"cluster.coalesce_merge_ratio", "ratio"},
	{"cluster.hedges_launched", "count"},
	{"cluster.hedge_wins", "count"},
	{"tail.update_p99_us", "us"},
	{"tail.read_p99_us", "us"},
	{"tail.degraded_read_p99_us", "us"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_total_ms", "ms"},
	{"go.heap_peak_mib", "MiB"},
	{"go.cpu_s_per_user_gib", "s/GiB"},
	{"setup.first_s", "s"},
	{"bench.rounds", "count"},
	{"bench.noise_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// passTimes collects a phase's pass times over the measured rounds that
// match the filter (nil: all).
func (r *runner) passTimes(ph phase, keep func(*roundRec) bool) []float64 {
	var out []float64
	for i := range r.rounds {
		rr := &r.rounds[i]
		if rr.pass[ph].ran && (keep == nil || keep(rr)) {
			out = append(out, rr.pass[ph].ns)
		}
	}
	return out
}

// countedRounds is the prefix of the measured rounds the exact counts are
// taken over: a whole number of update cycles (each hits every in-stripe
// position equally often), so the counts do not depend on how many
// rounds the clock allowed. Runs shorter than one cycle use all.
func (r *runner) countedRounds() []roundRec {
	cycle := max(1, dataPerStripe/r.w.updates)
	if n := len(r.rounds) / cycle * cycle; n > 0 {
		return r.rounds[:n]
	}
	return r.rounds
}

// opsPerRound is the number of block ops of one round's four I/O phases.
func (w *workload) opsPerRound() int {
	return w.seqStripes*dataPerStripe + w.updates + w.reads + w.degradedReads
}

// endToEndMetrics reduces an untraced run to the ten end-to-end metrics.
func (r *runner) endToEndMetrics() map[string]float64 {
	w := r.w
	bs := float64(w.sectorSize)
	qd := func(ph phase) float64 { return quietFloor(r.passTimes(ph, nil)) }
	perSec := func(bytes, ns float64) float64 { return bytes / mib / (ns / 1e9) }

	var writeBytes, userBytes, mallocs, ops float64
	for _, rr := range r.countedRounds() {
		writeBytes += float64(rr.pass[phUpdate].dev[dcWriteBytes])
		userBytes += float64(w.updates) * bs
		for _, ph := range ioPhases {
			mallocs += float64(rr.pass[ph].mallocs)
		}
		ops += float64(w.opsPerRound())
	}
	return map[string]float64{
		"setup_s":          qd(phSetup) / 1e9,
		"write_seq_mibps":  perSec(float64(w.seqStripes*dataPerStripe)*bs, qd(phWriteSeq)),
		"update_us":        qd(phUpdate) / float64(w.updates) / 1e3,
		"read_us":          qd(phRead) / float64(w.reads) / 1e3,
		"degraded_read_us": qd(phDegradedRead) / float64(w.degradedReads) / 1e3,
		"rebuild_mibps":    perSec(float64(codeM*w.stripes*codeR)*bs, qd(phRebuild)),
		"scrub_mibps":      perSec(float64(codeN*w.stripes*codeR)*bs, qd(phScrub)),
		"dev_write_amp":    writeBytes / userBytes,
		"allocs_per_op":    mallocs / ops,
		"space_overhead":   float64(r.final.deviceBytes) / (float64(w.blocks()) * bs),
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerMetrics reduces a traced run to the per-layer metrics. Metrics
// of a layer the workload does not have (journal off durable-file,
// cluster off cluster-http) read 0; one the run has no samples for is
// NaN, which runWorkload refuses to report.
func (r *runner) perLayerMetrics() (m map[string]float64, sp *spanStats) {
	w := r.w
	m = make(map[string]float64, len(perLayer))
	traced := func(rr *roundRec) bool { return rr.traced }
	untraced := func(rr *roundRec) bool { return !rr.traced }

	// Layer probes.
	for i, p := range r.probes {
		var ns []float64
		for _, rr := range r.rounds {
			ns = append(ns, rr.probes[i])
		}
		m[p.metric] = p.value(quietFloor(ns))
	}

	// Spans of the traced rounds, reduced per round and then by the
	// quiet floor over rounds, like every other time.
	sp = r.spans
	m["store.write_block_ns"] = quietFloor(sp.writeBlockNS)
	m["store.flush_full_us"] = quietFloor(sp.flushFullNS) / 1e3
	m["store.flush_rmw_us"] = quietFloor(sp.flushRMWNS) / 1e3
	m["store.read_block_ns"] = quietFloor(sp.readNS)
	m["store.read_degraded_us"] = quietFloor(sp.degradedNS) / 1e3
	m["store.self_share.update"] = median(sp.selfShare[phUpdate])
	m["store.self_share.write_seq"] = median(sp.selfShare[phWriteSeq])
	m["store.self_share.degraded_read"] = median(sp.selfShare[phDegradedRead])
	m["tail.update_p99_us"] = quantile(sp.updateOps, 0.99) / 1e3
	m["tail.read_p99_us"] = quantile(sp.readOps, 0.99) / 1e3
	m["tail.degraded_read_p99_us"] = quantile(sp.degradedOps, 0.99) / 1e3

	// Over all rounds: a sweep's few spans do not show in its time, and a
	// run of a few rounds has its only failure episode on a recorded one.
	m["store.rebuild_stripe_us"] = quietFloor(r.passTimes(phRebuild, nil)) / float64(w.stripes) / 1e3
	m["store.scrub_stripe_us"] = quietFloor(r.passTimes(phScrub, nil)) / float64(w.stripes) / 1e3
	m["trace.overhead_ratio"] = quietFloor(r.passTimes(phUpdate, traced)) / quietFloor(r.passTimes(phUpdate, untraced))

	// Set-up steps. On cluster-http the store opens inside cluster.Open;
	// what is left after the dials is placement plus store.Open.
	var openMS, clusterMS []float64
	for _, rr := range r.rounds {
		if !rr.pass[phSetup].ran {
			continue
		}
		openMS = append(openMS, float64(rr.open-rr.dial)/1e6)
		if w.backend == backendCluster {
			clusterMS = append(clusterMS, float64(rr.open)/1e6)
		}
	}
	m["store.open_ms"] = quietFloor(openMS)
	m["cluster.open_ms"] = 0
	if len(clusterMS) > 0 {
		m["cluster.open_ms"] = quietFloor(clusterMS)
	}
	m["setup.first_s"] = r.setupNS / 1e9

	// Exact counts, over whole update cycles.
	var (
		io, upd     devSnapshot
		st, readSt  storeCounts
		journal     int64
		allocs      [numPhases]float64
		ops, rounds float64
	)
	for _, rr := range r.countedRounds() {
		for _, ph := range ioPhases {
			io = io.add(rr.pass[ph].dev)
			allocs[ph] += float64(rr.pass[ph].mallocs)
		}
		for ph := range rr.pass {
			st = st.add(rr.pass[ph].st)
		}
		upd = upd.add(rr.pass[phUpdate].dev)
		readSt = readSt.add(rr.pass[phRead].st)
		journal += rr.pass[phUpdate].journal
		ops += float64(w.opsPerRound())
		rounds++
	}
	m["store.allocs_per_update"] = allocs[phUpdate] / (rounds * float64(w.updates))
	m["store.allocs_per_read"] = allocs[phRead] / (rounds * float64(w.reads))
	m["store.allocs_per_degraded_read"] = allocs[phDegradedRead] / (rounds * float64(w.degradedReads))
	m["store.full_flushes"] = float64(st[scFullFlushes])
	m["store.sub_flushes"] = float64(st[scSubFlushes])
	m["store.degraded_cache_hit_ratio"] = ratio(float64(st[scCacheHits]), float64(st[scDegradedReads]))
	m["store.verified_sectors_per_read"] = ratio(float64(readSt[scVerified]), float64(readSt[scReads]))
	m["store.repaired_sectors"] = float64(st[scRepairedSectors])
	m["store.journaled_flushes"] = float64(st[scJournaled])
	m["journal.bytes_per_flush"] = ratio(float64(journal), rounds*float64(w.updates))
	m["device.read_calls_per_op"] = float64(io[dcReadCalls]) / ops
	m["device.write_calls_per_op"] = float64(io[dcWriteCalls]) / ops
	m["device.sectors_per_call"] = ratio(float64(io[dcReadSectors]+io[dcWriteSectors]), float64(io[dcReadCalls]+io[dcWriteCalls]))
	m["device.read_bytes_per_update_byte"] = float64(upd[dcReadBytes]) / (rounds * float64(w.updates*w.sectorSize))

	m["device.read_busy_share"] = ratio(sp.busyRead, sp.busyNS)
	m["device.write_busy_share"] = ratio(sp.busyWrite, sp.busyNS)
	m["device.sync_calls"] = float64(r.final.dev[dcSyncCalls])
	m["device.scratch_flats"] = float64(r.final.scratchFlats)

	cs := r.final.cluster
	m["cluster.coalesce_merge_ratio"] = ratio(float64(cs.Coalesce.MergedReads+cs.Coalesce.MergedWrites), float64(cs.Coalesce.Reads+cs.Coalesce.Writes))
	m["cluster.hedges_launched"] = float64(cs.HedgesLaunched)
	m["cluster.hedge_wins"] = float64(cs.HedgeWins)

	// Run health.
	m["go.gc_cycles"] = float64(r.final.mem.NumGC - r.gcStart.NumGC)
	m["go.gc_pause_total_ms"] = float64(r.final.mem.PauseTotalNs-r.gcStart.PauseTotalNs) / 1e6
	m["go.heap_peak_mib"] = float64(r.heapPeak) / mib
	userGiB := float64(len(r.rounds)) * float64(w.opsPerRound()) * float64(w.sectorSize) / (1 << 30)
	m["go.cpu_s_per_user_gib"] = r.final.cpu.Seconds() / userGiB
	m["bench.rounds"] = float64(len(r.rounds))
	var noise []float64
	for ph := phase(0); ph < numPhases; ph++ {
		if t := r.passTimes(ph, untraced); len(t) > 0 {
			noise = append(noise, median(t)/quietFloor(t))
		}
	}
	m["bench.noise_ratio"] = median(noise)
	return m, sp
}

// spanStats is the span-derived part of the per-layer metrics: one value
// per traced round for the quiet-floor ones, pooled ops for the tails.
type spanStats struct {
	writeBlockNS, flushFullNS, flushRMWNS []float64
	readNS, degradedNS                    []float64
	// selfShare is the part of a phase's recorded time no device span
	// covers: what the layers above the devices (and, for ~1 %, the
	// benchmark's own loop) spend themselves.
	selfShare [numPhases][]float64
	// coverage is (exact self time of the store call spans + device time)
	// ÷ recorded update op time; the remainder is the benchmark's own loop.
	coverage []float64
	// busyRead and busyWrite add up, phase by phase, the device share of
	// the recorded time scaled to the pass time; busyNS is that pass time.
	busyRead, busyWrite, busyNS     float64
	updateOps, readOps, degradedOps []float64
}

// fold reduces one traced, measured round's spans. The passes of
// write_seq record every op that calls a device, so their device time is
// set against the whole pass; update and degraded_read record a sample
// of their ops in full, so theirs is set against the recorded ops.
func (out *spanStats) fold(spans []span) {
	self := selfTimes(spans)
	hasDevChild := make([]bool, len(spans))
	for _, s := range spans {
		if s.Kind >= spDevRead && s.Parent >= 0 {
			hasDevChild[s.Parent] = true
		}
	}
	type acc struct{ sum, n float64 }
	add := func(a *acc, d float64) { a.sum, a.n = a.sum+d, a.n+1 }
	mean := func(a acc, dst *[]float64) {
		if a.n > 0 {
			*dst = append(*dst, a.sum/a.n)
		}
	}
	var dev []span
	// Spans arrive grouped by pass; walk them one phase at a time.
	for i := 0; i < len(spans); {
		ph := spans[i].Phase
		var write, full, rmw, read acc
		var storeSelf, passNS, opNS float64
		dev = dev[:0]
		j := i
		for ; j < len(spans) && spans[j].Phase == ph; j++ {
			s, d := spans[j], float64(spans[j].End-spans[j].Start)
			if s.Kind != spPass && s.Parent >= 0 && spans[s.Parent].Kind == spPass {
				opNS += d // a top-level op of the pass
			}
			switch s.Kind {
			case spPass:
				passNS += d
			case spDevRead, spDevWrite, spDevSync:
				dev = append(dev, s)
			case spUpdate:
				out.updateOps = append(out.updateOps, d)
			case spWriteBlock:
				storeSelf += float64(self[j])
				if hasDevChild[j] {
					add(&full, d)
				} else {
					add(&write, d)
				}
			case spFlush:
				storeSelf += float64(self[j])
				add(&rmw, d)
			case spReadBlock:
				storeSelf += float64(self[j])
				add(&read, d)
				if ph == phRead {
					out.readOps = append(out.readOps, d)
				} else if ph == phDegradedRead {
					out.degradedOps = append(out.degradedOps, d)
				}
			default:
				storeSelf += float64(self[j])
			}
		}
		i = j
		switch ph {
		case phWriteSeq:
			mean(write, &out.writeBlockNS)
			mean(full, &out.flushFullNS)
			opNS = passNS
		case phUpdate:
			mean(rmw, &out.flushRMWNS)
		case phRead:
			mean(read, &out.readNS)
			continue
		case phDegradedRead:
			mean(read, &out.degradedNS)
		default:
			continue
		}
		if opNS == 0 {
			continue
		}
		// Device time is the union of the device intervals: hedge racers
		// and sibling reconstructions overlap.
		sort.Slice(dev, func(a, b int) bool { return dev[a].Start < dev[b].Start })
		var devNS, devRead, devWrite float64
		var end int64
		for _, s := range dev {
			if s.End <= end {
				continue
			}
			d := float64(s.End - max(s.Start, end))
			end = s.End
			devNS += d
			if s.Kind == spDevRead {
				devRead += d
			} else if s.Kind == spDevWrite {
				devWrite += d
			}
		}
		out.selfShare[ph] = append(out.selfShare[ph], (opNS-devNS)/opNS)
		out.busyRead += devRead / opNS * passNS
		out.busyWrite += devWrite / opNS * passNS
		out.busyNS += passNS
		if ph == phUpdate {
			out.coverage = append(out.coverage, (storeSelf+devNS)/opNS)
		}
	}
}

// finalState is what the run reads off the volume and the runtime when
// the measured rounds end, before the audit adds its own traffic.
type finalState struct {
	deviceBytes  int64
	scratchFlats uint64
	dev          devSnapshot
	cluster      cluster.Stats
	mem          runtime.MemStats
	cpu          time.Duration // CPU time of the measured rounds
}
