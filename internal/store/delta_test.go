package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"stair/internal/core"
	"stair/internal/store/journal"
)

// White-box tests of the delta read–modify–write path (flush.go): what
// it reads, that it leaves the devices byte-for-byte as the
// whole-stripe path does, and that every fault it can meet ends on the
// fallback with the right bytes.

// benchGeometry is the benchmark's code (bench/workloads.go); the delta
// path's 4.9-calls/25-sectors figures are for it.
var benchGeometry = core.Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}}

var smallGeometry = core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}}

// extent is one vectored read as a device saw it.
type extent struct{ start, n int }

// readLogDevice records the extent of every read.
type readLogDevice struct {
	*MemDevice
	mu    sync.Mutex
	reads []extent
}

func (d *readLogDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	d.mu.Lock()
	d.reads = append(d.reads, extent{start, len(bufs)})
	d.mu.Unlock()
	return d.MemDevice.ReadSectors(ctx, start, bufs)
}

func (d *readLogDevice) take() []extent {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.reads
	d.reads = nil
	return out
}

// deltaVolume is a filled store over read-logging MemDevices.
type deltaVolume struct {
	s    *Store
	devs []*readLogDevice
	want [][]byte // expected content per block
}

type deltaOpts struct {
	integrity bool
	journal   bool
}

func (o deltaOpts) String() string {
	return fmt.Sprintf("integrity=%t,journal=%t", o.integrity, o.journal)
}

func newDeltaVolume(t *testing.T, cfg core.Config, stripes, sector int, o deltaOpts) *deltaVolume {
	t.Helper()
	code := testCode(t, cfg)
	sc := Config{Code: code, SectorSize: sector, Stripes: stripes}
	sectors := stripes * code.R()
	if o.integrity {
		sc.Integrity = &IntegrityOptions{Epoch: 1}
		sectors += IntegrityMetaSectors(stripes, code.R(), sector)
	}
	v := &deltaVolume{}
	sc.Devices = make([]Device, code.N())
	for i := range sc.Devices {
		d := &readLogDevice{MemDevice: NewMemDevice(sectors, sector)}
		v.devs = append(v.devs, d)
		sc.Devices[i] = d
	}
	if o.journal {
		j, err := journal.Open(filepath.Join(t.TempDir(), "journal.wal"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		sc.Journal = j
	}
	s, err := Open(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	v.s = s
	fillStore(t, s)
	for b := 0; b < s.Blocks(); b++ {
		v.want = append(v.want, blockData(b, sector))
	}
	v.takeReads()
	return v
}

func (v *deltaVolume) takeReads() [][]extent {
	out := make([][]extent, len(v.devs))
	for i, d := range v.devs {
		out[i] = d.take()
	}
	return out
}

// update overwrites blocks (each with fresh content) and flushes them
// as one sub-stripe write-back.
func (v *deltaVolume) update(t *testing.T, version int, blocks ...int) {
	t.Helper()
	for _, b := range blocks {
		v.want[b] = blockData(b+1000*version, v.s.BlockSize())
		if err := v.s.WriteBlock(bg, b, v.want[b]); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.s.Flush(bg); err != nil {
		t.Fatalf("flush of blocks %v: %v", blocks, err)
	}
}

func (v *deltaVolume) checkBlocks(t *testing.T) {
	t.Helper()
	checkBlocksAre(t, v.s, v.want)
}

// neededCells returns, per column, the rows a flush of the given data
// ordinals must read and write, from the code's own dependency lists.
func neededCells(t *testing.T, s *Store, ords ...int) map[int]map[int]bool {
	t.Helper()
	need := map[int]map[int]bool{}
	add := func(c core.Cell) {
		if need[c.Col] == nil {
			need[c.Col] = map[int]bool{}
		}
		need[c.Col][c.Row] = true
	}
	for _, ord := range ords {
		cell := s.dataCells[ord]
		add(cell)
		deps, err := s.code.ParityDependencies(cell)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range deps {
			add(p)
		}
	}
	return need
}

func span(rows map[int]bool) (lo, hi int) {
	lo, hi = -1, -1
	for row := range rows {
		if lo < 0 || row < lo {
			lo = row
		}
		if row > hi {
			hi = row
		}
	}
	return lo, hi
}

// TestDeltaUpdateReadsOnlyNeededCells: a healthy single-block update
// issues exactly one read per touched column, spanning that column's
// first to last needed row of the stripe, reads no other column, and
// verifies exactly the needed cells — for every data ordinal of both
// geometries.
func TestDeltaUpdateReadsOnlyNeededCells(t *testing.T) {
	for _, cfg := range []core.Config{smallGeometry, benchGeometry} {
		t.Run(cfg.String(), func(t *testing.T) {
			v := newDeltaVolume(t, cfg, 2, 64, deltaOpts{integrity: true})
			s := v.s
			const stripe = 1
			calls, sectors := 0, 0
			for ord := 0; ord < s.perStripe; ord++ {
				before := s.Stats()
				v.update(t, 1, stripe*s.perStripe+ord)
				need := neededCells(t, s, ord)
				cells := 0
				for col, reads := range v.takeReads() {
					rows := need[col]
					if rows == nil {
						if len(reads) != 0 {
							t.Fatalf("ord %d: untouched column %d was read: %v", ord, col, reads)
						}
						continue
					}
					cells += len(rows)
					lo, hi := span(rows)
					want := extent{s.devSector(stripe, lo), hi - lo + 1}
					if len(reads) != 1 || reads[0] != want {
						t.Fatalf("ord %d column %d: reads %v, want exactly %v", ord, col, reads, want)
					}
					calls++
					sectors += want.n
				}
				after := s.Stats()
				if got := after.VerifiedSectors - before.VerifiedSectors; got != uint64(cells) {
					t.Fatalf("ord %d: %d sectors verified, want the %d needed cells", ord, got, cells)
				}
			}
			st := s.Stats()
			if st.SubStripeFallbacks != 0 {
				t.Fatalf("SubStripeFallbacks=%d on healthy traffic", st.SubStripeFallbacks)
			}
			if st.SubStripeFlushes != uint64(s.perStripe) {
				t.Fatalf("SubStripeFlushes=%d, want %d", st.SubStripeFlushes, s.perStripe)
			}
			n := float64(s.perStripe)
			t.Logf("%v: %.2f read calls and %.2f sectors per single-block update (whole stripe: %d and %d)",
				cfg, float64(calls)/n, float64(sectors)/n, s.n, s.n*s.r)
			if cfg.N == benchGeometry.N && (calls != 450 || sectors != 2322) {
				// 4.9 calls, 25.2 sectors: device.read_bytes_per_update_byte
				// in the benchmark.
				t.Errorf("benchmark geometry: %d calls / %d sectors over %d updates, want 450 / 2322", calls, sectors, s.perStripe)
			}
			v.checkBlocks(t)
			checkStripesConsistent(t, s)
		})
	}
}

// TestDeltaMultiBlockNeverExceedsWholeStripe: whatever the dirty set,
// the delta load issues at most one read per column and stays inside
// the stripe — never more calls or bytes than the whole-stripe load.
func TestDeltaMultiBlockNeverExceedsWholeStripe(t *testing.T) {
	v := newDeltaVolume(t, benchGeometry, 2, 64, deltaOpts{integrity: true})
	s := v.s
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 60; round++ {
		k := 1 + rng.Intn(s.perStripe-1) // 1 … perStripe-1 dirty blocks
		ords := rng.Perm(s.perStripe)[:k]
		blocks := make([]int, k)
		for i, ord := range ords {
			blocks[i] = ord // stripe 0
		}
		v.update(t, round+1, blocks...)
		need := neededCells(t, s, ords...)
		for col, reads := range v.takeReads() {
			if len(reads) > 1 {
				t.Fatalf("round %d: column %d read %d times", round, col, len(reads))
			}
			if len(reads) == 1 {
				lo, hi := span(need[col])
				if want := (extent{s.devSector(0, lo), hi - lo + 1}); reads[0] != want {
					t.Fatalf("round %d column %d: read %v, want %v", round, col, reads[0], want)
				}
			}
		}
	}
	if got := s.Stats().SubStripeFallbacks; got != 0 {
		t.Fatalf("SubStripeFallbacks=%d on healthy traffic", got)
	}
	v.checkBlocks(t)
	checkStripesConsistent(t, s)
}

// forceWholeStripe makes every sub-stripe flush of a stripe take the
// fallback, by the one thing that selects it on a healthy stripe: the
// unrecoverable mark.
func forceWholeStripe(s *Store, stripe int) {
	sh := s.shard(stripe)
	sh.mu.Lock()
	s.markUnrecoverableLocked(sh, stripe)
	sh.mu.Unlock()
}

// TestDeltaMatchesWholeStripePath drives two identical volumes through
// the same updates — one on the delta path, one forced onto the
// whole-stripe fallback (the pre-delta code, unchanged) — and requires
// the devices, sidecar regions included, to be byte-identical after
// every flush: every data ordinal singly, then random multi-block
// flushes, with and without journal and integrity.
func TestDeltaMatchesWholeStripePath(t *testing.T) {
	for _, cfg := range []core.Config{smallGeometry, benchGeometry} {
		for _, o := range []deltaOpts{{}, {integrity: true}, {journal: true}, {integrity: true, journal: true}} {
			t.Run(cfg.String()+"/"+o.String(), func(t *testing.T) {
				delta := newDeltaVolume(t, cfg, 2, 64, o)
				whole := newDeltaVolume(t, cfg, 2, 64, o)
				const stripe = 1
				forceWholeStripe(whole.s, stripe)
				compare := func(what string) {
					t.Helper()
					for i := range delta.devs {
						if !bytes.Equal(delta.devs[i].data, whole.devs[i].data) {
							t.Fatalf("%s: device %d differs between the delta and the whole-stripe path", what, i)
						}
					}
				}
				per := delta.s.perStripe
				for ord := 0; ord < per; ord++ {
					delta.update(t, 1, stripe*per+ord)
					whole.update(t, 1, stripe*per+ord)
					compare(fmt.Sprintf("ord %d", ord))
				}
				rng := rand.New(rand.NewSource(11))
				for round := 0; round < 25; round++ {
					k := 2 + rng.Intn(per/2)
					blocks := rng.Perm(per)[:k]
					for i := range blocks {
						blocks[i] += stripe * per
					}
					delta.update(t, round+2, blocks...)
					whole.update(t, round+2, blocks...)
					compare(fmt.Sprintf("multi-block round %d (%d blocks)", round, k))
				}
				ds, ws := delta.s.Stats(), whole.s.Stats()
				if ds.SubStripeFallbacks != 0 {
					t.Fatalf("delta volume fell back %d times", ds.SubStripeFallbacks)
				}
				if ws.SubStripeFallbacks != ws.SubStripeFlushes || ws.SubStripeFlushes != ds.SubStripeFlushes {
					t.Fatalf("whole-stripe volume: %d fallbacks of %d sub flushes (delta volume: %d)",
						ws.SubStripeFallbacks, ws.SubStripeFlushes, ds.SubStripeFlushes)
				}
				delta.checkBlocks(t)
				checkStripesConsistent(t, delta.s)
			})
		}
	}
}

// TestDeltaSkipsUnrecoverableStripe: a stripe marked unrecoverable is
// loaded whole — one read of the full chunk per device — never in part.
func TestDeltaSkipsUnrecoverableStripe(t *testing.T) {
	v := newDeltaVolume(t, smallGeometry, 2, 64, deltaOpts{integrity: true})
	s := v.s
	forceWholeStripe(s, 1)
	v.update(t, 1, s.perStripe+2)
	for col, reads := range v.takeReads() {
		if want := (extent{s.devSector(1, 0), s.r}); len(reads) != 1 || reads[0] != want {
			t.Fatalf("column %d: reads %v, want the whole chunk %v", col, reads, want)
		}
	}
	if got := s.Stats().SubStripeFallbacks; got != 1 {
		t.Fatalf("SubStripeFallbacks=%d, want 1", got)
	}
	v.checkBlocks(t)
}

// deltaFaultSites picks, for a single-block update of data ordinal ord,
// a needed parity cell, a gap sector inside a read span, and a cell of
// an untouched column.
func deltaFaultSites(t *testing.T, s *Store, ord int) (needed, gap, outside core.Cell) {
	t.Helper()
	need := neededCells(t, s, ord)
	needed, gap, outside = core.Cell{Col: -1}, core.Cell{Col: -1}, core.Cell{Col: -1}
	for col := 0; col < s.n; col++ {
		rows := need[col]
		if rows == nil {
			if outside.Col < 0 {
				outside = core.Cell{Col: col, Row: 0}
			}
			continue
		}
		lo, hi := span(rows)
		if col != s.dataCells[ord].Col && needed.Col < 0 {
			needed = core.Cell{Col: col, Row: hi}
		}
		for row := lo; row <= hi && gap.Col < 0; row++ {
			if !rows[row] {
				gap = core.Cell{Col: col, Row: row}
			}
		}
	}
	if needed.Col < 0 || gap.Col < 0 || outside.Col < 0 {
		t.Fatalf("ord %d has no needed/gap/outside site: %v %v %v", ord, needed, gap, outside)
	}
	return needed, gap, outside
}

// TestDeltaFaults places a latent sector error, a silent bit flip and a
// whole-device failure (a) on a cell the update needs, (b) on a gap
// sector inside a read span, (c) outside the extents it reads, and
// requires in every case the right bytes on every block and a stripe
// that is consistent once healed. A fault the load can see joins what
// the flush wants: it re-plans, reads what decodes the lost cell, and
// heals it in passing. No case falls back: the stripe stays within
// coverage.
func TestDeltaFaults(t *testing.T) {
	const stripe, ord = 1, 0
	type site int
	const (
		onNeeded site = iota
		onGap
		outside
	)
	siteNames := []string{"needed-cell", "gap-sector", "outside-extents"}
	for _, fault := range []string{"sector-error", "silent-flip", "failed-device"} {
		for at := onNeeded; at <= outside; at++ {
			t.Run(fault+"/"+siteNames[at], func(t *testing.T) {
				v := newDeltaVolume(t, benchGeometry, 2, 64, deltaOpts{integrity: true})
				s := v.s
				needed, gap, out := deltaFaultSites(t, s, ord)
				cell := []core.Cell{needed, gap, out}[at]
				sector := s.devSector(stripe, cell.Row)
				var err error
				switch fault {
				case "sector-error":
					err = s.InjectSectorError(cell.Col, sector)
				case "silent-flip":
					err = s.CorruptSectorSilently(cell.Col, sector)
				case "failed-device":
					err = s.FailDevice(cell.Col)
				}
				if err != nil {
					t.Fatal(err)
				}
				verified := s.Stats().VerifiedSectors
				v.update(t, 1, stripe*s.perStripe+ord)
				st := s.Stats()
				// What the load can see: any read failure in a column it
				// touches, and a checksum mismatch on a cell it needs.
				seen := at == onNeeded || (at == onGap && fault != "silent-flip")
				if st.SubStripeFallbacks != 0 {
					t.Fatalf("SubStripeFallbacks=%d, want 0: the stripe is within coverage", st.SubStripeFallbacks)
				}
				if seen && fault != "failed-device" {
					// The load read the update set's extents, then, re-planned
					// with the one loss they held, each source of the final
					// plan outside the update set.
					need := neededCells(t, s, ord)
					want := []core.Cell{cell}
					for col, rows := range need {
						for row := range rows {
							want = append(want, core.Cell{Col: col, Row: row})
						}
					}
					var rp core.ReadPlan
					if err := s.code.PlanRead(&rp, cellPattern(s, []core.Cell{cell}), cellPattern(s, want)); err != nil {
						t.Fatal(err)
					}
					wantExtra, gotExtra := map[core.Cell]bool{}, map[core.Cell]bool{}
					for _, src := range rp.Sources {
						if !need[src.Col][src.Row] {
							wantExtra[src] = true
						}
					}
					for col, reads := range v.takeReads() {
						if rows := need[col]; rows != nil {
							lo, hi := span(rows)
							if len(reads) == 0 || reads[0] != (extent{s.devSector(stripe, lo), hi - lo + 1}) {
								t.Fatalf("column %d: reads %v, want the update set's extent first", col, reads)
							}
							reads = reads[1:]
						}
						for _, e := range reads {
							for sec := e.start; sec < e.start+e.n; sec++ {
								gotExtra[core.Cell{Col: col, Row: sec - s.devSector(stripe, 0)}] = true
							}
						}
					}
					if !maps.Equal(gotExtra, wantExtra) {
						t.Fatalf("re-planned reads %v, want the plan's sources outside the update set %v", gotExtra, wantExtra)
					}
				}
				if fault == "silent-flip" && seen && st.ChecksumMismatches != 1 {
					t.Fatalf("ChecksumMismatches=%d, want the flip counted exactly once", st.ChecksumMismatches)
				}
				if fault == "silent-flip" && at == onGap {
					// A gap sector is read but gets no verdict: the flip
					// goes unseen, and only the needed cells are verified.
					needed := 0
					for _, rows := range neededCells(t, s, ord) {
						needed += len(rows)
					}
					if st.ChecksumMismatches != 0 || st.VerifiedSectors-verified != uint64(needed) {
						t.Fatalf("ChecksumMismatches=%d, %d sectors verified; want 0 and the %d needed cells",
							st.ChecksumMismatches, st.VerifiedSectors-verified, needed)
					}
				}
				if seen && fault != "failed-device" {
					// Healed in passing: the repaired cell was written back.
					if bad := s.TotalBadSectors(); bad != 0 {
						t.Fatalf("%d bad sectors left after the flush", bad)
					}
					checkStripesConsistent(t, s)
				}
				v.checkBlocks(t)
				// Heal whatever the flush was not asked to: replace and
				// rebuild, or scrub; then the volume must be whole.
				if fault == "failed-device" {
					if err := s.ReplaceDevice(cell.Col); err != nil {
						t.Fatal(err)
					}
					if err := s.RebuildDevice(bg, cell.Col); err != nil {
						t.Fatal(err)
					}
				} else if _, err := s.Scrub(bg); err != nil {
					t.Fatal(err)
				}
				s.Quiesce()
				if bad := s.TotalBadSectors(); bad != 0 {
					t.Fatalf("%d bad sectors left after healing", bad)
				}
				if got := s.UnrecoverableStripes(); len(got) != 0 {
					t.Fatalf("unrecoverable stripes %v", got)
				}
				checkStripesConsistent(t, s)
				v.checkBlocks(t)
			})
		}
	}
}

// TestTornStripeDecodesFromMemory: between an interrupted delta
// write-back and its retry, a sector of an untouched block goes bad.
// On the devices the stripe's parity is half-updated, so decoding the
// lost block there would fabricate it — and a repair would then write
// the fabrication down, where the retry would take it for an intact
// cell. Whoever loads the stripe in the meantime — a degraded read, the
// repair it queues, a scrub, the retry itself — must see it as the
// interrupted flush completed it in memory. A block written to the
// buffer in between must win over the torn content.
func TestTornStripeDecodesFromMemory(t *testing.T) {
	code := testCode(t, smallGeometry)
	for _, tc := range []struct {
		name        string
		beforeRetry func(t *testing.T, s *Store, lostBlock int, want [][]byte)
	}{
		{"retry", func(*testing.T, *Store, int, [][]byte) {}},
		{"degraded-read-and-repair", func(t *testing.T, s *Store, lostBlock int, want [][]byte) {
			got, err := s.ReadBlock(bg, lostBlock)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[lostBlock]) {
				t.Fatal("degraded read of a torn stripe fabricated the lost block off half-updated parity")
			}
			// Its row holds one loss: the read solves it from its row, the
			// torn update's cells taken from memory, and does not fall back.
			if got := s.Stats().DegradedReadFallbacks; got != 0 {
				t.Fatalf("DegradedReadFallbacks=%d for a read of a torn stripe, want 0", got)
			}
			s.Quiesce() // the repair the read queued writes the block back
		}},
		{"scrub-and-repair", func(t *testing.T, s *Store, _ int, _ [][]byte) {
			rep, err := s.Scrub(bg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.SectorsLost != 1 || rep.StripesInconsistent != 0 || rep.StripesUnrecoverable != 0 {
				t.Fatalf("scrub of a torn stripe: %+v, want exactly the one lost sector", rep)
			}
			s.Quiesce()
		}},
	} {
		// The interrupted flush met no loss, or — a sector it reads being
		// bad — one that it re-planned around and healed in passing.
		for _, fallback := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fallback=%v", tc.name, fallback), func(t *testing.T) {
				s, blk := openBlockingStoreAt(t, code, 2, 1)
				fillStore(t, s)
				// Two dirty blocks: one in column 0, whose write lands, one in
				// the blocking column 1, whose write parks until the
				// cancellation.
				dirty := []int{firstOrdOn(t, s, 0), firstOrdOn(t, s, 1)}
				if fallback {
					cell := s.dataCells[dirty[0]]
					if err := s.InjectSectorError(cell.Col, s.devSector(0, cell.Row)); err != nil {
						t.Fatal(err)
					}
				}
				want := cancelMidWriteBack(t, s, blk, dirty...)
				if got := s.Stats().SubStripeFallbacks; got != 0 {
					t.Fatalf("SubStripeFallbacks=%d with fallback=%v, want 0", got, fallback)
				}

				// An untouched block of a third column loses its sector…
				lostBlock := firstOrdOn(t, s, 2)
				lost := s.dataCells[lostBlock]
				if err := s.InjectSectorError(lost.Col, s.devSector(0, lost.Row)); err != nil {
					t.Fatal(err)
				}
				tc.beforeRetry(t, s, lostBlock, want)
				// …and the first dirty block is overwritten once more.
				want[dirty[0]] = blockData(dirty[0]+2000, s.BlockSize())
				if err := s.WriteBlock(bg, dirty[0], want[dirty[0]]); err != nil {
					t.Fatal(err)
				}
				if err := s.Flush(bg); err != nil {
					t.Fatalf("retry flush: %v", err)
				}
				degraded := s.Stats().DegradedReads
				checkBlocksAre(t, s, want)
				if bad := s.TotalBadSectors(); bad != 0 {
					t.Fatalf("%d bad sectors left: the full rewrite should have healed the lost one", bad)
				}
				if st := s.Stats(); st.DegradedReads != degraded {
					t.Fatalf("%d degraded reads after the retry", st.DegradedReads-degraded)
				}
				if got := s.UnrecoverableStripes(); len(got) != 0 {
					t.Fatalf("unrecoverable stripes %v", got)
				}
				checkStripesConsistent(t, s)
			})
		}
	}
}

// TestTornBufferFilledSinceReadsNothing: once the writer has filled the
// buffer of a torn stripe, its retry is a plain full-stripe rewrite. It
// must not load the stripe first — here the old content has meanwhile
// fallen outside the code's coverage, and the rewrite is what resurrects
// the stripe.
func TestTornBufferFilledSinceReadsNothing(t *testing.T) {
	code := testCode(t, smallGeometry)
	s, blk := openBlockingStoreAt(t, code, 2, 1)
	fillStore(t, s)
	want := cancelMidWriteBack(t, s, blk, firstOrdOn(t, s, 0), firstOrdOn(t, s, 1))
	// Every sector the torn update does not hold goes bad: more lost
	// cells than the stripe has parity.
	torn := s.shard(0).dirty[0].torn
	for col := 0; col < code.N(); col++ {
		for row := 0; row < s.r; row++ {
			if torn.has(col*s.r + row) {
				continue
			}
			if err := s.InjectSectorError(col, s.devSector(0, row)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(bg); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("retry over a stripe beyond coverage: %v, want ErrUnrecoverable", err)
	}
	for b := 0; b < s.perStripe; b++ {
		want[b] = blockData(b+7000, s.BlockSize())
		if err := s.WriteBlock(bg, b, want[b]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(bg); err != nil {
		t.Fatalf("retry as a full stripe: %v", err)
	}
	checkBlocksAre(t, s, want)
	checkStripesConsistent(t, s)
	if bad, unrec := s.TotalBadSectors(), s.UnrecoverableStripes(); bad != 0 || len(unrec) != 0 {
		t.Fatalf("%d bad sectors, unrecoverable stripes %v after the full rewrite", bad, unrec)
	}
}

// TestKilledSubStripeWriteBackRetriedInProcess is the crash matrix's
// other half: the journaled read–modify–write dies at each protocol
// point, but the process lives and flushes again. The retry must land
// both dirty blocks, leave every other block of the volume as it was,
// and raise no checksum alarm — from the torn update attached to the
// buffer, without decoding anything off the half-written devices.
func TestKilledSubStripeWriteBackRetriedInProcess(t *testing.T) {
	code := testCode(t, smallGeometry)
	for _, kp := range integrityKillPoints {
		t.Run(string(kp), func(t *testing.T) {
			v := newIntegrityCrashVolume(t, code, 3, 128)
			s, j := v.openIntegrity(t)
			defer func() { s.Close(); j.Close() }()
			fillStore(t, s)
			want := make([][]byte, s.Blocks())
			for b := range want {
				want[b] = blockData(b, s.BlockSize())
			}
			for _, b := range []int{s.perStripe, s.perStripe + 3} {
				want[b] = blockData(b+1000, s.BlockSize())
				if err := s.WriteBlock(bg, b, want[b]); err != nil {
					t.Fatal(err)
				}
			}
			s.testKill = func(p killPoint) error {
				if p == kp {
					return errKilled
				}
				return nil
			}
			if err := s.Flush(bg); !errors.Is(err, errKilled) {
				t.Fatalf("killed flush returned %v, want errKilled", err)
			}
			s.testKill = nil
			if err := s.Sync(bg); err != nil {
				t.Fatalf("retry: %v", err)
			}
			checkBlocksAre(t, s, want)
			checkStripesConsistent(t, s)
			assertNoFalseAlarms(t, s)
			if got := j.PendingCount(); got != 0 {
				t.Fatalf("%d intents pending after the retry's barrier", got)
			}
			if st := s.Stats(); st.SubStripeFallbacks != 0 || st.FullStripeFlushes != uint64(s.stripes)+1 {
				t.Fatalf("want 0 fallbacks and the retry as the one extra full-stripe flush, got %d and %d (fill: %d)",
					st.SubStripeFallbacks, st.FullStripeFlushes, s.stripes)
			}
		})
	}
}

// landThenCancelDevice lands one armed write in full and then reports
// its context cancelled — an in-flight remote write that completes
// after its caller has given up.
type landThenCancelDevice struct {
	*MemDevice
	cancel func()
	armed  bool
}

func (d *landThenCancelDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if !d.armed {
		return d.MemDevice.WriteSectors(ctx, start, data)
	}
	d.armed = false
	if err := d.MemDevice.WriteSectors(ctx, start, data); err != nil {
		return err
	}
	d.cancel()
	return ctx.Err()
}

// TestTornRetryRaisesNoChecksumAlarm: a write the store was told had
// been cancelled landed anyway, so the device holds new content under
// the old record. The retry takes that cell from the torn update, not
// from the device, and must not count the stale record as corruption.
func TestTornRetryRaisesNoChecksumAlarm(t *testing.T) {
	code := testCode(t, smallGeometry)
	const stripes, sector = 2, 128
	sectors := stripes*code.R() + IntegrityMetaSectors(stripes, code.R(), sector)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	late := &landThenCancelDevice{MemDevice: NewMemDevice(sectors, sector), cancel: cancel}
	devs := make([]Device, code.N())
	for i := range devs {
		devs[i] = NewMemDevice(sectors, sector)
	}
	devs[0] = late
	s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs,
		Integrity: &IntegrityOptions{Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	want := make([][]byte, s.Blocks())
	for b := range want {
		want[b] = blockData(b, s.BlockSize())
	}
	victim := firstOrdOn(t, s, 0)
	want[victim] = blockData(4321, s.BlockSize())
	if err := s.WriteBlock(bg, victim, want[victim]); err != nil {
		t.Fatal(err)
	}
	late.armed = true
	if err := s.Flush(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("flush: %v, want context.Canceled", err)
	}
	if err := s.Flush(bg); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	checkBlocksAre(t, s, want)
	checkStripesConsistent(t, s)
	rep, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ChecksumMismatches != 0 || rep.ChecksumMismatches != 0 || rep.StripesDamaged != 0 {
		t.Fatalf("false alarm: %d mismatches counted, scrub %+v", st.ChecksumMismatches, rep)
	}
}

// TestDeltaMultiLoss: a sub-stripe flush that meets several losses —
// two needed cells of different columns, or a failed device and both row
// parities of the updated cell's row, so that row holds more than m —
// re-plans until it has every loss, reads nothing beyond the update set's
// extents but the sources of its last plan and what it found lost, and
// decodes from what it read: the stripe it loads into is primed with
// garbage, so a decode through a cell it did not read would write the
// garbage down.
func TestDeltaMultiLoss(t *testing.T) {
	const stripe, ord = 1, 0
	for _, tc := range []string{"two-needed-cells", "row-beyond-m"} {
		t.Run(tc, func(t *testing.T) {
			v := newDeltaVolume(t, benchGeometry, 2, 64, deltaOpts{integrity: true})
			s := v.s
			need := neededCells(t, s, ord)
			data := s.dataCells[ord]
			_, _, out := deltaFaultSites(t, s, ord)
			var faults []core.Cell
			if tc == "two-needed-cells" {
				for col := 0; col < s.n && len(faults) < 2; col++ {
					if lo, _ := span(need[col]); col != data.Col && need[col] != nil && (len(faults) == 0 || faults[0].Row != lo) {
						faults = append(faults, core.Cell{Col: col, Row: lo})
					}
				}
			} else {
				if err := s.FailDevice(out.Col); err != nil {
					t.Fatal(err)
				}
				faults = []core.Cell{{Col: s.n - 2, Row: data.Row}, {Col: s.n - 1, Row: data.Row}}
			}
			for _, cell := range faults {
				if !need[cell.Col][cell.Row] {
					t.Fatalf("cell %v is not in the update set", cell)
				}
				if err := s.InjectSectorError(cell.Col, s.devSector(stripe, cell.Row)); err != nil {
					t.Fatal(err)
				}
			}
			garbage := s.acquireStripe()
			for _, cell := range garbage.Cells {
				rand.Read(cell)
			}
			s.releaseStripe(garbage)
			v.update(t, 1, stripe*s.perStripe+ord)
			if got := s.Stats().SubStripeFallbacks; got != 0 {
				t.Fatalf("SubStripeFallbacks=%d, want 0: the stripe is within coverage", got)
			}
			// The losses the load found: the faults, and the failed
			// device's cells it tried.
			lost := s.shard(stripe).load.lost.AppendCells(nil)
			for _, cell := range faults {
				if !slices.Contains(lost, cell) {
					t.Fatalf("the flush found the losses %v, not the fault at %v", lost, cell)
				}
			}
			want := slices.Clone(lost)
			for col, rows := range need {
				for row := range rows {
					want = append(want, core.Cell{Col: col, Row: row})
				}
			}
			var rp core.ReadPlan
			if err := s.code.PlanRead(&rp, cellPattern(s, lost), cellPattern(s, want)); err != nil {
				t.Fatal(err)
			}
			for col, reads := range v.takeReads() {
				lo, hi := span(need[col])
				for _, e := range reads {
					for sec := e.start; sec < e.start+e.n; sec++ {
						cell := core.Cell{Col: col, Row: sec - s.devSector(stripe, 0)}
						if !(cell.Row >= lo && cell.Row <= hi) && !slices.Contains(rp.Sources, cell) && !slices.Contains(lost, cell) {
							t.Errorf("the flush read %v: outside the update set's extents, the last plan's sources and the losses", cell)
						}
					}
				}
			}
			v.checkBlocks(t)
			if tc == "row-beyond-m" {
				if err := s.ReplaceDevice(out.Col); err != nil {
					t.Fatal(err)
				}
				if err := s.RebuildDevice(bg, out.Col); err != nil {
					t.Fatal(err)
				}
			}
			if bad := s.TotalBadSectors(); bad != 0 {
				t.Fatalf("%d bad sectors left: the flush heals the update set's losses", bad)
			}
			checkStripesConsistent(t, s)
			v.checkBlocks(t)
		})
	}
}
