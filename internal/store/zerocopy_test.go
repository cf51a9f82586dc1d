package store

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"stair/internal/core"
)

// TestZeroCopyFileDevices proves the copy-elision claim for the
// file backend: every vectored call the store issues in healthy
// steady state — full-stripe flushes, single-block reads, whole-stripe
// scrub loads — presents a slab-contiguous extent, so FileDevice's
// pread/pwrite fast path runs and its scratch-flat counter stays zero.
func TestZeroCopyFileDevices(t *testing.T) {
	code := testCode(t, core.Config{N: 5, R: 3, M: 1, E: []int{2}})
	dir := t.TempDir()
	devs := make([]Device, code.N())
	files := make([]*FileDevice, code.N())
	for i := range devs {
		d, err := OpenFileDevice(filepath.Join(dir, "dev"+string(rune('a'+i))+".img"), 4*code.R(), 64)
		if err != nil {
			t.Fatal(err)
		}
		devs[i], files[i] = d, d
	}
	s, err := Open(Config{Code: code, SectorSize: 64, Stripes: 4, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s)
	checkAllBlocks(t, s)
	if _, err := s.Scrub(bg); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, fd := range files {
		if got := fd.ScratchFlats(); got != 0 {
			t.Errorf("device %d: %d scratch flats on healthy slab-contiguous traffic, want 0", i, got)
		}
	}
	fd, err := OpenFileDevice(filepath.Join(dir, "scattered.img"), 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	// Holes and bad sectors split a contiguous vector into runs, each
	// preaded in place.
	flat := make([]byte, 8*64)
	vec := make([][]byte, 8)
	for i := range vec {
		vec[i] = flat[i*64 : (i+1)*64]
	}
	if err := fd.WriteSectors(bg, 0, vec); err != nil {
		t.Fatal(err)
	}
	if err := fd.InjectSectorError(5); err != nil {
		t.Fatal(err)
	}
	vec[2], vec[3] = nil, nil
	if se, ok := AsSectorErrors(fd.ReadSectors(bg, 0, vec)); !ok || len(se) != 1 || se[0].Index != 5 {
		t.Fatalf("read with holes and a bad sector: %v, want sector 5 lost", se)
	}
	if got := fd.ScratchFlats(); got != 0 {
		t.Errorf("ScratchFlats=%d after contiguous reads with holes and a bad sector, want 0", got)
	}
	// The counter is live: a genuinely scattered vector must fall back.
	scattered := [][]byte{make([]byte, 64), make([]byte, 64)}
	if err := fd.WriteSectors(bg, 0, scattered); err != nil {
		t.Fatal(err)
	}
	if err := fd.ReadSectors(bg, 0, scattered); err != nil {
		t.Fatal(err)
	}
	if got := fd.ScratchFlats(); got != 2 {
		t.Errorf("ScratchFlats=%d after two scattered calls, want 2", got)
	}
}

// TestZeroCopyNetDevices proves the same for the network backend: a
// slab-contiguous extent becomes the HTTP request body (writes) or the
// response-body destination (reads) directly, with no gather/scatter
// copy on the client.
func TestZeroCopyNetDevices(t *testing.T) {
	code := testCode(t, core.Config{N: 4, R: 3, M: 1, E: []int{1}})
	const stripes, sector = 3, 64
	devs := make([]Device, code.N())
	nets := make([]*NetDevice, code.N())
	for i := range devs {
		srv := httptest.NewServer(NewDeviceServer(NewMemDevice(stripes*code.R(), sector)))
		t.Cleanup(srv.Close)
		d, err := DialNetDevice(bg, srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		devs[i], nets[i] = d, d
	}
	s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s)
	checkAllBlocks(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nets {
		if got := nd.ScratchFlats(); got != 0 {
			t.Errorf("net device %d: %d scratch flats on healthy slab-contiguous traffic, want 0", i, got)
		}
	}
}

// TestAllocRegressionGuard is the allocation analogue of the GF kernel
// speed guard: env-gated so routine runs stay unaffected by measurement
// noise, it pins the steady-state block paths to (amortised) zero heap
// allocations — the row-local degraded read among them — a single-block
// update, a rebuilt stripe and a clean scrub's stripe to single digits
// and a whole-stripe degraded read to a small constant. CI runs it with
// STAIR_ALLOC_GUARD=1 on both the default and purego legs. Every check runs with the integrity layer
// off and on: the layer digests every sector read or written, and an
// allocation per digest once hid behind a guard that only ran without it.
func TestAllocRegressionGuard(t *testing.T) {
	if os.Getenv("STAIR_ALLOC_GUARD") == "" {
		t.Skip("set STAIR_ALLOC_GUARD=1 to run the alloc regression guard")
	}
	for _, integ := range []*IntegrityOptions{nil, {Epoch: 1}} {
		t.Run(fmt.Sprintf("integrity=%t", integ != nil), func(t *testing.T) {
			allocGuard(t, integ)
		})
	}
	// A NetDevice read with holes reads them into a pooled sink.
	if allocs := holedFrameReadAllocs(t); allocs != 0 {
		t.Errorf("frame read with holes: %.1f allocs, want 0", allocs)
	}
}

// fullStripeWriteAllocs measures two full stripes, each flushed by the
// write that fills it, and a Flush: write buffers recycle through the
// store's free list. Measured 0.
func fullStripeWriteAllocs(t *testing.T, code *core.Code, integ *IntegrityOptions) float64 {
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 16, Integrity: integ})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	buf := blockData(1, s.BlockSize())
	i := 0
	return testing.AllocsPerRun(200, func() {
		for range 2 * s.perStripe {
			if err := s.WriteBlock(bg, i%s.Blocks(), buf); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if err := s.Flush(bg); err != nil {
			t.Fatal(err)
		}
	})
}

// overlappedAllocs measures a full-stripe write-back and a row-local
// degraded read, one column failed, over columns that answer Remote:
// every wave hands its calls to the I/O helpers, whose call records and
// vectors are shard scratch. Measured 0 and 0.
func overlappedAllocs(t *testing.T, code *core.Code, integ *IntegrityOptions) (writeBack, degraded float64) {
	const stripes, sector = 16, 128
	s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Integrity: integ,
		Devices: barrierDevs(code.N(), stripes, code.R(), sector, integ != nil, true, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	buf := blockData(1, s.BlockSize())
	i := 0
	writeBack = testing.AllocsPerRun(200, func() {
		for range s.perStripe {
			if err := s.WriteBlock(bg, i%s.Blocks(), buf); err != nil {
				t.Fatal(err)
			}
			i++
		}
	})
	if err := s.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	lostOrd, dst := firstOrdOn(t, s, 0), make([]byte, sector)
	degraded = testing.AllocsPerRun(2000, func() {
		if err := s.ReadBlockInto(bg, (i%stripes)*s.perStripe+lostOrd, dst); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if st := s.Stats(); st.DegradedReads == 0 || st.SubStripeFlushes != 0 {
		t.Errorf("%d degraded reads, %d sub-stripe flushes; the guard must measure full stripes and degraded reads", st.DegradedReads, st.SubStripeFlushes)
	}
	return writeBack, degraded
}

// hedgedReadAllocs measures warm hedged reads of every block, the
// devices answering inside the hedge delay, over barrier devices that
// answer Remote as told: the primary is a record off its column's free
// list, with its own channel and scratch, run by an I/O helper, and the
// delay is the shard's timer. Measured 0.
func hedgedReadAllocs(t *testing.T, code *core.Code, integ *IntegrityOptions, remote bool) float64 {
	const stripes, sector = 16, 128
	s, err := Open(Config{Code: code, SectorSize: sector, Stripes: stripes, Integrity: integ, Hedge: true,
		Devices: barrierDevs(code.N(), stripes, code.R(), sector, integ != nil, remote, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	dst, i := make([]byte, sector), 0
	read := func() {
		if err := s.ReadBlockInto(bg, i%s.Blocks(), dst); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range hedgeMinSamples * s.Blocks() {
		read() // every block hedgeMinSamples times: every tracker warm
	}
	for _, cell := range s.dataCells {
		if s.hedge[cell.Col].delay.Load() == 0 {
			t.Fatalf("column %d's tracker is cold", cell.Col)
		}
	}
	return testing.AllocsPerRun(2000, read)
}

func allocGuard(t *testing.T, integ *IntegrityOptions) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 16, Integrity: integ})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)

	buf := blockData(1, s.BlockSize())
	i := 0
	writes := testing.AllocsPerRun(2000, func() {
		if err := s.WriteBlock(bg, i%s.Blocks(), buf); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// Sequential writes fill whole stripes; the per-flush bookkeeping
	// (journal-less here, but cell partitions and map churn) must stay
	// well under one allocation per block.
	if writes >= 1.0 {
		t.Errorf("WriteBlock steady state: %.2f allocs/op, want < 1", writes)
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	if full := fullStripeWriteAllocs(t, code, integ); full != 0 {
		t.Errorf("full-stripe writes + Flush: %.2f allocs/op, want 0", full)
	}

	overWrite, overRead := overlappedAllocs(t, code, integ)
	if overWrite != 0 || overRead != 0 {
		t.Errorf("over remote columns: full-stripe write-back %.2f, degraded read %.2f allocs/op; want 0 and 0", overWrite, overRead)
	}

	dst := make([]byte, s.BlockSize())
	reads := testing.AllocsPerRun(2000, func() {
		if err := s.ReadBlockInto(bg, i%s.Blocks(), dst); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if reads >= 0.5 {
		t.Errorf("ReadBlockInto steady state: %.2f allocs/op, want < 0.5", reads)
	}

	// The same read with hedging on and every column's tracker warm,
	// over local and over remote columns.
	hedged, hedgedRemote := hedgedReadAllocs(t, code, integ, false), hedgedReadAllocs(t, code, integ, true)
	if hedged != 0 || hedgedRemote != 0 {
		t.Errorf("hedged ReadBlockInto steady state: %.2f allocs/op over local columns, %.2f over remote ones; want 0 and 0", hedged, hedgedRemote)
	}

	// A single-block update made durable to the devices: the §5.2
	// read–modify–write on its delta path, its stripe pooled with its
	// slab. What is left is the flush sweep's stripe list.
	updates := testing.AllocsPerRun(2000, func() {
		if err := s.WriteBlock(bg, (i*7)%s.Blocks(), buf); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(bg); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if updates > 8 {
		t.Errorf("single-block WriteBlock+Flush: %.2f allocs/op, want ≤ 8", updates)
	}
	if got := s.Stats().SubStripeFallbacks; got != 0 {
		t.Errorf("%d sub-stripe flushes fell back on a healthy volume", got)
	}

	// Degraded reads with m devices down. The first one solves its column
	// set cold — a row solve straight from C_row's generator, tens of
	// allocations, not a full-grid peel — and from then on a read whose row
	// holds no further loss is row-local: n−m single-sector reads into a
	// stripe pooled with its slab and a cached one-op plan.
	for _, dev := range []int{0, 1} {
		if err := s.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	lostOrd := firstOrdOn(t, s, 0)
	readLost := func() {
		if err := s.ReadBlockInto(bg, (i%s.stripes)*s.perStripe+lostOrd, dst); err != nil {
			t.Fatal(err)
		}
		i++
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	readLost()
	runtime.ReadMemStats(&after)
	cold := after.Mallocs - before.Mallocs
	if cold > 32 {
		t.Errorf("degraded read solving a cold column set: %d allocs, want ≤ 32", cold)
	}
	// Measured 0; under -race sync.Pool drops a quarter of its puts on
	// purpose, which reads 1 here.
	rowLocal := testing.AllocsPerRun(2000, readLost)
	if rowLocal > 1 {
		t.Errorf("row-local degraded read: %.2f allocs/op, want ≤ 1", rowLocal)
	}
	if st := s.Stats(); st.DegradedReadFallbacks != 0 {
		t.Errorf("%d degraded reads fell back with every row within m losses", st.DegradedReadFallbacks)
	}

	// One more loss in the wanted row of every stripe, and the row cannot
	// decide the block: the read re-plans over the stripe, loads what the
	// peel pruned to the block reads, and decodes the block through the
	// cached plan, straight into dst. The sector errors must outlast the
	// reads, so the repairs they would queue are dropped at the queue.
	// Measured 2, both the MemDevice's sector-error answer: its
	// SectorErrors list and the error value boxing it. The load's lists
	// and plan are shard scratch, and a failed device's answer is not
	// searched for sector errors.
	s.repairQ.mu.Lock()
	s.repairQ.cap = 0
	s.repairQ.mu.Unlock()
	for stripe := 0; stripe < s.stripes; stripe++ {
		if err := s.InjectSectorError(2, s.devSector(stripe, s.dataCells[lostOrd].Row)); err != nil {
			t.Fatal(err)
		}
	}
	degraded := testing.AllocsPerRun(2000, readLost)
	if degraded > 3 {
		t.Errorf("re-planned degraded read: %.2f allocs/op, want ≤ 3", degraded)
	}
	if st := s.Stats(); st.DegradedReadFallbacks != 0 || st.UnrecoverableStripes != 0 {
		t.Errorf("%d fallbacks, %d stripes unrecoverable; the guard must measure 2001 re-planned reads",
			st.DegradedReadFallbacks, st.UnrecoverableStripes)
	}

	// A device rebuild, per stripe: a whole-stripe load into a pooled
	// stripe, a decode through a cached plan and the replaced column's
	// write-back, whose cell set, column list and sort use shard scratch,
	// as does the load's lost list. Measured 2.44: the blank MemDevice's
	// sector-error list, allocated once, and its boxing as the read's
	// error (2), and the sweep's own bookkeeping, once per call. It runs
	// after the reads because its garbage brings on a GC, which empties
	// the pools the cold degraded read above is measured against. The dead
	// devices come back first, untimed.
	for _, dev := range []int{0, 1} {
		if err := s.ReplaceDevice(dev); err != nil {
			t.Fatal(err)
		}
		if err := s.RebuildDevice(bg, dev); err != nil {
			t.Fatal(err)
		}
	}
	if bad := s.TotalBadSectors(); bad != 0 {
		t.Fatalf("%d bad sectors after rebuilding both devices", bad)
	}
	repaired := s.Stats().RepairedStripes
	rebuild := testing.AllocsPerRun(100, func() {
		if err := s.ReplaceDevice(0); err != nil {
			t.Fatal(err)
		}
		if err := s.RebuildDevice(bg, 0); err != nil {
			t.Fatal(err)
		}
	}) / float64(s.stripes)
	if rebuild > 3 {
		t.Errorf("RebuildDevice: %.2f allocs per stripe, want ≤ 3", rebuild)
	}
	if got := s.Stats().RepairedStripes - repaired; got != 101*uint64(s.stripes) {
		t.Errorf("%d stripes rebuilt; the guard must measure %d", got, 101*s.stripes)
	}

	// A scrub of the clean volume, per stripe: a whole-stripe load into a
	// pooled stripe and Verify, which runs the encode plan into the pooled
	// environment's parity scratch and compares in place, allocating
	// nothing. Measured 0.56: the sweep's own bookkeeping, 9 per call.
	scrub := testing.AllocsPerRun(100, func() {
		rep, err := s.Scrub(bg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.StripesChecked != s.stripes || rep.StripesDamaged+rep.StripesInconsistent+rep.RecordsRefreshed != 0 {
			t.Fatalf("scrub of a clean volume: %+v", rep)
		}
	}) / float64(s.stripes)
	if scrub > 0.6 {
		t.Errorf("clean Scrub: %.2f allocs per stripe, want ≤ 0.6", scrub)
	}
	t.Logf("allocs/op: write %.2f, read %.2f (%.2f hedged, %.2f over remote columns), update %.2f, scrub %.2f and rebuild %.2f per stripe, degraded read %.2f row-local (%d cold), %.2f re-planned; over remote columns write-back %.2f per stripe, degraded read %.2f",
		writes, reads, hedged, hedgedRemote, updates, scrub, rebuild, rowLocal, cold, degraded, overWrite, overRead)
}
