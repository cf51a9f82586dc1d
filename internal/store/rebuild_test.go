package store

import "testing"

const rebuildStripes = 4

// openRebuildStore opens a filled store over counting devices with the
// checksum layer on, so a rebuild's chunk check verifies what it reads.
func openRebuildStore(t *testing.T) (*Store, []*countingDevice) {
	t.Helper()
	code := testCode(t, smallGeometry)
	const sector = 128
	sectors := rebuildStripes*code.R() + IntegrityMetaSectors(rebuildStripes, code.R(), sector)
	devs := make([]Device, code.N())
	counters := make([]*countingDevice, code.N())
	for i := range devs {
		counters[i] = &countingDevice{MemDevice: NewMemDevice(sectors, sector)}
		devs[i] = counters[i]
	}
	s, err := Open(Config{Code: code, SectorSize: sector, Stripes: rebuildStripes, Devices: devs,
		Integrity: &IntegrityOptions{Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	fillStore(t, s)
	return s, counters
}

// replaceDevices fails and replaces each device, leaving it blank.
func replaceDevices(t *testing.T, s *Store, devs ...int) {
	t.Helper()
	for _, dev := range devs {
		if err := s.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
		if err := s.ReplaceDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
}

func rebuild(t *testing.T, s *Store, dev int) {
	t.Helper()
	if err := s.RebuildDevice(bg, dev); err != nil {
		t.Fatalf("RebuildDevice(%d): %v", dev, err)
	}
}

func resetCounts(counters []*countingDevice) {
	for _, c := range counters {
		c.reads.Store(0)
		c.writes.Store(0)
	}
}

// checkReads compares each device's vectored reads with want.
func checkReads(t *testing.T, counters []*countingDevice, want func(dev int) int64) {
	t.Helper()
	for dev, c := range counters {
		if got, w := c.reads.Load(), want(dev); got != w {
			t.Errorf("device %d: %d vectored reads, want %d", dev, got, w)
		}
	}
}

// checkHealed asserts the volume holds its fill, every stripe's parity
// agrees with its data, and no sector is bad.
func checkHealed(t *testing.T, s *Store) {
	t.Helper()
	if bad := s.TotalBadSectors(); bad != 0 {
		t.Fatalf("%d bad sectors left", bad)
	}
	checkStripesConsistent(t, s)
	fillWant := make([][]byte, s.Blocks())
	for b := range fillWant {
		fillWant[b] = blockData(b, s.BlockSize())
	}
	checkBlocksAre(t, s, fillWant)
}

// With two devices replaced, the first rebuild reads each device once per
// stripe and writes both blank chunks back; the second reads its own
// chunk once per stripe, finds it whole, and writes nothing.
func TestRebuildCallsPerDevice(t *testing.T) {
	s, counters := openRebuildStore(t)
	const d0, d1 = 1, 2
	replaceDevices(t, s, d0, d1)
	resetCounts(counters)

	rebuild(t, s, d0)
	checkReads(t, counters, func(int) int64 { return rebuildStripes })
	for dev, c := range counters {
		if wrote := c.writes.Load() > 0; wrote != (dev == d0 || dev == d1) {
			t.Errorf("device %d: %d vectored writes in the first rebuild", dev, c.writes.Load())
		}
	}
	if got, want := s.Stats().RepairedSectors, uint64(2*rebuildStripes*s.r); got != want {
		t.Fatalf("RepairedSectors=%d after the first rebuild, want %d: both blank chunks", got, want)
	}

	resetCounts(counters)
	rebuild(t, s, d1)
	checkReads(t, counters, func(dev int) int64 {
		if dev == d1 {
			return rebuildStripes
		}
		return 0
	})
	for dev, c := range counters {
		if got := c.writes.Load(); got != 0 {
			t.Errorf("device %d: %d vectored writes in the second rebuild, want 0", dev, got)
		}
	}
	checkHealed(t, s)
}

// A stripe rewritten in full between ReplaceDevice and RebuildDevice
// already holds the new device's chunk: the rebuild reads that chunk and
// leaves the stripe alone.
func TestRebuildSkipsStripeRewrittenSinceReplace(t *testing.T) {
	s, counters := openRebuildStore(t)
	const dev, rewritten = 2, 1
	replaceDevices(t, s, dev)
	for b := rewritten * s.perStripe; b < (rewritten+1)*s.perStripe; b++ {
		if err := s.WriteBlock(bg, b, blockData(b, s.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().FullStripeFlushes; got != rebuildStripes+1 {
		t.Fatalf("FullStripeFlushes=%d, want the rewrite as one more than the fill's %d", got, rebuildStripes)
	}
	resetCounts(counters)
	rebuild(t, s, dev)
	checkReads(t, counters, func(d int) int64 {
		if d == dev {
			return rebuildStripes
		}
		return rebuildStripes - 1
	})
	if got, want := s.Stats().RepairedSectors, uint64((rebuildStripes-1)*s.r); got != want {
		t.Fatalf("RepairedSectors=%d, want %d: every stripe's blank chunk but the rewritten one's", got, want)
	}
	checkHealed(t, s)
}

// A rebuilt chunk that reads back with a latent error, or with a sector
// its checksum rejects, is rebuilt again — and the other loss in its
// stripe, on a survivor, is healed with it.
func TestRebuildHealsDamagedChunk(t *testing.T) {
	for _, fault := range []string{"sector-error", "silent-flip"} {
		t.Run(fault, func(t *testing.T) {
			s, counters := openRebuildStore(t)
			const dev, survivor, stripe = 2, 4, 1
			replaceDevices(t, s, dev)
			rebuild(t, s, dev)
			var err error
			if fault == "sector-error" {
				err = s.InjectSectorError(dev, s.devSector(stripe, 0))
			} else {
				err = s.CorruptSectorSilently(dev, s.devSector(stripe, 0))
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.InjectSectorError(survivor, s.devSector(stripe, 3)); err != nil {
				t.Fatal(err)
			}
			before := s.Stats()
			resetCounts(counters)
			rebuild(t, s, dev)
			checkReads(t, counters, func(d int) int64 {
				if d == dev {
					return rebuildStripes
				}
				return 1 // the damaged stripe's load
			})
			after := s.Stats()
			if got := after.RepairedSectors - before.RepairedSectors; got != 2 {
				t.Fatalf("rebuild repaired %d sectors, want the chunk's and the survivor's", got)
			}
			if got, want := after.ChecksumMismatches-before.ChecksumMismatches, map[string]uint64{"silent-flip": 1}[fault]; got != want {
				t.Fatalf("ChecksumMismatches rose by %d, want %d", got, want)
			}
			checkHealed(t, s)
			if rep, err := s.Scrub(bg); err != nil || rep.StripesDamaged != 0 {
				t.Fatalf("scrub after the rebuild: %+v, %v; want a clean volume", rep, err)
			}
		})
	}
}

// A stripe with an interrupted write-back pending is loaded whole: the
// torn update's cells come from memory, so the rebuilt chunk reading whole
// says nothing about the stripe, whose other loss is healed.
func TestRebuildTornStripeLoadsWhole(t *testing.T) {
	code := testCode(t, smallGeometry)
	s, blk := openBlockingStoreAt(t, code, 2, 1)
	fillStore(t, s)
	want := cancelMidWriteBack(t, s, blk, firstOrdOn(t, s, 0), firstOrdOn(t, s, 1))
	lost := s.dataCells[firstOrdOn(t, s, 2)]
	if err := s.InjectSectorError(lost.Col, s.devSector(0, lost.Row)); err != nil {
		t.Fatal(err)
	}
	rebuild(t, s, 0)
	if bad := s.TotalBadSectors(); bad != 0 {
		t.Fatalf("%d bad sectors after rebuilding a column of a torn stripe: it was not loaded whole", bad)
	}
	if err := s.Flush(bg); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	checkBlocksAre(t, s, want)
	checkStripesConsistent(t, s)
}

// A latent error on a survivor, in a stripe whose rebuilt chunk reads
// whole, is not the rebuild's: it stays until the next Scrub heals it.
func TestRebuildLeavesSurvivorLossToScrub(t *testing.T) {
	s, _ := openRebuildStore(t)
	const dev, survivor, stripe = 2, 4, 1
	replaceDevices(t, s, dev)
	rebuild(t, s, dev)
	if err := s.InjectSectorError(survivor, s.devSector(stripe, 3)); err != nil {
		t.Fatal(err)
	}
	repaired := s.Stats().RepairedSectors
	rebuild(t, s, dev)
	if bad := s.TotalBadSectors(); bad != 1 {
		t.Fatalf("%d bad sectors after the rebuild, want the survivor's 1 left to scrub", bad)
	}
	if got := s.Stats().RepairedSectors; got != repaired {
		t.Fatalf("rebuild repaired %d sectors, want 0", got-repaired)
	}
	rep, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StripesDamaged != 1 || rep.SectorsLost != 1 || rep.StripesQueued != 1 {
		t.Fatalf("scrub: %+v, want the one lost sector found and queued", rep)
	}
	s.Quiesce()
	checkHealed(t, s)
}
