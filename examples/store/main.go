// Store walkthrough: the internal/store block layer end to end — batched
// writes over STAIR stripes, transparent degraded reads under mixed
// device + sector failures, a background scrubber converging a repair
// queue, and the unrecoverable-pattern guardrail. This is the
// storage-system deployment story of the paper's §1–2 running on the
// codec of §4–5.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"stair/internal/core"
	"stair/internal/failures"
	"stair/internal/store"
	"stair/internal/store/journal"
)

func main() {
	ctx := context.Background()
	// A RAID-6-like code (m=2) that additionally rides out a 2-sector
	// burst in one more chunk plus singles in two others, for 4 extra
	// parity sectors instead of two whole devices.
	code, err := core.New(core.Config{N: 8, R: 8, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		log.Fatal(err)
	}
	// A write-ahead intent journal makes stripe write-back
	// crash-consistent: every flush records its intent durably before
	// touching the devices, and a reopen replays whatever a crash left
	// pending.
	jdir, err := os.MkdirTemp("", "stair-store-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(jdir)
	j, err := journal.Open(filepath.Join(jdir, "journal.wal"))
	if err != nil {
		log.Fatal(err)
	}
	defer j.Close()
	// Stripes are independent recovery units, so the store runs them in
	// parallel: a sharded lock table lets writers on different stripes
	// flush at once, and a pool of repair workers heals in the
	// background.
	s, err := store.Open(store.Config{
		Code: code, SectorSize: 1024, Stripes: 32,
		RepairWorkers: 4, Journal: j,
		// Per-sector end-to-end checksums: every data sector carries a
		// self-describing record (sector address and volume epoch salted
		// into the digest) in a sidecar region after the data, and every
		// read verifies before returning.
		Integrity: &store.IntegrityOptions{Epoch: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	n, stripes, r, sector := s.Geometry()
	fmt.Printf("volume: %d devices × %d stripes × %d sectors × %d B = %d blocks (%d KiB user data)\n",
		n, stripes, r, sector, s.Blocks(), s.Blocks()*sector>>10)

	// Fill the volume. Sequential writes batch into whole stripes; the
	// write that fills a stripe journals an intent and encodes and
	// writes the stripe back before it returns. Sync is the durability
	// barrier: buffered stripes flushed, devices fsynced (where the
	// backend can), journal settled.
	rng := rand.New(rand.NewSource(7))
	blocks := make([][]byte, s.Blocks())
	for b := range blocks {
		blocks[b] = make([]byte, s.BlockSize())
		rng.Read(blocks[b])
		if err := s.WriteBlock(ctx, b, blocks[b]); err != nil {
			log.Fatal(err)
		}
	}
	if err := s.Sync(ctx); err != nil {
		log.Fatal(err)
	}
	st := s.Stats()
	fmt.Printf("filled: %d block writes → %d full-stripe encodes (%d journaled), %d sub-stripe updates\n\n",
		st.Writes, st.FullStripeFlushes, st.JournaledFlushes, st.SubStripeFlushes)

	// A small overwrite takes the §5.2 incremental path instead: only
	// the parity sectors depending on the changed blocks are rewritten.
	rng.Read(blocks[3])
	if err := s.WriteBlock(ctx, 3, blocks[3]); err != nil {
		log.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single-block overwrite: sub-stripe flushes now %d\n\n", s.Stats().SubStripeFlushes)

	// Silent corruption: flip a bit in a sector WITHOUT telling any
	// layer — the device keeps serving the rotten bytes as if they were
	// fine, the failure mode drive ECC misses. Erasure coding alone
	// cannot catch this (nothing reports an erasure); the per-sector
	// checksum does: the read verifies the payload against its record,
	// the mismatch becomes a located erasure, and the block is
	// reconstructed from the survivors and rewritten with a fresh
	// record.
	const rottenBlock = 5
	cell := code.DataCells()[rottenBlock] // block 5 sits in stripe 0
	if err := s.CorruptSectorSilently(cell.Col, cell.Row); err != nil {
		log.Fatal(err)
	}
	got, err := s.ReadBlock(ctx, rottenBlock)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, blocks[rottenBlock]) {
		log.Fatal("silent corruption served to the reader — integrity layer failed")
	}
	st = s.Stats()
	fmt.Printf("silent bit flip on device %d sector %d: caught by checksum, read returned correct data\n", cell.Col, cell.Row)
	fmt.Printf("checksum mismatches located: %d (each repaired as a located erasure)\n\n", st.ChecksumMismatches)

	// Background scrubber on, then a latent-sector-error campaign with
	// the paper's correlated burst model (§7.2.2), driven through the
	// fault driver the store's integration tests use.
	if err := s.StartScrubber(store.ScrubberOptions{Interval: 2 * time.Millisecond}); err != nil {
		log.Fatal(err)
	}
	dist, err := failures.NewBurstDist(0.98, 1.79, 2)
	if err != nil {
		log.Fatal(err)
	}
	lost, err := failures.InjectRandomBurstsOn(s, rng, 0.003, dist)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected %d latent sector errors; reading through the damage...\n", lost)
	verify(s, blocks)
	for s.TotalBadSectors() > 0 {
		time.Sleep(time.Millisecond)
	}
	s.Quiesce()
	st = s.Stats()
	fmt.Printf("scrubber healed everything: %d scrub hits, %d sectors repaired, %d degraded reads served\n\n",
		st.ScrubHits, st.RepairedSectors, st.DegradedReads)

	// The headline mixed-failure scenario: two devices die outright and
	// a fresh burst lands on a survivor. Reads keep flowing, degraded.
	fmt.Println("double device failure + a 2-sector burst on a survivor:")
	s.FailDevice(2)
	s.FailDevice(5)
	s.InjectBurst(0, 11, 2)
	verify(s, blocks)
	st = s.Stats()
	fmt.Printf("every block correct; %d degraded reads total (%d refused beyond coverage), %d unrecoverable stripes\n\n",
		st.DegradedReads, st.DegradedReadFallbacks, st.UnrecoverableStripes)

	// Replace one dead device and rebuild it sector by sector.
	if err := s.ReplaceDevice(2); err != nil {
		log.Fatal(err)
	}
	if err := s.RebuildDevice(ctx, 2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device 2 replaced and rebuilt (%d sectors reconstructed so far)\n\n", s.Stats().RepairedSectors)

	// Two more concurrent failures (device 5 is still down) exceed m=2:
	// the store reports the pattern — loudly, in errors and counters —
	// instead of serving corrupt data.
	s.FailDevice(1)
	s.FailDevice(3)
	deadBlock := -1
	for b, cell := range code.DataCells() {
		if cell.Col == 1 {
			deadBlock = b
			break
		}
	}
	if _, err := s.ReadBlock(ctx, deadBlock); err != nil {
		fmt.Printf("three devices down at once: %v\n", err)
	}
	fmt.Printf("unrecoverable stripes on record: %d\n", len(s.UnrecoverableStripes()))
}

func verify(s *store.Store, blocks [][]byte) {
	for b, want := range blocks {
		got, err := s.ReadBlock(context.Background(), b)
		if err != nil {
			log.Fatalf("block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			log.Fatalf("block %d corrupt", b)
		}
	}
}
