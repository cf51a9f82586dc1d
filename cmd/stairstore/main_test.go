package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"stair/internal/core"
	"stair/internal/store"
	"stair/internal/store/integrity"
	"stair/internal/store/journal"
)

var bg = context.Background()

// TestEndToEnd drives the CLI commands through a full lifecycle:
// create → put → get → fail-device → degraded get → corrupt → scrub →
// replace/rebuild → get. Each case fails m=2 devices and puts one burst
// and one single bad sector on two further chunks; the bytes must come
// back equal after the degraded get, the scrub and the rebuild.
func TestEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name   string
		create []string // geometry flags for create
		size   int      // bytes put and got back
		fail   []string // devices failed, then replaced
		burst  []string // device, start:len
		sector []string // device, sector
	}{
		{
			name: "n6-e1,2",
			create: []string{"-n", "6", "-r", "4", "-m", "2", "-e", "1,2", "-stripes", "8", "-sector", "512",
				"-repair-workers", "2"},
			size: 30000, fail: []string{"1", "4"}, burst: []string{"0", "5:2"}, sector: []string{"3", "9"},
		},
		{
			name:   "n8-e1,1,2",
			create: []string{"-n", "8", "-r", "4", "-m", "2", "-e", "1,1,2", "-stripes", "8", "-sector", "512"},
			size:   50000, fail: []string{"3", "6"}, burst: []string{"0", "9:2"}, sector: []string{"1", "5"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			vol := filepath.Join(dir, "vol")
			in := filepath.Join(dir, "in.bin")
			out := filepath.Join(dir, "out.bin")

			data := make([]byte, tc.size)
			rand.New(rand.NewSource(5)).Read(data)
			if err := os.WriteFile(in, data, 0o644); err != nil {
				t.Fatal(err)
			}

			if err := cmdCreate(bg, append([]string{"-dir", vol}, tc.create...)); err != nil {
				t.Fatalf("create: %v", err)
			}
			if err := cmdCreate(bg, []string{"-dir", vol}); err == nil {
				t.Fatal("create over an existing volume accepted")
			}
			if err := cmdPut(bg, []string{"-dir", vol, "-in", in}); err != nil {
				t.Fatalf("put: %v", err)
			}
			get := func(stage string) {
				t.Helper()
				if err := cmdGet(bg, []string{"-dir", vol, "-out", out, "-bytes", strconv.Itoa(tc.size)}); err != nil {
					t.Fatalf("get %s: %v", stage, err)
				}
				got, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("get %s: data corrupt", stage)
				}
			}
			get("fresh")

			// Two device failures plus in-coverage latent errors: reads
			// must stay correct (served degraded), scrub must heal the
			// survivors.
			for _, dev := range tc.fail {
				if err := cmdFailDevice(bg, []string{"-dir", vol, "-device", dev}); err != nil {
					t.Fatalf("fail-device %s: %v", dev, err)
				}
			}
			if err := cmdCorrupt(bg, []string{"-dir", vol, "-device", tc.burst[0], "-burst", tc.burst[1]}); err != nil {
				t.Fatalf("corrupt: %v", err)
			}
			if err := cmdCorrupt(bg, []string{"-dir", vol, "-device", tc.sector[0], "-sector", tc.sector[1]}); err != nil {
				t.Fatalf("corrupt: %v", err)
			}
			get("degraded")
			if err := cmdScrub(bg, []string{"-dir", vol}); err != nil {
				t.Fatalf("scrub: %v", err)
			}
			get("after scrub")

			// Replace and rebuild the dead devices, then verify full health.
			for _, dev := range tc.fail {
				if err := cmdReplace(bg, []string{"-dir", vol, "-device", dev}); err != nil {
					t.Fatalf("replace %s: %v", dev, err)
				}
			}
			if err := cmdStats(bg, []string{"-dir", vol}); err != nil {
				t.Fatalf("stats: %v", err)
			}
			get("after rebuild")

			// Persistent stats recorded the degraded reads and repairs.
			meta, err := loadMeta(vol)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Stats.DegradedReads == 0 {
				t.Error("persisted stats show no degraded reads")
			}
			if meta.Stats.RepairedSectors == 0 {
				t.Error("persisted stats show no repairs")
			}
			if meta.Stats.UnrecoverableStripes != 0 {
				t.Errorf("persisted stats show %d unrecoverable stripes within coverage", meta.Stats.UnrecoverableStripes)
			}
		})
	}
}

// TestBeyondCoverage: with m+1 devices down, get must fail loudly and
// the stats must record unrecoverable stripes — never corrupt output.
func TestBeyondCoverage(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "vol")
	in := filepath.Join(dir, "in.bin")

	data := make([]byte, 8000)
	rand.New(rand.NewSource(6)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCreate(bg, []string{"-dir", vol, "-n", "6", "-r", "4", "-m", "1", "-e", "1", "-stripes", "4", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPut(bg, []string{"-dir", vol, "-in", in}); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"0", "1"} {
		if err := cmdFailDevice(bg, []string{"-dir", vol, "-device", dev}); err != nil {
			t.Fatal(err)
		}
	}
	err := cmdGet(bg, []string{"-dir", vol, "-out", filepath.Join(dir, "out.bin"), "-bytes", "8000"})
	if err == nil {
		t.Fatal("get beyond coverage succeeded")
	}
	if !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("get error %q does not name the unrecoverable pattern", err)
	}
	meta, err := loadMeta(vol)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Stats.UnrecoverableStripes == 0 {
		t.Error("persisted stats show no unrecoverable stripes")
	}
}

// TestRepairBeyondCoverageFails: with m+1 devices down, replacing and
// rebuilding them must leave the stripes marked unrecoverable, and a
// get afterwards must still fail — the rebuild must not write
// reconstructed garbage that later reads back as data.
func TestRepairBeyondCoverageFails(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "vol")
	in := filepath.Join(dir, "in.bin")

	data := make([]byte, 10000)
	rand.New(rand.NewSource(2)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCreate(bg, []string{"-dir", vol, "-n", "6", "-r", "4", "-m", "1", "-e", "1", "-stripes", "4", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPut(bg, []string{"-dir", vol, "-in", in}); err != nil {
		t.Fatal(err)
	}
	devs := []string{"0", "1"}
	for _, dev := range devs {
		if err := cmdFailDevice(bg, []string{"-dir", vol, "-device", dev}); err != nil {
			t.Fatal(err)
		}
	}
	for _, dev := range devs {
		if err := cmdReplace(bg, []string{"-dir", vol, "-device", dev}); err != nil {
			t.Fatalf("replace %s: %v", dev, err)
		}
	}
	if err := cmdScrub(bg, []string{"-dir", vol}); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	meta, err := loadMeta(vol)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Stats.UnrecoverableStripes == 0 {
		t.Error("persisted stats show no unrecoverable stripes after rebuilding m+1 devices")
	}
	err = cmdGet(bg, []string{"-dir", vol, "-out", filepath.Join(dir, "out.bin"), "-bytes", "10000"})
	if err == nil {
		t.Fatal("get after rebuilding m+1 failed devices succeeded")
	}
	if !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("get error %q does not name the unrecoverable pattern", err)
	}
}

// TestRecoverCommand fabricates the on-disk state a crash
// mid-write-back leaves behind — a pending journal intent plus a parity
// sector that disagrees with the stripe's data — and checks that
// `stairstore recover` rolls the stripe forward and reports it.
func TestRecoverCommand(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "vol")
	in := filepath.Join(dir, "in.bin")
	data := make([]byte, 6000)
	rand.New(rand.NewSource(7)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCreate(bg, []string{"-dir", vol, "-n", "6", "-r", "4", "-m", "1", "-e", "1", "-stripes", "4", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPut(bg, []string{"-dir", vol, "-in", in}); err != nil {
		t.Fatal(err)
	}

	// Crash forensics by hand: an uncommitted intent for stripe 0 in
	// the journal, and one of stripe 0's parity sectors torn (the
	// write-back died between its data and parity phases).
	code, err := core.New(core.Config{N: 6, R: 4, M: 1, E: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := loadMeta(vol)
	if err != nil {
		t.Fatal(err)
	}
	_, devSectors, err := meta.geometry()
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(journalPath(vol))
	if err != nil {
		t.Fatal(err)
	}
	// The intent's digests describe the data already on the devices
	// (the data phase completed): each block's salted CRC32C under the
	// volume's integrity epoch, as its sidecar record holds it.
	var ords []int
	var digests []uint32
	buf := make([]byte, meta.SectorSize)
	for ord, cell := range code.DataCells() {
		d, err := store.OpenFileDevice(devicePath(vol, cell.Col), devSectors, meta.SectorSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.ReadSector(bg, d, cell.Row, buf); err != nil {
			t.Fatal(err)
		}
		d.Close()
		ords = append(ords, ord)
		digests = append(digests, integrity.Sum(meta.IntegrityEpoch, cell.Col, cell.Row, buf))
	}
	if _, err := j.Append(0, ords, nil, digests); err != nil {
		t.Fatal(err)
	}
	j.Close()
	parity := code.ParityCells()[0]
	pd, err := store.OpenFileDevice(devicePath(vol, parity.Col), devSectors, meta.SectorSize)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, meta.SectorSize)
	for i := range torn {
		torn[i] = 0xA5
	}
	if err := store.WriteSector(bg, pd, parity.Row, torn); err != nil {
		t.Fatal(err)
	}
	pd.Close()

	if err := cmdRecover(bg, []string{"-dir", vol}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	meta, err = loadMeta(vol)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Stats.RecoveredStripes != 1 {
		t.Errorf("persisted RecoveredStripes=%d, want 1", meta.Stats.RecoveredStripes)
	}
	// The data survived and the volume is clean: a second recover has
	// nothing to replay, and a degraded-free get round-trips.
	if err := cmdRecover(bg, []string{"-dir", vol}); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	out := filepath.Join(dir, "out.bin")
	if err := cmdGet(bg, []string{"-dir", vol, "-out", out, "-bytes", "6000"}); err != nil {
		t.Fatalf("get after recover: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupt after crash recovery")
	}
}

// TestRetiredCacheKeyIgnored: a volume.json written while the store had
// a degraded-stripe cache carries a "degraded_cache" key, one written
// while the lock-table width was a setting a "lock_shards" key, and one
// written while flushes could run on background workers a
// "flush_workers" key; such a volume still opens and serves get and
// stats, and the next save drops the key.
func TestRetiredCacheKeyIgnored(t *testing.T) {
	for _, key := range []string{"degraded_cache", "lock_shards", "flush_workers"} {
		t.Run(key, func(t *testing.T) { testRetiredKeyIgnored(t, key) })
	}
}

func testRetiredKeyIgnored(t *testing.T, key string) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "vol")
	in := filepath.Join(dir, "in.bin")
	data := make([]byte, 4000)
	rand.New(rand.NewSource(9)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCreate(bg, []string{"-dir", vol, "-n", "6", "-r", "4", "-m", "1", "-e", "1", "-stripes", "4", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPut(bg, []string{"-dir", vol, "-in", in}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metaPath(vol))
	if err != nil {
		t.Fatal(err)
	}
	var desc map[string]any
	if err := json.Unmarshal(raw, &desc); err != nil {
		t.Fatal(err)
	}
	desc[key] = 4
	if raw, err = json.MarshalIndent(desc, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath(vol), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "out.bin")
	if err := cmdGet(bg, []string{"-dir", vol, "-out", out, "-bytes", "4000"}); err != nil {
		t.Fatalf("get: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip through a descriptor with the retired key corrupt")
	}
	if err := cmdStats(bg, []string{"-dir", vol}); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if raw, err = os.ReadFile(metaPath(vol)); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"`+key+`"`)) {
		t.Errorf("re-saved volume.json still carries the retired %s key", key)
	}
}

// TestMismatchedDescriptorLeavesImagesAlone: a volume.json edited to
// fewer stripes must not mount — at the wrong geometry the device images
// would be cut to size, data and integrity records with them, and a
// later mount at the right geometry would serve zeros as data. Once the
// descriptor is restored, every byte reads back.
func TestMismatchedDescriptorLeavesImagesAlone(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "vol")
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	data := make([]byte, 80<<10)
	rand.New(rand.NewSource(11)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCreate(bg, []string{"-dir", vol, "-stripes", "8", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPut(bg, []string{"-dir", vol, "-in", in}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(devicePath(vol, 0))
	if err != nil {
		t.Fatal(err)
	}
	size := info.Size()

	editStripes := func(stripes int) {
		t.Helper()
		raw, err := os.ReadFile(metaPath(vol))
		if err != nil {
			t.Fatal(err)
		}
		var desc map[string]any
		if err := json.Unmarshal(raw, &desc); err != nil {
			t.Fatal(err)
		}
		desc["stripes"] = stripes
		if raw, err = json.MarshalIndent(desc, "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath(vol), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	editStripes(2)
	if err := cmdStats(bg, []string{"-dir", vol}); err == nil {
		t.Error("stats mounted a descriptor with fewer stripes than the images hold")
	}
	for i := 0; i < 8; i++ {
		info, err := os.Stat(devicePath(vol, i))
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != size {
			t.Fatalf("dev %d image went %d → %d bytes under the wrong descriptor", i, size, info.Size())
		}
	}
	editStripes(8)
	if err := cmdGet(bg, []string{"-dir", vol, "-out", out, "-bytes", strconv.Itoa(len(data))}); err != nil {
		t.Fatalf("get: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("get after restoring the descriptor returned different bytes")
	}
}
