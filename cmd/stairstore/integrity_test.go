package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestSilentCorruptionEndToEnd drives the tentpole property through the
// CLI: create (integrity on by default) → put → corrupt -silent → get
// detects and repairs → scrub comes back clean. That the flip really
// lands in payload is TestSilentCorruptionControlOff's half.
func TestSilentCorruptionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "vol")
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")

	data := make([]byte, 20000)
	rand.New(rand.NewSource(9)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := cmdCreate(bg, []string{"-dir", vol, "-n", "6", "-r", "4", "-m", "2", "-e", "1,2",
		"-stripes", "8", "-sector", "512"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	meta, err := loadMeta(vol)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Integrity {
		t.Fatal("create did not default the integrity layer on")
	}
	if err := cmdPut(bg, []string{"-dir", vol, "-in", in}); err != nil {
		t.Fatalf("put: %v", err)
	}

	// Flip a bit of device 2 sector 0 without registering any fault.
	if err := cmdCorrupt(bg, []string{"-dir", vol, "-device", "2", "-sector", "0", "-silent"}); err != nil {
		t.Fatalf("corrupt -silent: %v", err)
	}

	// A full get must detect the lie and return the ORIGINAL bytes.
	if err := cmdGet(bg, []string{"-dir", vol, "-out", out, "-bytes", "20000"}); err != nil {
		t.Fatalf("get: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("get returned rotten bytes despite the integrity layer")
	}
	meta, err = loadMeta(vol)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Stats.ChecksumMismatches == 0 {
		t.Error("persisted stats show no checksum mismatch for the detected flip")
	}

	// Corrupt again and let the scrubber find it instead of a read.
	if err := cmdCorrupt(bg, []string{"-dir", vol, "-device", "3", "-sector", "5", "-silent"}); err != nil {
		t.Fatalf("corrupt -silent: %v", err)
	}
	if err := cmdScrub(bg, []string{"-dir", vol}); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	// After the scrub's repairs, another scrub and a full read are clean.
	before, err := loadMeta(vol)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdScrub(bg, []string{"-dir", vol}); err != nil {
		t.Fatalf("second scrub: %v", err)
	}
	after, err := loadMeta(vol)
	if err != nil {
		t.Fatal(err)
	}
	if diff := after.Stats.ChecksumMismatches - before.Stats.ChecksumMismatches; diff != 0 {
		t.Errorf("second scrub found %d new mismatches, want 0 (repair did not stick)", diff)
	}
	if err := cmdGet(bg, []string{"-dir", vol, "-out", out, "-bytes", "20000"}); err != nil {
		t.Fatalf("get after scrub: %v", err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, data) {
		t.Fatal("data corrupt after scrub repair")
	}
	if after.Stats.UnrecoverableStripes != 0 {
		t.Errorf("%d unrecoverable stripes from in-coverage silent flips", after.Stats.UnrecoverableStripes)
	}
}

// TestSilentCorruptionControlOff is the negative control: the identical
// flip, looked at underneath the store. The sector of the device image
// it hits holds bytes `put` wrote, and afterwards it holds different
// ones — so the clean get above is the integrity layer's doing, not a
// corruption that never landed. (What a read serves with verification
// off is internal/store's TestIntegrityOffServesRottenBytes.)
func TestSilentCorruptionControlOff(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "vol")
	in := filepath.Join(dir, "in.bin")

	data := make([]byte, 20000)
	rand.New(rand.NewSource(9)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCreate(bg, []string{"-dir", vol, "-n", "6", "-r", "4", "-m", "2", "-e", "1,2",
		"-stripes", "8", "-sector", "512"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := cmdPut(bg, []string{"-dir", vol, "-in", in}); err != nil {
		t.Fatalf("put: %v", err)
	}
	// A device image is its sectors back to back, so device 2 sector 0
	// is the image's first 512 bytes.
	sector0 := func() []byte {
		img, err := os.ReadFile(devicePath(vol, 2))
		if err != nil {
			t.Fatal(err)
		}
		return img[:512]
	}
	written := sector0()
	if !bytes.Contains(data, written) {
		t.Fatal("device 2 sector 0 does not hold user data put wrote — the flip would not be visible to a get")
	}
	if err := cmdCorrupt(bg, []string{"-dir", vol, "-device", "2", "-sector", "0", "-silent"}); err != nil {
		t.Fatalf("corrupt -silent: %v", err)
	}
	if bytes.Equal(sector0(), written) {
		t.Fatal("corrupt -silent left the sector as put wrote it — the corruption did not land, so the positive test proves nothing")
	}
}
