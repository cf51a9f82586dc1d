package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestEndToEnd drives the tool's command functions through a full
// encode → corrupt (device + burst + sector) → repair → verify → decode
// cycle in a temp directory.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	shards := filepath.Join(dir, "shards")

	data := make([]byte, 50000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := cmdEncode([]string{"-in", in, "-dir", shards, "-n", "8", "-r", "4", "-m", "2", "-e", "1,1,2", "-sector", "512"}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := cmdVerify([]string{"-dir", shards}); err != nil {
		t.Fatalf("verify fresh: %v", err)
	}
	// Kill two devices, flip a burst and a single sector.
	if err := cmdCorrupt([]string{"-dir", shards, "-device", "3"}); err != nil {
		t.Fatalf("corrupt device: %v", err)
	}
	if err := cmdCorrupt([]string{"-dir", shards, "-device", "6"}); err != nil {
		t.Fatalf("corrupt device: %v", err)
	}
	if err := cmdCorrupt([]string{"-dir", shards, "-device", "0", "-burst", "9:2"}); err != nil {
		t.Fatalf("corrupt burst: %v", err)
	}
	if err := cmdCorrupt([]string{"-dir", shards, "-device", "1", "-sector", "5"}); err != nil {
		t.Fatalf("corrupt sector: %v", err)
	}
	if err := cmdVerify([]string{"-dir", shards}); err == nil {
		t.Fatal("verify passed on corrupted shards")
	}
	if err := cmdStatus([]string{"-dir", shards}); err != nil {
		t.Fatalf("status: %v", err)
	}
	if err := cmdRepair([]string{"-dir", shards}); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if err := cmdVerify([]string{"-dir", shards}); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
	if err := cmdDecode([]string{"-dir", shards, "-out", out}); err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restored file differs from original")
	}
}

// TestRepairBeyondCoverageFails: destroying m+1 devices must make
// repair fail loudly, not silently corrupt.
func TestRepairBeyondCoverageFails(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	shards := filepath.Join(dir, "shards")
	data := make([]byte, 10000)
	rand.New(rand.NewSource(2)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdEncode([]string{"-in", in, "-dir", shards, "-n", "6", "-r", "4", "-m", "1", "-e", "1", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"0", "1"} {
		if err := cmdCorrupt([]string{"-dir", shards, "-device", dev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cmdRepair([]string{"-dir", shards}); err == nil {
		t.Fatal("repair of m+1 failed devices succeeded")
	}
}
