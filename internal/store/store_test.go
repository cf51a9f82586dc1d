package store

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"stair/internal/core"
)

// bg is the context test helpers thread through the store API when the
// test is not exercising cancellation.
var bg = context.Background()

func testCode(t testing.TB, cfg core.Config) *core.Code {
	t.Helper()
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// blockData returns a deterministic, block-specific payload.
func blockData(b, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte((b*131 + i*31 + 7) % 251)
	}
	return out
}

func fillStore(t testing.TB, s *Store) {
	t.Helper()
	for b := 0; b < s.Blocks(); b++ {
		if err := s.WriteBlock(bg, b, blockData(b, s.BlockSize())); err != nil {
			t.Fatalf("write block %d: %v", b, err)
		}
	}
	if err := s.Flush(bg); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func checkAllBlocks(t testing.TB, s *Store) {
	t.Helper()
	for b := 0; b < s.Blocks(); b++ {
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatalf("read block %d: %v", b, err)
		}
		if !bytes.Equal(got, blockData(b, s.BlockSize())) {
			t.Fatalf("block %d corrupt", b)
		}
	}
}

// checkStripesConsistent verifies every stripe's parity matches its data
// as stored on the devices.
func checkStripesConsistent(t testing.TB, s *Store) {
	t.Helper()
	for stripe := 0; stripe < s.stripes; stripe++ {
		sh := s.shard(stripe)
		sh.mu.Lock()
		st, ld, err := s.loadAll(bg, stripe, false)
		lost := ld.lost.Count()
		sh.mu.Unlock()
		if err != nil {
			t.Fatalf("stripe %d: %v", stripe, err)
		}
		if lost > 0 {
			t.Fatalf("stripe %d has %d lost cells", stripe, lost)
		}
		ok, err := s.code.Verify(st)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("stripe %d parity inconsistent", stripe)
		}
	}
}

func TestRoundTripMem(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	checkAllBlocks(t, s)
	checkStripesConsistent(t, s)
	st := s.Stats()
	if st.Writes != uint64(s.Blocks()) {
		t.Errorf("Writes=%d, want %d", st.Writes, s.Blocks())
	}
	if st.DegradedReads != 0 {
		t.Errorf("DegradedReads=%d on a healthy store", st.DegradedReads)
	}
	// Sequential fill writes whole stripes: every flush is a full encode.
	if st.FullStripeFlushes != uint64(s.stripes) || st.SubStripeFlushes != 0 {
		t.Errorf("flushes full=%d sub=%d, want %d/0", st.FullStripeFlushes, st.SubStripeFlushes, s.stripes)
	}
}

func TestRoundTripFileDevices(t *testing.T) {
	code := testCode(t, core.Config{N: 5, R: 3, M: 1, E: []int{2}})
	dir := t.TempDir()
	open := func() *Store {
		devs := make([]Device, code.N())
		for i := range devs {
			d, err := OpenFileDevice(filepath.Join(dir, "dev"+string(rune('a'+i))+".img"), 4*code.R(), 64)
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = d
		}
		s, err := Open(Config{Code: code, SectorSize: 64, Stripes: 4, Devices: devs})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	fillStore(t, s)
	if err := s.InjectSectorError(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Faults and content persist across reopen.
	s = open()
	defer s.Close()
	if got := s.TotalBadSectors(); got != 1 {
		t.Fatalf("TotalBadSectors=%d after reopen, want 1", got)
	}
	checkAllBlocks(t, s)
	if st := s.Stats(); st.DegradedReads == 0 {
		t.Error("expected a degraded read through the persisted bad sector")
	}
}

// TestSubStripeFlush checks the §5.2 incremental-parity path: partial
// writes into an already-encoded stripe must leave parity consistent and
// must not go through the full-stripe encoder.
func TestSubStripeFlush(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s)
	base := s.Stats()

	// Overwrite two blocks of stripe 1 with new content.
	for _, b := range []int{s.perStripe, s.perStripe + 5} {
		if err := s.WriteBlock(bg, b, blockData(b+1000, s.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SubStripeFlushes != base.SubStripeFlushes+1 {
		t.Errorf("SubStripeFlushes=%d, want %d", st.SubStripeFlushes, base.SubStripeFlushes+1)
	}
	if st.FullStripeFlushes != base.FullStripeFlushes {
		t.Errorf("FullStripeFlushes moved: %d → %d", base.FullStripeFlushes, st.FullStripeFlushes)
	}
	checkStripesConsistent(t, s)
	for b := 0; b < s.Blocks(); b++ {
		want := blockData(b, s.BlockSize())
		if b == s.perStripe || b == s.perStripe+5 {
			want = blockData(b+1000, s.BlockSize())
		}
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d wrong after sub-stripe update", b)
		}
	}
}

// TestReadYourWrites: buffered blocks are served from the stripe buffer
// before any flush.
func TestReadYourWrites(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := blockData(3, s.BlockSize())
	if err := s.WriteBlock(bg, 3, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBlock(bg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("buffered read returned stale data")
	}
	if st := s.Stats(); st.FullStripeFlushes+st.SubStripeFlushes != 0 {
		t.Fatal("read triggered a flush")
	}
}

// TestDirtyBound: exceeding MaxDirtyStripes evicts a buffered stripe.
func TestDirtyBound(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 6, MaxDirtyStripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One block in each of four stripes: the bound (2) forces evictions.
	for stripe := 0; stripe < 4; stripe++ {
		if err := s.WriteBlock(bg, stripe*s.perStripe, blockData(stripe, s.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	buffered := int(s.dirtyCount.Load())
	if buffered > 3 {
		t.Fatalf("%d stripes buffered, bound is 2 (+1 hot)", buffered)
	}
	if st := s.Stats(); st.SubStripeFlushes == 0 {
		t.Error("no eviction flush happened")
	}
}

func TestOpenValidation(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	for _, cfg := range []Config{
		{Code: nil, SectorSize: 128, Stripes: 1},
		{Code: code, SectorSize: 0, Stripes: 1},
		{Code: code, SectorSize: 128, Stripes: 0},
		{Code: code, SectorSize: 128, Stripes: 1, Devices: []Device{NewMemDevice(4, 128)}},
		{Code: code, SectorSize: 128, Stripes: 1, RepairWorkers: -1},
	} {
		if _, err := Open(cfg); err == nil {
			t.Errorf("Open(%+v) accepted an invalid config", cfg)
		}
	}
	outside := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1}, Placement: core.Outside})
	if _, err := Open(Config{Code: outside, SectorSize: 128, Stripes: 1}); err == nil {
		t.Error("Open accepted Outside placement")
	}
}

func TestBlockRange(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.ReadBlock(bg, s.Blocks()); err == nil {
		t.Error("read past the end accepted")
	}
	if err := s.WriteBlock(bg, -1, make([]byte, s.BlockSize())); err == nil {
		t.Error("negative block write accepted")
	}
	if err := s.WriteBlock(bg, 0, make([]byte, 7)); err == nil {
		t.Error("short write accepted")
	}
}

func TestClosedStore(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	s, err := Open(Config{Code: code, SectorSize: 128, Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close: %v, want ErrClosed", err)
	}
	if _, err := s.ReadBlock(bg, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v, want ErrClosed", err)
	}
	if err := s.WriteBlock(bg, 0, make([]byte, s.BlockSize())); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v, want ErrClosed", err)
	}
	if _, err := s.Scrub(bg); !errors.Is(err, ErrClosed) {
		t.Errorf("scrub after close: %v, want ErrClosed", err)
	}
}
