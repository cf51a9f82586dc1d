package core

import (
	"testing"
)

func TestEncodeParallelMatchesSerial(t *testing.T) {
	for _, cfg := range []Config{
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}},
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, Placement: Outside},
		{N: 6, R: 8, M: 1, E: []int{1, 3}, W: 16},
	} {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sectorSize := 64 * c.Field().SymbolBytes()
		serial, _ := c.NewStripe(sectorSize)
		fillData(t, c, serial, 77)
		if err := c.Encode(serial); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 3, 7} {
			par, _ := c.NewStripe(sectorSize)
			fillData(t, c, par, 77)
			if err := c.EncodeParallel(par, MethodAuto, workers); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !stripesEqual(serial, par) {
				t.Fatalf("cfg %v workers=%d: parallel encode differs from serial", cfg, workers)
			}
		}
	}
}

func TestEncodeParallelAllMethods(t *testing.T) {
	c := exemplary(t, Inside)
	want, _ := c.NewStripe(48)
	fillData(t, c, want, 5)
	if err := c.Encode(want); err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodUpstairs, MethodDownstairs, MethodStandard} {
		st, _ := c.NewStripe(48)
		fillData(t, c, st, 5)
		if err := c.EncodeParallel(st, m, 4); err != nil {
			t.Fatal(err)
		}
		if !stripesEqual(st, want) {
			t.Fatalf("method %v: parallel differs", m)
		}
	}
}

func TestRepairParallelMatchesSerial(t *testing.T) {
	c := exemplary(t, Inside)
	lost := worstCaseLost(c)
	st, want := encodeAndBreak(t, c, lost, 13)
	if err := c.RepairParallel(st, lost, 3); err != nil {
		t.Fatal(err)
	}
	if !stripesEqual(st, want) {
		t.Fatal("parallel repair produced wrong bytes")
	}
	// Beyond-coverage patterns still rejected.
	var tooMany []Cell
	for col := 0; col < 3; col++ {
		for row := 0; row < c.R(); row++ {
			tooMany = append(tooMany, Cell{Col: col, Row: row})
		}
	}
	if err := c.RepairParallel(st, tooMany, 3); err == nil {
		t.Error("parallel repair accepted unrecoverable pattern")
	}
	// Empty pattern is a no-op.
	if err := c.RepairParallel(st, nil, 3); err != nil {
		t.Errorf("empty pattern: %v", err)
	}
}

func TestParallelValidation(t *testing.T) {
	c := exemplary(t, Inside)
	st, _ := c.NewStripe(16)
	if err := c.EncodeParallel(st, MethodAuto, -1); err == nil {
		t.Error("negative workers accepted")
	}
	if err := c.RepairParallel(st, []Cell{{0, 0}}, -1); err == nil {
		t.Error("negative workers accepted in repair")
	}
	if err := c.EncodeParallel(nil, MethodAuto, 1); err == nil {
		t.Error("nil stripe accepted")
	}
}

func TestSplitRanges(t *testing.T) {
	cases := []struct {
		size, align, workers int
		want                 int // expected range count
	}{
		{100, 1, 4, 4},
		{100, 1, 1, 1},
		{100, 1, 0, 1},
		{8, 2, 8, 4}, // only 4 symbols available
		{6, 2, 2, 2},
		{2, 2, 5, 1},
		{2*8192 + 130, 8192, 4, 2}, // ragged tail rides with the last tile
	}
	for _, tc := range cases {
		got := splitRanges(tc.size, tc.align, tc.workers)
		if len(got) != tc.want {
			t.Errorf("splitRanges(%d,%d,%d) gave %d ranges, want %d",
				tc.size, tc.align, tc.workers, len(got), tc.want)
		}
		// Ranges must tile [0, size) contiguously and be aligned.
		off := 0
		for _, rg := range got {
			if rg[0] != off {
				t.Fatalf("range gap at %d: %v", off, got)
			}
			if rg[0]%tc.align != 0 || (rg[1]%tc.align != 0 && rg[1] != tc.size) {
				t.Fatalf("unaligned range %v", rg)
			}
			if rg[1] <= rg[0] {
				t.Fatalf("empty range %v", rg)
			}
			off = rg[1]
		}
		if off != tc.size {
			t.Fatalf("ranges do not cover size %d: %v", tc.size, got)
		}
	}
}

// TestEncodeParallelOddSectorW16: w=16 alignment (2-byte symbols) must be
// preserved when splitting.
func TestEncodeParallelOddSectorW16(t *testing.T) {
	c, err := New(Config{N: 6, R: 4, M: 1, E: []int{2}, W: 16})
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := c.NewStripe(10) // 5 symbols: awkward split
	fillData(t, c, serial, 3)
	if err := c.Encode(serial); err != nil {
		t.Fatal(err)
	}
	par, _ := c.NewStripe(10)
	fillData(t, c, par, 3)
	if err := c.EncodeParallel(par, MethodAuto, 4); err != nil {
		t.Fatal(err)
	}
	if !stripesEqual(serial, par) {
		t.Fatal("w=16 parallel encode differs from serial")
	}
}
