package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stair/internal/gf"
	"stair/internal/rs"
)

var update = flag.Bool("update", false, "rewrite the golden digests under internal/ec/testdata")

// TestGoldenRowSolvesAndRS pins, for the paper's example (also forced to
// GF(2^16)), the benchmark ledger's geometry and its Reed-Solomon
// degeneration, the row-local solve of
// every set of 1..m lost columns (sources, each plan's ops, cells and
// stages), the compiled plan of each encode method and the peel's decode
// plan of every set of 1..m lost columns (ops, cells, stages and
// sources), and the parity bytes C_row's and C_col's EncodeRegions write,
// as FNV-64 digests.
func TestGoldenRowSolvesAndRS(t *testing.T) {
	var lines []string
	for _, cfg := range []Config{
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}},
		{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, W: 16},
		{N: 8, R: 16, M: 2, E: []int{1, 1, 2}},
		{N: 8, R: 16, M: 2},
	} {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("n=%d r=%d m=%d e=%v W=%d", cfg.N, cfg.R, cfg.M, cfg.E, cfg.W)
		var sets [][]int
		for a := 0; a < c.n; a++ {
			sets = append(sets, []int{a})
			for b := a + 1; b < c.n && c.m >= 2; b++ {
				sets = append(sets, []int{a, b})
			}
		}
		for _, set := range sets {
			rsv, err := c.rowSolveFor(set)
			if err != nil {
				t.Fatal(err)
			}
			line := fmt.Sprintf("%s row %v: have=%v", name, set, rsv.have)
			for _, p := range rsv.plans {
				line += fmt.Sprintf(" ops=%016x cells=%v stages=%d", opsDigest(c.f, p.ops), p.cells, p.stages)
			}
			lines = append(lines, line)
		}
		for _, m := range []Method{MethodUpstairs, MethodDownstairs, MethodStandard} {
			p, err := c.planFor(m)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s plan %v: %s", name, m, planDigest(c.f, p)))
		}
		for _, set := range sets {
			lost := NewPattern(c.n, c.r)
			for _, col := range set {
				for row := 0; row < c.r; row++ {
					lost.Set(col*c.r + row)
				}
			}
			p, err := c.peelPlan(lost, lost)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s decode %v: %s", name, set, planDigest(c.f, p)))
		}
		for _, rc := range []struct {
			name string
			code *rs.Code
			eta  int
		}{{"crow", c.crow, c.cols}, {"ccol", c.ccol, c.rows}} {
			line := fmt.Sprintf("%s %s:", name, rc.name)
			for _, size := range []int{62, 4102} {
				rng := rand.New(rand.NewSource(int64(size)))
				data := make([][]byte, rc.code.Kappa())
				for i := range data {
					data[i] = make([]byte, size)
					rng.Read(data[i])
				}
				parity := make([][]byte, rc.eta-rc.code.Kappa())
				h := fnv.New64a()
				for i := range parity {
					parity[i] = make([]byte, size)
					for j := range parity[i] {
						parity[i][j] = 0xA5 // EncodeRegions overwrites
					}
				}
				if err := rc.code.EncodeRegions(data, parity); err != nil {
					t.Fatal(err)
				}
				for _, p := range parity {
					h.Write(p)
				}
				line += fmt.Sprintf(" parity%d=%016x", size, h.Sum64())
			}
			lines = append(lines, line)
		}
	}
	checkGolden(t, "core.golden", lines)
}

// opsDigest hashes an op list over N, Acc, Src, the destinations and
// each table's coefficient; a zero-fill (N == 0) hashes its one
// destination.
func opsDigest(f *gf.Field, ops []gf.Op) uint64 {
	h := fnv.New64a()
	var b []byte
	put := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	for _, o := range ops {
		put(uint64(o.N))
		if o.Acc {
			put(1)
		} else {
			put(0)
		}
		put(uint64(o.Src))
		for j := range max(int(o.N), 1) {
			put(uint64(o.Dst[j]))
			if j < int(o.N) {
				put(uint64(tableCoeff(f, o.Tab[j])))
			}
		}
	}
	h.Write(b)
	return h.Sum64()
}

// planDigest describes a compiled plan: its op list's digest, a digest of
// its cells, its stage count and a digest of its sources.
func planDigest(f *gf.Field, p *plan) string {
	h := fnv.New64a()
	for _, i := range p.cells {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(i)))
	}
	cells := h.Sum64()
	h.Reset()
	for _, cell := range p.sources.AppendCells(nil) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(cell.Col)<<32|uint64(cell.Row)))
	}
	return fmt.Sprintf("ops=%016x cells=%016x stages=%d sources=%016x", opsDigest(f, p.ops), cells, p.stages, h.Sum64())
}

// tableCoeff recovers a table's coefficient as its product with the
// symbol 1, through the field's own kernel.
func tableCoeff(f *gf.Field, tab *gf.MulTable) uint32 {
	cells := [][]byte{{1, 0}, {0, 0}}
	f.Kernel().RunOps([]gf.Op{{N: 1, Dst: [4]int32{1}, Tab: [4]*gf.MulTable{tab}}}, cells, 0, 2)
	return uint32(cells[1][0]) | uint32(cells[1][1])<<8
}

// checkGolden compares lines with internal/ec/testdata/name, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("..", "ec", "testdata", name)
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wl := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wl) != len(lines) {
		t.Fatalf("%s: %d lines, want %d", name, len(lines), len(wl))
	}
	for i := range lines {
		if lines[i] != wl[i] {
			t.Errorf("%s line %d:\n got %s\nwant %s", name, i+1, lines[i], wl[i])
		}
	}
}
