package sd

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

	"stair/internal/ec"
	"stair/internal/gf"
)

var update = flag.Bool("update", false, "rewrite the golden digests under internal/ec/testdata")

// goldenConfigs lists every SD configuration the repository builds: this
// package's tests, ec's conformance test, the benchmark probe, stairbench's
// fig15 and the root Figs. 11–13 benchmarks; then the small test shapes
// again forced to GF(2^16).
func goldenConfigs() []Config {
	cfgs := []Config{
		{N: 8, R: 4, M: 2, S: 2}, {N: 8, R: 4, M: 2, S: 0}, {N: 8, R: 4, M: 0, S: 1},
		{N: 8, R: 4, M: 1, S: 1}, {N: 8, R: 4, M: 2, S: 3}, {N: 6, R: 8, M: 1, S: 2},
		{N: 8, R: 4, M: 3, S: 1}, {N: 8, R: 8, M: 2, S: 3}, {N: 8, R: 8, M: 2, S: 3, W: 8},
		{N: 8, R: 4, M: 2, S: 2, W: 16}, {N: 16, R: 16, M: 2, S: 3}, {N: 16, R: 16, M: 2, S: 2},
		{N: 8, R: 16, M: 2, S: 4},
	}
	for m := 1; m <= 3; m++ {
		for s := 1; s <= 3; s++ {
			cfgs = append(cfgs, Config{N: 16, R: 16, M: m, S: s})
		}
	}
	for _, p := range [][2]int{{8, 16}, {16, 16}, {32, 16}, {16, 8}, {16, 32}} {
		for _, s := range []int{1, 3} {
			cfgs = append(cfgs, Config{N: p[0], R: p[1], M: 2, S: s})
		}
	}
	for _, p := range [][2]int{{8, 16}, {16, 16}, {16, 8}, {16, 32}} {
		for _, m := range []int{1, 2} {
			cfgs = append(cfgs, Config{N: p[0], R: p[1], M: m, S: 3})
		}
	}
	for _, cfg := range cfgs[:8] {
		cfg.W = 16
		cfgs = append(cfgs, cfg)
	}
	seen := map[Config]bool{}
	out := cfgs[:0]
	for _, cfg := range cfgs {
		if !seen[cfg] {
			seen[cfg] = true
			out = append(out, cfg)
		}
	}
	return out
}

// TestGoldenSolves pins, per configuration, the field width and salt the
// construction settles on, the encode solve's ops and terms, the parity
// bytes Encode writes, and the repair solves of the worst pattern and of
// a seeded covered sample, as FNV-64 digests.
func TestGoldenSolves(t *testing.T) {
	var lines []string
	for _, cfg := range goldenConfigs() {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		enc := c.lin.EncodeSolve()
		line := fmt.Sprintf("n=%d r=%d m=%d s=%d W=%d: w=%d salt=%d encode=%016x terms=%d",
			cfg.N, cfg.R, cfg.M, cfg.S, cfg.W, c.W(), goldenSalt(t, c), opsDigest(c.f, enc.Ops), enc.Terms)
		for _, size := range []int{62, 4102} {
			cells := newStripe(c, size, int64(size))
			if err := c.Encode(cells); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, cell := range cells {
				h.Write(cell)
			}
			line += fmt.Sprintf(" parity%d=%016x", size, h.Sum64())
		}
		rng := rand.New(rand.NewSource(int64(cfg.N*1000 + cfg.R*100 + cfg.M*10 + cfg.S)))
		for i, lost := range [][]ec.Cell{worstPattern(c), c.randomCoveredPattern(rng)} {
			s, err := c.lin.Solve(lost)
			if err != nil {
				t.Fatal(err)
			}
			line += fmt.Sprintf(" repair%d=%016x", i, opsDigest(c.f, s.Ops))
		}
		lines = append(lines, line)
	}
	checkGolden(t, "sd.golden", lines)
}

// goldenSalt finds the salt whose parity-check matrix c was built from.
func goldenSalt(t *testing.T, c *Code) int {
	for salt := 0; salt < 50; salt++ {
		d := &Code{n: c.n, r: c.r, m: c.m, s: c.s, f: c.f}
		d.indexCells()
		d.buildH(salt)
		same := true
		for i := 0; i < c.h.Rows() && same; i++ {
			for j := 0; j < c.h.Cols() && same; j++ {
				same = d.h.At(i, j) == c.h.At(i, j)
			}
		}
		if same {
			return salt
		}
	}
	t.Fatalf("n=%d r=%d m=%d s=%d: no salt rebuilds H", c.n, c.r, c.m, c.s)
	return -1
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
