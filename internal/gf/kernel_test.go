package gf

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// refMulTable builds a MulTable for coefficient c straight from log/exp
// arithmetic, independently of buildTables, so table construction and
// kernels are both under test.
func refMulTable(f *Field, c uint32) *MulTable {
	t := &MulTable{}
	for a := 0; a < 256; a++ {
		t.Row[a] = byte(f.mulSlow(c, uint32(a)&uint32(f.mask)))
	}
	for x := 0; x < 16; x++ {
		t.Lo[x] = t.Row[x]
		t.Hi[x] = t.Row[(x<<4)&int(f.mask)]
	}
	t.Gfni = gfniMatrix(&t.Row)
	return t
}

// refMultXOR is the plain byte loop every kernel must agree with.
func refMultXOR(dst, src []byte, t *MulTable) {
	for i, v := range src {
		dst[i] ^= t.Row[v]
	}
}

func refMulRegion(dst, src []byte, t *MulTable) {
	for i, v := range src {
		dst[i] = t.Row[v]
	}
}

// runOn runs dsts[i] (^)= tabs[i]·src on kernel k as the op list a plan
// compiles: cell 0 is src, cells 1.. the destinations.
func runOn(k Kernel, dsts [][]byte, src []byte, tabs []*MulTable, acc bool) {
	idx := make([]int32, len(dsts))
	for i := range idx {
		idx[i] = int32(i + 1)
	}
	k.RunOps(AppendOps(nil, acc, 0, idx, tabs), append([][]byte{src}, dsts...), 0, len(src))
}

// mulOn is runOn for one destination: a one-op RunOps.
func mulOn(k Kernel, dst, src []byte, t *MulTable, acc bool) {
	runOn(k, [][]byte{dst}, src, []*MulTable{t}, acc)
}

// allKernels returns every registered kernel (dispatch order).
func allKernels() []Kernel {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	ks := make([]Kernel, len(kernelRegistry))
	for i, r := range kernelRegistry {
		ks[i] = r.k
	}
	return ks
}

// kernelLengths exercises sub-vector regions, exact vector multiples,
// and ragged tails across the SSE (16), AVX (32), ZMM and fused
// (64) and word (8) widths: each of those widths at one, two or more
// vectors, and one byte either side, so both the whole-vector early
// return and the tail path run on every kernel.
var kernelLengths = []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65,
	95, 96, 97, 127, 128, 129, 255, 256, 511, 512, 513, 1000, 4096, 4097}

// TestKernelsMatchReference differential-tests every registered kernel
// against the byte-loop reference over random coefficients, all length
// classes, and unaligned offsets (slicing 1..7 bytes into a buffer so
// vector loads start off any natural boundary).
func TestKernelsMatchReference(t *testing.T) {
	f := Get(8)
	rng := rand.New(rand.NewSource(41))
	for _, k := range allKernels() {
		t.Run(k.Name(), func(t *testing.T) {
			for _, n := range kernelLengths {
				for _, off := range []int{0, 1, 5, 7} {
					src := make([]byte, n+off)
					base := make([]byte, n+off)
					rng.Read(src)
					rng.Read(base)
					c := uint32(2 + rng.Intn(254))
					tab := refMulTable(f, c)

					want := append([]byte(nil), base...)
					refMultXOR(want[off:], src[off:], tab)
					got := append([]byte(nil), base...)
					mulOn(k, got[off:], src[off:], tab, true)
					if !bytes.Equal(got, want) {
						t.Fatalf("MultXOR n=%d off=%d c=%d: kernel disagrees with reference", n, off, c)
					}

					want = append(want[:0:0], base...)
					refMulRegion(want[off:], src[off:], tab)
					got = append(got[:0:0], base...)
					mulOn(k, got[off:], src[off:], tab, false)
					if !bytes.Equal(got, want) {
						t.Fatalf("MulRegion n=%d off=%d c=%d: kernel disagrees with reference", n, off, c)
					}

					want = append(want[:0:0], base...)
					for i := off; i < len(want); i++ {
						want[i] ^= src[i]
					}
					got = append(got[:0:0], base...)
					k.XORRegion(got[off:], src[off:])
					if !bytes.Equal(got, want) {
						t.Fatalf("XORRegion n=%d off=%d: kernel disagrees with reference", n, off)
					}
				}
			}
		})
	}
}

// TestKernelsMatchReferenceW4 repeats the differential test with w=4
// tables: the zero Hi half must make every kernel mask high nibbles
// exactly like the scalar row lookup.
func TestKernelsMatchReferenceW4(t *testing.T) {
	f := Get(4)
	rng := rand.New(rand.NewSource(43))
	for _, k := range allKernels() {
		t.Run(k.Name(), func(t *testing.T) {
			for _, n := range []int{0, 1, 15, 16, 33, 256, 4097} {
				src := make([]byte, n) // deliberately unmasked high nibbles
				base := make([]byte, n)
				rng.Read(src)
				rng.Read(base)
				c := uint32(1 + rng.Intn(15))
				tab := &f.tables[c]
				want := append([]byte(nil), base...)
				refMultXOR(want, src, tab)
				got := append([]byte(nil), base...)
				mulOn(k, got, src, tab, true)
				if !bytes.Equal(got, want) {
					t.Fatalf("w=4 MultXOR n=%d c=%d: kernel disagrees with reference", n, c)
				}
			}
		})
	}
}

// TestKernelDispatchOrder: the portable kernel is always registered, and
// on amd64 default builds an assembly kernel must outrank it.
func TestKernelDispatchOrder(t *testing.T) {
	names := KernelNames()
	found := false
	for _, n := range names {
		if n == "portable" {
			found = true
		}
	}
	if !found {
		t.Fatalf("portable kernel missing from registry: %v", names)
	}
	if len(names) != len(uniqueStrings(names)) {
		t.Fatalf("duplicate kernel names registered: %v", names)
	}
	if runtime.GOARCH == "amd64" && !testingPurego() {
		if names[0] == "portable" {
			t.Errorf("GOARCH=%s default build dispatched to portable; registry %v", runtime.GOARCH, names)
		}
	}
}

func uniqueStrings(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// testingPurego reports whether this test binary was built with the
// purego tag (the generic kernel file is the only registration source
// then, so the registry holds exactly the portable kernel).
func testingPurego() bool {
	return len(KernelNames()) == 1
}

// TestKernelEnvOverride: STAIR_GF_KERNEL forces dispatch; an unknown name
// is a startup error from Init/NewField, and still a loud panic if those
// surfaces were bypassed — never a silent run of the wrong kernel.
func TestKernelEnvOverride(t *testing.T) {
	t.Setenv("STAIR_GF_KERNEL", "portable")
	resetKernelForTest()
	defer func() {
		os.Unsetenv("STAIR_GF_KERNEL")
		resetKernelForTest()
	}()
	if err := Init(); err != nil {
		t.Fatalf("Init() with valid override: %v", err)
	}
	if got := ActiveKernelName(); got != "portable" {
		t.Fatalf("override to portable: dispatched %q", got)
	}
	// The Field surface reports the forced kernel too.
	if got := Get(8).KernelName(); got != "portable" {
		t.Fatalf("Field.KernelName() = %q under portable override", got)
	}

	t.Setenv("STAIR_GF_KERNEL", "no-such-kernel")
	resetKernelForTest()
	if err := Init(); err == nil {
		t.Error("Init() with unknown STAIR_GF_KERNEL did not error")
	}
	if _, err := NewField(8); err == nil {
		t.Error("NewField(8) with unknown STAIR_GF_KERNEL did not error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown STAIR_GF_KERNEL did not panic when Init was bypassed")
			}
		}()
		ActiveKernelName()
	}()
}

// TestFieldKernelNameW16: two-byte symbols always take the portable
// widened path.
func TestFieldKernelNameW16(t *testing.T) {
	if got := Get(16).KernelName(); got != "portable" {
		t.Fatalf("w=16 KernelName() = %q, want portable", got)
	}
}

// TestKernelSpeedGuard is the CI bench regression guard: gated behind
// STAIR_GF_BENCHGUARD so routine test runs stay fast, it measures the
// dispatched kernel against the portable baseline on a 4 KiB MultXOR
// region and fails if dispatch made things slower. On default amd64
// builds it also enforces the committed ≥4× SIMD speedup claim.
func TestKernelSpeedGuard(t *testing.T) {
	if os.Getenv("STAIR_GF_BENCHGUARD") == "" {
		t.Skip("set STAIR_GF_BENCHGUARD=1 to run the kernel speed guard")
	}
	f := Get(8)
	tab := &f.tables[0x53]
	measure := func(k Kernel) float64 {
		dst := make([]byte, 4096)
		src := make([]byte, 4096)
		rand.New(rand.NewSource(3)).Read(src)
		cells, ops := [][]byte{src, dst}, AppendOps(nil, true, 0, []int32{1}, []*MulTable{tab})
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.RunOps(ops, cells, 0, len(src))
			}
		})
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	portable, ok := kernelByName("portable")
	if !ok {
		t.Fatal("portable kernel not registered")
	}
	base := measure(portable)
	active := activeKernel()
	got := measure(active)
	speedup := base / got
	t.Logf("kernel %s: %.0f ns/op vs portable %.0f ns/op (%.1fx) on 4 KiB MultXOR", active.Name(), got, base, speedup)
	if active.Name() == portable.Name() {
		return // purego or no-SIMD target: nothing to guard
	}
	if speedup < 1 {
		t.Fatalf("dispatched kernel %s is SLOWER than the portable baseline: %.2fx", active.Name(), speedup)
	}
	if runtime.GOARCH == "amd64" && speedup < 4 {
		t.Errorf("amd64 SIMD kernel %s speedup %.1fx, want >= 4x (the committed claim)", active.Name(), speedup)
	}

	// Fused-path guard: one 4-destination op must not run slower than
	// four one-destination RunOps calls — the whole point of the
	// source-major planner. 0.9 leaves noise headroom at 4 KiB, where a
	// real regression (fused falling back to something dumb) shows up as
	// far worse. At 512 bytes — the small-sector geometry — a call is a
	// few vector iterations, so per-call overhead dominates: the fused
	// call pays it once against four times for the composition. Every
	// amd64 SIMD kernel measured 1.4–2.8x there (2 vCPUs of a Xeon); a
	// fused wrapper that walks its empty tail path again costs about what
	// the composition does, and fails the 1.2 floor.
	const fusedDsts = 4
	tabs := make([]*MulTable, fusedDsts)
	for i := range tabs {
		tabs[i] = &f.tables[0x35+i]
	}
	measureFused := func(k Kernel, size int, fused bool) float64 {
		src := make([]byte, size)
		rand.New(rand.NewSource(5)).Read(src)
		dsts := make([][]byte, fusedDsts)
		for i := range dsts {
			dsts[i] = make([]byte, size)
		}
		// The fused side is one 4-destination op over [src, dsts...], the
		// call a plan makes per tile.
		cells := append([][]byte{src}, dsts...)
		ops := AppendOps(nil, true, 0, []int32{1, 2, 3, 4}, tabs)
		var perop []Op
		for j := range dsts {
			perop = AppendOps(perop, true, 0, []int32{int32(j + 1)}, tabs[j:j+1])
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if fused {
					k.RunOps(ops, cells, 0, size)
				} else {
					for j := range perop {
						k.RunOps(perop[j:j+1], cells, 0, size)
					}
				}
			}
		})
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	for _, row := range []struct {
		size  int
		floor float64
	}{{4096, 0.9}, {512, 1.2}} {
		if runtime.GOARCH != "amd64" {
			row.floor = 0.9 // the 512-byte figures are amd64 measurements
		}
		perop := measureFused(active, row.size, false)
		fused := measureFused(active, row.size, true)
		fusedSpeedup := perop / fused
		t.Logf("kernel %s fused: %.0f ns/op vs per-op %.0f ns/op (%.2fx) on a %dx%s op",
			active.Name(), fused, perop, fusedSpeedup, fusedDsts, byteSizeName(row.size))
		if fusedSpeedup < row.floor {
			t.Fatalf("kernel %s %dx%s op: %.2fx its per-op composition, want >= %.1fx",
				active.Name(), fusedDsts, byteSizeName(row.size), fusedSpeedup, row.floor)
		}
	}
}

// BenchmarkMultXORKernels measures a one-op RunOps (one Mult_XOR) at
// every bench size on every registered kernel, so one run shows the
// whole dispatch ladder (CI runs this as its bench smoke; sub-benchmark
// names carry the kernel, e.g. BenchmarkMultXORKernels/avx2/4KiB).
func BenchmarkMultXORKernels(b *testing.B) {
	f := Get(8)
	tab := &f.tables[0x53]
	for _, k := range allKernels() {
		for _, size := range benchSizes {
			b.Run(k.Name()+"/"+byteSizeName(size), func(b *testing.B) {
				ops := AppendOps(nil, true, 0, []int32{1}, []*MulTable{tab})
				var cells [][]byte
				benchXOR(b, size, func(dst, src []byte) {
					if cells == nil {
						cells = [][]byte{src, dst}
					}
					k.RunOps(ops, cells, 0, len(src))
				})
			})
		}
	}
}

// BenchmarkXORRegionKernels is the same ladder for the c==1/XOR path.
func BenchmarkXORRegionKernels(b *testing.B) {
	for _, k := range allKernels() {
		for _, size := range benchSizes {
			b.Run(k.Name()+"/"+byteSizeName(size), func(b *testing.B) {
				benchXOR(b, size, k.XORRegion)
			})
		}
	}
}

// TestKernelNamesWellFormed keeps names usable as benchmark labels and
// env override values.
func TestKernelNamesWellFormed(t *testing.T) {
	for _, n := range KernelNames() {
		if n == "" || strings.ContainsAny(n, " /=") {
			t.Errorf("kernel name %q not usable in benchmarks/env", n)
		}
	}
	if ActiveKernelName() != Get(8).KernelName() {
		t.Error("Field.KernelName() disagrees with package dispatch")
	}
}
