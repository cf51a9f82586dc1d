package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Differential coverage for the fused region op: every registered kernel
// must agree byte-for-byte with composing the portable per-op kernel,
// over random destination counts, ragged tails, and unaligned offsets.

// refMultXORFused composes the per-destination byte-loop reference — the
// semantics a multi-destination op must reproduce exactly.
func refMultXORFused(dsts [][]byte, src []byte, tabs []*MulTable) {
	for i, d := range dsts {
		refMultXOR(d, src, tabs[i])
	}
}

// fusedCase builds a randomized fused call: ndst destinations of length
// n, each sliced off bytes into its own backing array so vector loads
// start off any natural boundary.
func fusedCase(rng *rand.Rand, f *Field, ndst, n, off int) (dsts [][]byte, base [][]byte, src []byte, tabs []*MulTable) {
	src = make([]byte, n+off)
	rng.Read(src)
	src = src[off:]
	cmax := int64(f.mask)
	for i := 0; i < ndst; i++ {
		b := make([]byte, n+off)
		rng.Read(b)
		base = append(base, append([]byte(nil), b...))
		dsts = append(dsts, b[off:])
		c := uint32(1 + rng.Int63n(cmax)) // nonzero: plans drop zero coefficients
		tabs = append(tabs, refMulTable(f, c))
	}
	return dsts, base, src, tabs
}

// TestKernelsMatchReferenceFused differential-tests accumulate ops on every
// registered kernel against the composed byte-loop reference for w=8,
// across destination counts 1..6, all tail classes, and unaligned
// offsets.
func TestKernelsMatchReferenceFused(t *testing.T) {
	f := Get(8)
	rng := rand.New(rand.NewSource(47))
	for _, k := range allKernels() {
		t.Run(k.Name(), func(t *testing.T) {
			for _, ndst := range []int{1, 2, 3, 4, 6} {
				for _, n := range kernelLengths {
					for _, off := range []int{0, 1, 5, 7} {
						dsts, base, src, tabs := fusedCase(rng, f, ndst, n, off)
						want := make([][]byte, ndst)
						for i := range want {
							want[i] = append([]byte(nil), base[i]...)
						}
						wantSl := make([][]byte, ndst)
						for i := range want {
							wantSl[i] = want[i][off:]
						}
						refMultXORFused(wantSl, src, tabs)
						runOn(k, dsts, src, tabs, true)
						for i := range dsts {
							if !bytes.Equal(dsts[i], wantSl[i]) {
								t.Fatalf("ndst=%d n=%d off=%d dst[%d]: fused kernel disagrees with composed reference",
									ndst, n, off, i)
							}
						}
					}
				}
			}
		})
	}
}

// TestKernelsMatchReferenceFusedW4 repeats the fused differential test
// with w=4 tables: unmasked high nibbles in both source and destinations
// must come out identical to the scalar row lookups.
func TestKernelsMatchReferenceFusedW4(t *testing.T) {
	f := Get(4)
	rng := rand.New(rand.NewSource(53))
	for _, k := range allKernels() {
		t.Run(k.Name(), func(t *testing.T) {
			for _, ndst := range []int{1, 3, 5} {
				for _, n := range []int{0, 1, 15, 31, 32, 33, 64, 255, 4097} {
					dsts, base, src, tabs := fusedCase(rng, f, ndst, n, 0)
					want := make([][]byte, ndst)
					for i := range want {
						want[i] = append([]byte(nil), base[i]...)
					}
					refMultXORFused(want, src, tabs)
					runOn(k, dsts, src, tabs, true)
					for i := range dsts {
						if !bytes.Equal(dsts[i], want[i]) {
							t.Fatalf("w=4 ndst=%d n=%d dst[%d]: fused kernel disagrees with composed reference", ndst, n, i)
						}
					}
				}
			}
		})
	}
}

// TestKernelsMatchReferenceMulRegionFused differential-tests overwrite
// ops on every registered kernel against the composed byte-loop
// reference, for w=8 and w=4, over destination counts, tail classes and
// unaligned offsets. Destinations start with random garbage: the op must
// fully overwrite, never accumulate.
func TestKernelsMatchReferenceMulRegionFused(t *testing.T) {
	for _, w := range []int{8, 4} {
		f := Get(w)
		rng := rand.New(rand.NewSource(int64(67 + w)))
		for _, k := range allKernels() {
			t.Run(fmt.Sprintf("w%d/%s", w, k.Name()), func(t *testing.T) {
				for _, ndst := range []int{1, 2, 4, 5, 9} {
					for _, n := range kernelLengths {
						for _, off := range []int{0, 3} {
							dsts, base, src, tabs := fusedCase(rng, f, ndst, n, off)
							want := make([][]byte, ndst)
							for i := range want {
								want[i] = append([]byte(nil), base[i]...)
								refMulRegion(want[i][off:], src, tabs[i])
							}
							runOn(k, dsts, src, tabs, false)
							for i := range dsts {
								if !bytes.Equal(dsts[i], want[i][off:]) {
									t.Fatalf("w=%d ndst=%d n=%d off=%d dst[%d]: overwrite op disagrees with composed reference",
										w, ndst, n, off, i)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestFieldMultXORFused covers the Field-level surface for every width:
// zero coefficients skipped, arity validation.
func TestFieldMultXORFused(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, w := range []int{4, 8, 16} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			f := Get(w)
			n := 130 * f.SymbolBytes()
			src := make([]byte, n)
			rng.Read(src)
			coeffs := []uint32{0, 1, 2, uint32(f.mask), 0}
			dsts := make([][]byte, len(coeffs))
			want := make([][]byte, len(coeffs))
			for i := range dsts {
				b := make([]byte, n)
				rng.Read(b)
				dsts[i] = b
				want[i] = append([]byte(nil), b...)
				f.MultXOR(want[i], src, coeffs[i])
			}
			f.MultXORFused(dsts, src, coeffs)
			for i := range dsts {
				if !bytes.Equal(dsts[i], want[i]) {
					t.Fatalf("w=%d dst[%d] (c=%d): fused disagrees with per-op MultXOR", w, i, coeffs[i])
				}
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	Get(8).MultXORFused(make([][]byte, 2), make([]byte, 8), []uint32{1})
}

// TestWideFusedMatchesScalar holds the GF(2^16) kernel that Field.Kernel
// routes wide tables to — accumulate and overwrite — to a
// symbol-by-symbol Field.Mul loop. Symbol counts cover the sub-word tail alone, the
// four-symbol word loop alone and both together; odd byte offsets put
// every uint64 load and store off its natural boundary.
func TestWideFusedMatchesScalar(t *testing.T) {
	f := Get(16)
	rng := rand.New(rand.NewSource(71))
	for _, symbols := range []int{1, 3, 4, 5, 7, 8, 9, 33, 4097} {
		for _, off := range []int{0, 1, 3, 7} {
			for _, ndst := range []int{1, 2, 5} {
				n := 2 * symbols
				src := make([]byte, n+off)[off:]
				rng.Read(src)
				coeffs := []uint32{1, 2, uint32(f.mask), 0x1234, uint32(rng.Intn(f.size))}[:ndst]
				tabs := make([]*MulTable, ndst)
				acc, over := make([][]byte, ndst), make([][]byte, ndst)
				wantAcc, wantOver := make([][]byte, ndst), make([][]byte, ndst)
				for i, c := range coeffs {
					tabs[i] = f.Table(c)
					acc[i] = make([]byte, n+off)[off:]
					rng.Read(acc[i])
					over[i] = append([]byte(nil), acc[i]...)
					wantAcc[i] = append([]byte(nil), acc[i]...)
					wantOver[i] = make([]byte, n)
					for s := 0; s < symbols; s++ {
						prod := f.Mul(c, readSym(f, src, s))
						writeSym(f, wantOver[i], s, prod)
						writeSym(f, wantAcc[i], s, readSym(f, wantAcc[i], s)^prod)
					}
				}
				runOn(f.Kernel(), acc, src, tabs, true)
				runOn(f.Kernel(), over, src, tabs, false)
				for i := range coeffs {
					if !bytes.Equal(acc[i], wantAcc[i]) {
						t.Fatalf("symbols=%d off=%d c=%#x: accumulate disagrees with scalar Mul", symbols, off, coeffs[i])
					}
					if !bytes.Equal(over[i], wantOver[i]) {
						t.Fatalf("symbols=%d off=%d c=%#x: overwrite disagrees with scalar Mul", symbols, off, coeffs[i])
					}
				}
			}
		}
	}
	// A range that splits a two-byte symbol is a caller bug, not data.
	defer func() {
		if recover() == nil {
			t.Error("odd-length w=16 fused call did not panic")
		}
	}()
	mulOn(f.Kernel(), make([]byte, 3), make([]byte, 3), f.Table(2), true)
}

// TestTableNeverNil: every field hands out a table for every coefficient
// — GF(2^16) lazily, once, even when goroutines race for the first use.
func TestTableNeverNil(t *testing.T) {
	for _, w := range testWidths {
		f, err := NewField(w) // private instance: its lazy slots start empty
		if err != nil {
			t.Fatal(err)
		}
		const racers = 8
		got := make([]*MulTable, racers)
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = f.Table(0x53)
			}(g)
		}
		wg.Wait()
		for g := range got {
			if got[g] == nil || got[g] != got[0] {
				t.Fatalf("w=%d: racing Table calls returned %p and %p", w, got[0], got[g])
			}
		}
		for _, c := range []uint32{0, 1, uint32(f.mask), uint32(f.size) + 2} {
			if f.Table(c) == nil {
				t.Fatalf("w=%d: Table(%#x) is nil", w, c)
			}
		}
		if f.Table(uint32(f.size)+2) != f.Table(2) {
			t.Errorf("w=%d: Table does not reduce its coefficient to the field", w)
		}
	}
}

// FuzzMultXORFused: the fuzzer owns the destination count, coefficients,
// region bytes and alignment offset; every kernel must agree with the
// composed portable per-op reference.
func FuzzMultXORFused(f *testing.F) {
	f.Add(byte(3), byte(0), []byte{0x53, 0x01, 0xff}, make([]byte, 256))
	f.Add(byte(1), byte(7), []byte{0x02}, bytes.Repeat([]byte{0xa5}, 100))
	f.Add(byte(5), byte(3), []byte{1, 2, 3, 4, 5}, make([]byte, 4099))
	field := Get(8)
	portable := portableKernel{}
	f.Fuzz(func(t *testing.T, ndst, off byte, cs, data []byte) {
		k := int(ndst&7) + 1
		o := int(off & 7)
		if len(cs) < k || len(data) < (k+1)*o+k+1 {
			t.Skip()
		}
		n := (len(data) - (k+1)*o) / (k + 1)
		src := data[o : o+n]
		var dsts [][]byte
		var tabs []*MulTable
		for i := 0; i < k; i++ {
			lo := (i+1)*(o+n) + o
			dsts = append(dsts, data[lo:lo+n:lo+n])
			c := uint32(cs[i])
			if c == 0 {
				c = 1
			}
			tabs = append(tabs, refMulTable(field, c))
		}
		want := make([][]byte, k)
		wantOver := make([][]byte, k)
		for i := range want {
			want[i] = append([]byte(nil), dsts[i]...)
			mulOn(portable, want[i], src, tabs[i], true)
			wantOver[i] = append([]byte(nil), dsts[i]...)
			mulOn(portable, wantOver[i], src, tabs[i], false)
		}
		for _, kern := range allKernels() {
			got := make([][]byte, k)
			for i := range got {
				got[i] = append([]byte(nil), dsts[i]...)
			}
			runOn(kern, got, src, tabs, true)
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("kernel %s accumulate op (ndst=%d, n=%d, off=%d) dst[%d] diverges from composed portable",
						kern.Name(), k, n, o, i)
				}
				copy(got[i], dsts[i])
			}
			runOn(kern, got, src, tabs, false)
			for i := range got {
				if !bytes.Equal(got[i], wantOver[i]) {
					t.Fatalf("kernel %s overwrite op (ndst=%d, n=%d, off=%d) dst[%d] diverges from composed portable",
						kern.Name(), k, n, o, i)
				}
			}
		}
	})
}

// BenchmarkMultXORFusedKernels measures a fused op (one RunOps call, the
// form a plan makes per tile) against its per-op
// composition on every registered kernel: <kernel>/fused/<dsts>x<size> vs
// <kernel>/perop/<dsts>x<size>. The fused/perop ratio is the win the
// source-major planner banks on, and the CI bench smoke picks this up
// through its BenchmarkMultXOR regex.
func BenchmarkMultXORFusedKernels(b *testing.B) {
	f := Get(8)
	rng := rand.New(rand.NewSource(61))
	for _, k := range allKernels() {
		for _, ndst := range []int{4} {
			for _, size := range benchSizes {
				src := make([]byte, size)
				rng.Read(src)
				dsts := make([][]byte, ndst)
				tabs := make([]*MulTable, ndst)
				idx := make([]int32, ndst)
				for i := range dsts {
					dsts[i] = make([]byte, size)
					tabs[i] = &f.tables[0x35+i]
					idx[i] = int32(i + 1)
				}
				cells := append([][]byte{src}, dsts...)
				ops := AppendOps(nil, true, 0, idx, tabs)
				var perop []Op
				for j := range idx {
					perop = AppendOps(perop, true, 0, idx[j:j+1], tabs[j:j+1])
				}
				name := fmt.Sprintf("%dx%s", ndst, byteSizeName(size))
				b.Run(k.Name()+"/fused/"+name, func(b *testing.B) {
					b.SetBytes(int64(size * ndst))
					for i := 0; i < b.N; i++ {
						k.RunOps(ops, cells, 0, size)
					}
				})
				b.Run(k.Name()+"/perop/"+name, func(b *testing.B) {
					b.SetBytes(int64(size * ndst))
					for i := 0; i < b.N; i++ {
						for j := range perop {
							k.RunOps(perop[j:j+1], cells, 0, size)
						}
					}
				})
			}
		}
	}
}

// randomOps draws an op list over ncells cells of field f: arities 1 to
// 4, overwrite and accumulate, about one in eight a zero-fill, each op's
// destinations distinct and apart from its source. coeffs[i][j] is the
// coefficient of ops[i].Tab[j].
func randomOps(rng *rand.Rand, f *Field, ncells, nops int) (ops []Op, coeffs [][4]uint32) {
	for range nops {
		perm := rng.Perm(ncells)
		o := Op{Src: int32(perm[0]), Acc: rng.Intn(2) == 0, N: uint8(1 + rng.Intn(4))}
		if rng.Intn(8) == 0 {
			o.N = 0
		}
		var cs [4]uint32
		for j := range max(o.N, 1) {
			o.Dst[j] = int32(perm[1+j])
			cs[j] = uint32(1 + rng.Int63n(int64(f.mask)))
			o.Tab[j] = f.Table(cs[j])
		}
		ops, coeffs = append(ops, o), append(coeffs, cs)
	}
	return ops, coeffs
}

// TestRunOpsMatchesPerDestination differential-tests every kernel's op
// runner, the wide loop's included: a random op list run tile by tile
// over [lo, lo+n) of a cell vector must leave every cell byte-identical
// to applying the ops in order, one Field.MultXOR per destination (an
// overwrite clears first), and must not touch a byte outside the range.
// Regions are one vector, a 512-byte sector, a ragged 520 bytes and two
// 8 KiB plan tiles, at lo = 0 and at a non-zero lo.
func TestRunOpsMatchesPerDestination(t *testing.T) {
	const ncells, tile = 9, 8192
	type kcase struct {
		k Kernel
		f *Field
	}
	var cases []kcase
	for _, k := range allKernels() {
		cases = append(cases, kcase{k, Get(8)}, kcase{k, Get(4)})
	}
	cases = append(cases, kcase{wideKernel{}, Get(16)})
	rng := rand.New(rand.NewSource(83))
	for _, kc := range cases {
		t.Run(fmt.Sprintf("w%d/%s", kc.f.W(), kc.k.Name()), func(t *testing.T) {
			for _, n := range []int{64, 512, 520, 8256} {
				for _, lo := range []int{0, 96} {
					ops, coeffs := randomOps(rng, kc.f, ncells, 16)
					got, want := make([][]byte, ncells), make([][]byte, ncells)
					for i := range got {
						got[i] = make([]byte, lo+n+32)
						rng.Read(got[i])
						want[i] = append([]byte(nil), got[i]...)
					}
					for at := lo; at < lo+n; at += tile {
						kc.k.RunOps(ops, got, at, min(at+tile, lo+n))
					}
					for i, o := range ops {
						if o.N == 0 {
							clear(want[o.Dst[0]][lo : lo+n])
							continue
						}
						src := want[o.Src][lo : lo+n]
						for j, d := range o.Dst[:o.N] {
							if !o.Acc {
								clear(want[d][lo : lo+n])
							}
							kc.f.MultXOR(want[d][lo:lo+n], src, coeffs[i][j])
						}
					}
					for i := range got {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("n=%d lo=%d: cell %d differs from the per-destination reference", n, lo, i)
						}
					}
				}
			}
		})
	}
}
