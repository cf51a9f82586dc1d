//go:build amd64 && !purego

package gf

// amd64 SIMD kernels: the GF-Complete split-table scheme (Plank et al.),
// 4-bit table lookups done 16 bytes per PSHUFB (SSSE3) or 32 bytes per
// VPSHUFB (AVX2). Each 16-byte lane holds the low- and high-nibble
// product tables of MulTable; a vector of source bytes is split into
// nibbles, both halves are shuffled through the tables and XORed
// together, yielding 16/32 products per iteration of the inner loop.
//
// The assembly handles only whole vectors; every runner hands an op's
// ragged remainder to the portable runner in kernel.go, so all kernels
// agree byte-for-byte on every length. A range of whole vectors (every
// 512 B, 4 KiB or 32 KiB sector) never takes that path: with 512-byte
// sectors an op is a few vector iterations, and walking empty tails for
// every destination cost more than the arithmetic.

// Assembly routines (kernel_amd64.s). n must be a positive multiple of
// the vector width: 16 for the SSSE3/SSE2 routines, 32 for AVX2.
//
//go:noescape
func multXORSSSE3(dst, src *byte, n int, lo, hi *byte)

//go:noescape
func mulRegionSSSE3(dst, src *byte, n int, lo, hi *byte)

//go:noescape
func xorRegionSSE2(dst, src *byte, n int)

//go:noescape
func multXORAVX2(dst, src *byte, n int, lo, hi *byte)

//go:noescape
func mulRegionAVX2(dst, src *byte, n int, lo, hi *byte)

//go:noescape
func xorRegionAVX2(dst, src *byte, n int)

// Fused routines: one pass over src updating every destination, the
// source block register-resident across destinations.
//
// The SSSE3 form takes the destination set as slices: the assembly walks
// the dsts slice headers and loads each MulTable's nibble tables at
// their fixed struct offsets — pinned by the constant assertions next to
// MulTable in kernel.go. len(src) must be a positive multiple of 32;
// every dsts[i] must be at least len(src) bytes, len(tabs) == len(dsts).
//
// The AVX2 forms are fixed-arity (4- and 2-destination) so all split
// tables live in YMM registers for the whole region — no per-block table
// broadcasts or pointer chasing; AppendOps splits any fan-out into ops
// of these arities. n must be a positive multiple of 64.
//
//go:noescape
func multXORFusedSSSE3(dsts [][]byte, tabs []*MulTable, src []byte)

//go:noescape
func multXORFused4AVX2(d0, d1, d2, d3, src *byte, n int, t0, t1, t2, t3 *MulTable)

//go:noescape
func multXORFused2AVX2(d0, d1, src *byte, n int, t0, t1 *MulTable)

// GFNI routines: one VGF2P8AFFINEQB per 32 bytes against the
// coefficient's 8×8 bit matrix (MulTable.Gfni) — no nibble split, no
// table shuffles, and the affine unit runs on two ports. n must be a
// positive multiple of 32 (64 for the fused forms).
//
//go:noescape
func multXORGFNI(dst, src *byte, n int, mat uint64)

//go:noescape
func mulRegionGFNI(dst, src *byte, n int, mat uint64)

//go:noescape
func multXORFused4GFNI(d0, d1, d2, d3, src *byte, n int, m0, m1, m2, m3 uint64)

//go:noescape
func multXORFused2GFNI(d0, d1, src *byte, n int, m0, m1 uint64)

//go:noescape
func mulRegionFused4GFNI(d0, d1, d2, d3, src *byte, n int, m0, m1, m2, m3 uint64)

// EVEX/ZMM GFNI forms: 64 products per affine. n must be a positive
// multiple of 64.
//
//go:noescape
func multXORGFNI512(dst, src *byte, n int, mat uint64)

//go:noescape
func mulRegionGFNI512(dst, src *byte, n int, mat uint64)

//go:noescape
func multXORFused4GFNI512(d0, d1, d2, d3, src *byte, n int, m0, m1, m2, m3 uint64)

//go:noescape
func multXORFused2GFNI512(d0, d1, src *byte, n int, m0, m1 uint64)

//go:noescape
func mulRegionFused4GFNI512(d0, d1, d2, d3, src *byte, n int, m0, m1, m2, m3 uint64)

// cpuid executes CPUID with the given leaf/subleaf; xgetbv reads
// XCR0. Both are defined in kernel_amd64.s — the standard library's
// feature flags live in internal packages this module cannot import.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

type ssse3Kernel struct{}

func (ssse3Kernel) Name() string { return "ssse3" }

func (ssse3Kernel) XORRegion(dst, src []byte) {
	n := len(src) &^ 15
	if n > 0 {
		xorRegionSSE2(&dst[0], &src[0], n)
	}
	if n == len(src) {
		return
	}
	xorTail(dst[n:], src[n:])
}

// RunOps hands accumulate ops of two or more destinations to the
// slice-walking fused routine, on a destination vector built on the
// stack, and the rest to the per-destination routines.
func (ssse3Kernel) RunOps(ops []Op, cells [][]byte, lo, hi int) {
	n := (hi - lo) &^ 31
	for i := range ops {
		o := &ops[i]
		if o.N == 0 {
			clear(cells[o.Dst[0]][lo:hi])
			continue
		}
		if n > 0 {
			s := &cells[o.Src][lo]
			switch {
			case o.Acc && o.N > 1:
				var dv [4][]byte
				for j, d := range o.Dst[:o.N] {
					dv[j] = cells[d][lo : lo+n]
				}
				multXORFusedSSSE3(dv[:o.N], o.Tab[:o.N], cells[o.Src][lo:lo+n])
			case o.Acc:
				multXORSSSE3(&cells[o.Dst[0]][lo], s, n, &o.Tab[0].Lo[0], &o.Tab[0].Hi[0])
			default:
				for j, d := range o.Dst[:o.N] {
					mulRegionSSSE3(&cells[d][lo], s, n, &o.Tab[j].Lo[0], &o.Tab[j].Hi[0])
				}
			}
		}
		if n < hi-lo {
			runOpsPerDest(ops[i:i+1], cells, lo+n, hi)
		}
	}
}

type avx2Kernel struct{}

func (avx2Kernel) Name() string { return "avx2" }

func (avx2Kernel) XORRegion(dst, src []byte) {
	n := len(src) &^ 31
	if n > 0 {
		xorRegionAVX2(&dst[0], &src[0], n)
	}
	if n == len(src) {
		return
	}
	xorTail(dst[n:], src[n:])
}

func (avx2Kernel) RunOps(ops []Op, cells [][]byte, lo, hi int) {
	n := (hi - lo) &^ 63
	for i := range ops {
		o := &ops[i]
		if o.N == 0 {
			clear(cells[o.Dst[0]][lo:hi])
			continue
		}
		if n > 0 {
			s, d, t := &cells[o.Src][lo], &o.Dst, &o.Tab
			switch {
			case o.Acc && o.N == 4:
				multXORFused4AVX2(&cells[d[0]][lo], &cells[d[1]][lo], &cells[d[2]][lo], &cells[d[3]][lo],
					s, n, t[0], t[1], t[2], t[3])
			case o.Acc && o.N > 1:
				multXORFused2AVX2(&cells[d[0]][lo], &cells[d[1]][lo], s, n, t[0], t[1])
				if o.N == 3 {
					multXORAVX2(&cells[d[2]][lo], s, n, &t[2].Lo[0], &t[2].Hi[0])
				}
			case o.Acc:
				multXORAVX2(&cells[d[0]][lo], s, n, &t[0].Lo[0], &t[0].Hi[0])
			default:
				for j := range o.N {
					mulRegionAVX2(&cells[d[j]][lo], s, n, &t[j].Lo[0], &t[j].Hi[0])
				}
			}
		}
		if n < hi-lo {
			runOpsPerDest(ops[i:i+1], cells, lo+n, hi)
		}
	}
}

// gfniKernel multiplies through VGF2P8AFFINEQB against per-coefficient
// bit matrices instead of split-table shuffles: a third of the vector
// ops per byte, no port-5 shuffle bottleneck, and one register per
// destination in the fused forms. XORRegion (coefficient-free) is
// inherited from the AVX2 kernel.
type gfniKernel struct{ avx2Kernel }

func (gfniKernel) Name() string { return "gfni" }

func (gfniKernel) RunOps(ops []Op, cells [][]byte, lo, hi int) {
	n := (hi - lo) &^ 63
	for i := range ops {
		o := &ops[i]
		if o.N == 0 {
			clear(cells[o.Dst[0]][lo:hi])
			continue
		}
		if n > 0 {
			s, d, t := &cells[o.Src][lo], &o.Dst, &o.Tab
			switch {
			case o.Acc && o.N == 4:
				multXORFused4GFNI(&cells[d[0]][lo], &cells[d[1]][lo], &cells[d[2]][lo], &cells[d[3]][lo],
					s, n, t[0].Gfni, t[1].Gfni, t[2].Gfni, t[3].Gfni)
			case o.Acc && o.N > 1:
				multXORFused2GFNI(&cells[d[0]][lo], &cells[d[1]][lo], s, n, t[0].Gfni, t[1].Gfni)
				if o.N == 3 {
					multXORGFNI(&cells[d[2]][lo], s, n, t[2].Gfni)
				}
			case o.Acc:
				multXORGFNI(&cells[d[0]][lo], s, n, t[0].Gfni)
			case o.N == 4:
				mulRegionFused4GFNI(&cells[d[0]][lo], &cells[d[1]][lo], &cells[d[2]][lo], &cells[d[3]][lo],
					s, n, t[0].Gfni, t[1].Gfni, t[2].Gfni, t[3].Gfni)
			default:
				for j := range o.N {
					mulRegionGFNI(&cells[d[j]][lo], s, n, t[j].Gfni)
				}
			}
		}
		if n < hi-lo {
			runOpsPerDest(ops[i:i+1], cells, lo+n, hi)
		}
	}
}

// gfni512Kernel is the EVEX/ZMM form of the GFNI kernel: the same
// per-coefficient affine matrices applied 64 bytes per instruction —
// half the vector ops of the VEX form. Like every runner, it leaves
// remainders under one vector to the portable runner; XORRegion is the
// AVX2 kernel's.
type gfni512Kernel struct{ gfniKernel }

func (gfni512Kernel) Name() string { return "gfni512" }

func (gfni512Kernel) RunOps(ops []Op, cells [][]byte, lo, hi int) {
	n := (hi - lo) &^ 63
	for i := range ops {
		o := &ops[i]
		if o.N == 0 {
			clear(cells[o.Dst[0]][lo:hi])
			continue
		}
		if n > 0 {
			s, d, t := &cells[o.Src][lo], &o.Dst, &o.Tab
			switch {
			case o.Acc && o.N == 4:
				multXORFused4GFNI512(&cells[d[0]][lo], &cells[d[1]][lo], &cells[d[2]][lo], &cells[d[3]][lo],
					s, n, t[0].Gfni, t[1].Gfni, t[2].Gfni, t[3].Gfni)
			case o.Acc && o.N > 1:
				multXORFused2GFNI512(&cells[d[0]][lo], &cells[d[1]][lo], s, n, t[0].Gfni, t[1].Gfni)
				if o.N == 3 {
					multXORGFNI512(&cells[d[2]][lo], s, n, t[2].Gfni)
				}
			case o.Acc:
				multXORGFNI512(&cells[d[0]][lo], s, n, t[0].Gfni)
			case o.N == 4:
				mulRegionFused4GFNI512(&cells[d[0]][lo], &cells[d[1]][lo], &cells[d[2]][lo], &cells[d[3]][lo],
					s, n, t[0].Gfni, t[1].Gfni, t[2].Gfni, t[3].Gfni)
			default:
				for j := range o.N {
					mulRegionGFNI512(&cells[d[j]][lo], s, n, t[j].Gfni)
				}
			}
		}
		if n < hi-lo {
			runOpsPerDest(ops[i:i+1], cells, lo+n, hi)
		}
	}
}

func init() {
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		cpuidSSSE3   = 1 << 9
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	if ecx1&cpuidSSSE3 != 0 {
		registerKernel(ssse3Kernel{}, 2)
	}
	// AVX2 needs the CPU bit, plus OSXSAVE and the OS having enabled
	// XMM+YMM state in XCR0 (bits 1 and 2) — a kernel that context-
	// switches without YMM state would corrupt our registers.
	if ecx1&cpuidOSXSAVE != 0 && ecx1&cpuidAVX != 0 {
		if xcr0, _ := xgetbv(); xcr0&0x6 == 0x6 {
			if _, ebx7, ecx7, _ := cpuid(7, 0); ebx7&(1<<5) != 0 {
				registerKernel(avx2Kernel{}, 3)
				// The VEX-encoded GFNI forms need only the GFNI bit on
				// top of the AVX state checks above; the EVEX/ZMM forms
				// additionally need AVX512F and the OS having enabled
				// opmask+ZMM state in XCR0 (bits 5-7).
				if ecx7&(1<<8) != 0 {
					registerKernel(gfniKernel{}, 4)
					if xcr0, _ := xgetbv(); ebx7&(1<<16) != 0 && xcr0&0xe0 == 0xe0 {
						registerKernel(gfni512Kernel{}, 5)
					}
				}
			}
		}
	}
}
