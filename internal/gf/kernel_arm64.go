//go:build arm64 && !purego

package gf

// arm64 NEON kernels: the same 4-bit split-table scheme as the amd64
// PSHUFB kernels, using TBL — AdvSIMD's 16-byte table lookup — which is
// baseline on every arm64 core, so registration is unconditional.
// Assembly handles whole 16-byte vectors; the wrappers finish ragged
// tails through the shared scalar helpers in kernel.go, and return
// before them when the region is a whole number of vectors.

// Assembly routines (kernel_arm64.s). n must be a positive multiple
// of 16.
//
//go:noescape
func multXORNEON(dst, src *byte, n int, lo, hi *byte)

//go:noescape
func mulRegionNEON(dst, src *byte, n int, lo, hi *byte)

//go:noescape
func xorRegionNEON(dst, src *byte, n int)

// Fused routine: one pass over src updating every destination, the
// source block register-resident across destinations. len(src) must be a
// positive multiple of 32; every dsts[i] must be at least len(src) bytes
// and len(tabs) == len(dsts). The assembly walks the dsts slice headers
// and loads each MulTable's Lo+Hi pair contiguously at struct offset 256
// (layout pinned by the constant assertions next to MulTable in
// kernel.go).
//
//go:noescape
func multXORFusedNEON(dsts [][]byte, tabs []*MulTable, src []byte)

type neonKernel struct{}

func (neonKernel) Name() string { return "neon" }

func (neonKernel) MultXOR(dst, src []byte, t *MulTable) {
	n := len(src) &^ 15
	if n > 0 {
		multXORNEON(&dst[0], &src[0], n, &t.Lo[0], &t.Hi[0])
	}
	if n == len(src) {
		return
	}
	multXORTail(dst[n:], src[n:], t)
}

func (neonKernel) MulRegion(dst, src []byte, t *MulTable) {
	n := len(src) &^ 15
	if n > 0 {
		mulRegionNEON(&dst[0], &src[0], n, &t.Lo[0], &t.Hi[0])
	}
	if n == len(src) {
		return
	}
	mulRegionTail(dst[n:], src[n:], t)
}

func (neonKernel) XORRegion(dst, src []byte) {
	n := len(src) &^ 15
	if n > 0 {
		xorRegionNEON(&dst[0], &src[0], n)
	}
	if n == len(src) {
		return
	}
	xorTail(dst[n:], src[n:])
}

// RunOps hands accumulate ops of two or more destinations to the
// slice-walking fused routine, on a destination vector built on the
// stack, and the rest to the per-destination routines.
func (k neonKernel) RunOps(ops []Op, cells [][]byte, lo, hi int) {
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
				multXORFusedNEON(dv[:o.N], o.Tab[:o.N], cells[o.Src][lo:lo+n])
			case o.Acc:
				multXORNEON(&cells[o.Dst[0]][lo], s, n, &o.Tab[0].Lo[0], &o.Tab[0].Hi[0])
			default:
				for j, d := range o.Dst[:o.N] {
					mulRegionNEON(&cells[d][lo], s, n, &o.Tab[j].Lo[0], &o.Tab[j].Hi[0])
				}
			}
		}
		if n < hi-lo {
			runOpsPerDest(k, ops[i:i+1], cells, lo+n, hi)
		}
	}
}

func init() { registerKernel(neonKernel{}, 2) }
