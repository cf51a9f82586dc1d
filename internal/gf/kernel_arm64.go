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

func (k neonKernel) MultXORFused(dsts [][]byte, src []byte, tables []*MulTable) {
	n := len(src) &^ 31
	if n > 0 && len(dsts) > 0 {
		multXORFusedNEON(dsts, tables, src[:n])
	}
	if n == len(src) {
		return
	}
	for i, d := range dsts {
		k.MultXOR(d[n:len(src)], src[n:], tables[i])
	}
}

func (k neonKernel) MulRegionFused(dsts [][]byte, src []byte, tables []*MulTable) {
	mulRegionFusedByChunks(k, dsts, src, tables)
}

func init() { registerKernel(neonKernel{}, 2) }
