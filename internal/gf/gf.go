// Package gf implements arithmetic over the finite fields GF(2^w) for
// w ∈ {4, 8, 16}, together with the region operations that erasure codes
// are built from.
//
// The STAIR paper (§5.3) decomposes all encoding work into Mult_XOR
// operations: multiply a region of bytes by a w-bit constant and XOR the
// product into a target region. Plans compile their Mult_XORs into Op
// lists once, with coefficients resolved to MulTables by Field.Table,
// and run them through Kernel.RunOps, the one multiply entry of the
// region kernels. Field.MultXOR and Field.MultXORFused adapt one source
// region to a one-op list for callers without a plan. Like the paper's
// implementation (which leans on GF-Complete), the hot GF(2^8) and
// GF(2^4) region loops run as SIMD kernels on amd64 (GFNI affine or
// PSHUFB 4-bit split tables), selected at runtime by CPU feature
// detection and overridable with STAIR_GF_KERNEL; see kernel.go.
// GF(2^16), other architectures and the `purego` build use a
// widened-word portable path.
//
// Field values are safe for concurrent use: everything is fixed at
// construction except the GF(2^16) per-coefficient tables, which are
// built on first use and published atomically.
package gf

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Primitive polynomials used to construct each field, expressed with the
// leading term included (e.g. 0x11d = x^8+x^4+x^3+x^2+1). These match the
// polynomials used by GF-Complete and Jerasure, the libraries the paper's
// implementation builds on.
const (
	poly4  = 0x13    // x^4 + x + 1
	poly8  = 0x11d   // x^8 + x^4 + x^3 + x^2 + 1
	poly16 = 0x1100b // x^16 + x^12 + x^3 + x + 1
)

// Field represents GF(2^w). The zero value is not usable; construct one
// with NewField or fetch a shared instance with Get.
type Field struct {
	w    int
	size int    // 2^w
	mask uint32 // 2^w - 1

	log []uint16 // log[a] for a in 1..size-1 (log[0] is unused)
	exp []uint16 // exp[i] = g^i, doubled length to avoid modular reduction
	inv []uint32 // multiplicative inverses, inv[0] = 0 (unused)

	// tables holds the per-coefficient region-kernel lookup state, built
	// for w == 8 (256 entries, the full 256×256 product table reshaped)
	// and w == 4 (16 entries whose high-nibble split tables are zero, so
	// the byte-oriented kernels apply unchanged). tables[c].Row is also
	// the scalar Mul fast path for w == 8.
	tables []MulTable
	// wide replaces tables for w == 16: one slot per coefficient, filled
	// the first time Table hands that coefficient out. 65 536 eager
	// tables would cost ~83 MiB; a code's plans use a few hundred.
	wide []atomic.Pointer[MulTable]
}

var (
	fieldCache   [17]*Field
	fieldCacheMu sync.Mutex
)

// NewField constructs GF(2^w). Supported word sizes are 4, 8 and 16.
func NewField(w int) (*Field, error) {
	var poly uint32
	switch w {
	case 4:
		poly = poly4
	case 8:
		poly = poly8
	case 16:
		poly = poly16
	default:
		return nil, fmt.Errorf("gf: unsupported word size w=%d (want 4, 8 or 16)", w)
	}
	f := &Field{
		w:    w,
		size: 1 << w,
		mask: uint32(1<<w) - 1,
	}
	f.buildTables(poly)
	// Resolve kernel dispatch now so a bad STAIR_GF_KERNEL override is a
	// constructor error, not a panic inside the first region op.
	if err := Init(); err != nil {
		return nil, err
	}
	return f, nil
}

// Get returns a shared, lazily constructed field for the given word size.
// It panics if w is unsupported; use NewField to get an error instead.
func Get(w int) *Field {
	fieldCacheMu.Lock()
	defer fieldCacheMu.Unlock()
	if w < 0 || w >= len(fieldCache) {
		panic(fmt.Sprintf("gf: unsupported word size w=%d", w))
	}
	if f := fieldCache[w]; f != nil {
		return f
	}
	f, err := NewField(w)
	if err != nil {
		panic(err)
	}
	fieldCache[w] = f
	return f
}

func (f *Field) buildTables(poly uint32) {
	n := f.size
	f.log = make([]uint16, n)
	f.exp = make([]uint16, 2*n)

	// Generate the field as powers of the generator x (the polynomial's
	// root), reducing modulo the primitive polynomial.
	x := uint32(1)
	for i := 0; i < n-1; i++ {
		f.exp[i] = uint16(x)
		f.exp[i+n-1] = uint16(x)
		f.log[x] = uint16(i)
		x <<= 1
		if x&uint32(n) != 0 {
			x ^= poly
		}
	}

	f.inv = make([]uint32, n)
	for a := 1; a < n; a++ {
		// a^-1 = g^(size-1-log a)
		f.inv[a] = uint32(f.exp[n-1-int(f.log[a])])
	}

	switch f.w {
	case 8:
		// Full product table, reshaped per coefficient into the row the
		// scalar paths index and the low/high nibble split tables the
		// SIMD kernels shuffle against: Row[v] = Lo[v&0x0f] ^ Hi[v>>4]
		// because v = (v&0x0f) ^ (v&0xf0) and multiplication is linear.
		f.tables = make([]MulTable, 256)
		for c := 0; c < 256; c++ {
			t := &f.tables[c]
			for a := 0; a < 256; a++ {
				t.Row[a] = byte(f.mulSlow(uint32(c), uint32(a)))
			}
			for x := 0; x < 16; x++ {
				t.Lo[x] = t.Row[x]
				t.Hi[x] = t.Row[x<<4]
			}
			t.Gfni = gfniMatrix(&t.Row)
		}
	case 4:
		// GF(2^4) symbols live in the low nibble of each byte and region
		// ops ignore the high nibble, so Row[v] = c·(v&0x0f) and the
		// high-nibble split table is identically zero — which lets the
		// same byte-oriented kernels serve w == 4.
		f.tables = make([]MulTable, 16)
		for c := 0; c < 16; c++ {
			t := &f.tables[c]
			for a := 0; a < 256; a++ {
				t.Row[a] = byte(f.mulSlow(uint32(c), uint32(a&0x0f)))
			}
			for x := 0; x < 16; x++ {
				t.Lo[x] = t.Row[x]
			}
			t.Gfni = gfniMatrix(&t.Row)
		}
	case 16:
		f.wide = make([]atomic.Pointer[MulTable], n)
	}
}

// W returns the field's word size in bits.
func (f *Field) W() int { return f.w }

// Size returns the number of field elements, 2^w.
func (f *Field) Size() int { return f.size }

// SymbolBytes returns the number of bytes one field symbol occupies in a
// region: 1 for w ≤ 8 and 2 for w == 16. Region lengths passed to the
// region operations must be multiples of this.
func (f *Field) SymbolBytes() int {
	if f.w == 16 {
		return 2
	}
	return 1
}

// Add returns a + b. Addition in GF(2^w) is XOR; subtraction is identical.
func (f *Field) Add(a, b uint32) uint32 { return (a ^ b) & f.mask }

// Mul returns a × b.
func (f *Field) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	if f.w == 8 {
		return uint32(f.tables[a&0xff].Row[b&0xff])
	}
	return uint32(f.exp[int(f.log[a&f.mask])+int(f.log[b&f.mask])])
}

func (f *Field) mulSlow(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return uint32(f.exp[int(f.log[a])+int(f.log[b])])
}

// Inv returns the multiplicative inverse of a, so a / b is Mul(a, Inv(b)).
// It panics if a is zero: dividing by zero indicates a programming error
// in matrix/code construction, never a data-dependent condition.
func (f *Field) Inv(a uint32) uint32 {
	if a&f.mask == 0 {
		panic("gf: zero has no multiplicative inverse")
	}
	return f.inv[a&f.mask]
}

// Exp returns a raised to the power n (n ≥ 0), with a^0 = 1.
func (f *Field) Exp(a uint32, n int) uint32 {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	// a^n = g^(n·log a mod (size-1))
	e := (int(f.log[a&f.mask]) * n) % (f.size - 1)
	return uint32(f.exp[e])
}

// checkRegions validates a dst/src region pair for the region operations.
func (f *Field) checkRegions(dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: region length mismatch: dst=%d src=%d", len(dst), len(src)))
	}
	if sb := f.SymbolBytes(); len(src)%sb != 0 {
		panic(fmt.Sprintf("gf: region length %d is not a multiple of the %d-byte symbol size", len(src), sb))
	}
}

// KernelName reports which region kernel this field's region ops
// dispatch to: the CPU-selected (or STAIR_GF_KERNEL-forced) kernel for
// the byte-symbol fields w == 4 and w == 8, and "portable" for w == 16,
// whose two-byte symbols take the widened two-table path.
func (f *Field) KernelName() string { return f.Kernel().Name() }

// Kernel returns the region kernel this field's tables run on: the
// dispatched kernel for w == 4 and w == 8, the portable wide loop for
// w == 16. A plan run resolves it once and calls its RunOps per tile,
// keeping RunOps' contract itself: every cell its ops name holds at
// least hi bytes.
func (f *Field) Kernel() Kernel {
	if f.wide != nil {
		return wideKernel{}
	}
	return activeKernel()
}

// MultXOR computes dst ^= c·src over the field, symbol by symbol. This is
// the paper's Mult_XOR(src, dst, c) primitive (§5.3), run as a one-op
// list on the field's kernel. dst and src must have equal length, a
// multiple of SymbolBytes, and must not overlap.
func (f *Field) MultXOR(dst, src []byte, c uint32) {
	f.checkRegions(dst, src)
	c &= f.mask
	if c == 0 {
		return
	}
	// c == 1 is plain XOR — except for w == 4, where region bytes may
	// carry arbitrary high nibbles that every product (including 1·v)
	// masks away; its split table (zero Hi half) preserves that.
	if c == 1 && f.w != 4 {
		activeKernel().XORRegion(dst, src)
		return
	}
	s := getFused(src)
	s.add(dst, f.Table(c))
	s.run(f.Kernel())
}

// Table returns the region-kernel lookup state for multiplication by c,
// for the Op lists Kernel.RunOps runs. Callers resolve it once (at
// plan-compile time) and reuse it across calls.
func (f *Field) Table(c uint32) *MulTable {
	if f.wide != nil {
		return f.wideTable(c & f.mask)
	}
	return &f.tables[c&f.mask]
}

// wideTable returns the w == 16 table of c, building it on first use.
// Racing builders produce identical tables; the first published one wins.
func (f *Field) wideTable(c uint32) *MulTable {
	slot := &f.wide[c]
	if t := slot.Load(); t != nil {
		return t
	}
	w := &wideTable{}
	for a := uint32(0); a < 256; a++ {
		w.lo[a] = uint16(f.Mul(c, a))
		w.hi[a] = uint16(f.Mul(c, a<<8))
	}
	slot.CompareAndSwap(nil, &MulTable{wide: w})
	return slot.Load()
}

// MultXORFused computes dsts[i] ^= coeffs[i]·src for every destination in
// one pass over src — the fused form of MultXOR that a multi-parity
// encode uses so each source region is read once instead of once per
// parity row. Zero coefficients are skipped. Every dsts[i] must have
// len(src) bytes. Callers that precompile coefficient columns should
// compile Op lists from Field.Table instead, skipping the per-call table
// lookups.
func (f *Field) MultXORFused(dsts [][]byte, src []byte, coeffs []uint32) {
	if len(dsts) != len(coeffs) {
		panic(fmt.Sprintf("gf: fused arity mismatch: dsts=%d coeffs=%d", len(dsts), len(coeffs)))
	}
	s := getFused(src)
	for i, d := range dsts {
		f.checkRegions(d, src)
		if c := coeffs[i] & f.mask; c != 0 {
			s.add(d, f.Table(c))
		}
	}
	s.run(f.Kernel())
}

// fusedTile is the source bytes one RunOps call of the adapters covers:
// small enough that the source stays L1-resident across an op list
// longer than one op (more than four destinations, or the per-destination
// kernels), large enough to amortise the call.
const fusedTile = 4096

// fusedScratch is the cell vector [src, dsts...], tables and op list the
// adapters hand RunOps, pooled so they allocate nothing in steady state.
type fusedScratch struct {
	cells [][]byte
	idx   []int32
	tabs  []*MulTable
	ops   []Op
}

var fusedPool = sync.Pool{New: func() any { return new(fusedScratch) }}

// getFused takes a scratch from the pool with src as its cell 0.
func getFused(src []byte) *fusedScratch {
	s := fusedPool.Get().(*fusedScratch)
	s.cells, s.idx, s.tabs = append(s.cells[:0], src), s.idx[:0], s.tabs[:0]
	return s
}

// add appends destination d, multiplied into by t.
func (s *fusedScratch) add(d []byte, t *MulTable) {
	if len(d) < len(s.cells[0]) {
		panic(fmt.Sprintf("gf: fused destination %d has %d bytes, want at least %d", len(s.idx), len(d), len(s.cells[0])))
	}
	s.cells = append(s.cells, d)
	s.idx = append(s.idx, int32(len(s.cells)-1))
	s.tabs = append(s.tabs, t)
}

// run computes every destination ^= its table·src on kernel k, one
// RunOps call per fusedTile of src, and returns the scratch to the pool.
func (s *fusedScratch) run(k Kernel) {
	n := len(s.cells[0])
	s.ops = AppendOps(s.ops[:0], true, 0, s.idx, s.tabs)
	for lo := 0; lo < n; lo += fusedTile {
		k.RunOps(s.ops, s.cells, lo, min(lo+fusedTile, n))
	}
	clear(s.cells) // pin no caller memory in the pool
	clear(s.tabs)
	fusedPool.Put(s)
}

// wideTable is the GF(2^16) per-coefficient lookup state: the products of
// c with every low byte and every high byte of a two-byte symbol, so
// c·v = lo[v&0xff] ^ hi[v>>8] by linearity.
type wideTable struct {
	lo, hi [256]uint16
}

// mulWide is the one GF(2^16) region loop: dst ^= c·src when acc is set,
// dst = c·src otherwise, over little-endian two-byte symbols, four symbols
// (one uint64) per iteration. len(src) must be even.
func mulWide(dst, src []byte, t *wideTable, acc bool) {
	lo, hi := &t.lo, &t.hi
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		p := uint64(lo[src[i]]^hi[src[i+1]]) |
			uint64(lo[src[i+2]]^hi[src[i+3]])<<16 |
			uint64(lo[src[i+4]]^hi[src[i+5]])<<32 |
			uint64(lo[src[i+6]]^hi[src[i+7]])<<48
		if acc {
			p ^= binary.LittleEndian.Uint64(dst[i:])
		}
		binary.LittleEndian.PutUint64(dst[i:], p)
	}
	for ; i+1 < n; i += 2 {
		v := lo[src[i]] ^ hi[src[i+1]]
		if acc {
			v ^= uint16(dst[i]) | uint16(dst[i+1])<<8
		}
		dst[i] = byte(v)
		dst[i+1] = byte(v >> 8)
	}
}

// wideKernel is the Kernel face of the GF(2^16) region loop, for
// Field.Kernel: its tables carry only the wide products, so every
// coefficient op goes through mulWide. XOR is field-independent and stays
// on the dispatched kernel. It is never registered: byte-symbol tables
// have no wide products to run on.
type wideKernel struct{}

func (wideKernel) Name() string { return portableKernel{}.Name() }

func (wideKernel) XORRegion(dst, src []byte) { activeKernel().XORRegion(dst, src) }

// RunOps runs every op one destination at a time through mulWide. A
// byte range that splits a symbol (a plan tile or worker range starting
// on an odd byte) is a caller bug that would silently corrupt the
// boundary symbols, so it panics.
func (wideKernel) RunOps(ops []Op, cells [][]byte, lo, hi int) {
	if (lo|hi)%2 != 0 {
		panic(fmt.Sprintf("gf: region [%d, %d) splits a 2-byte symbol", lo, hi))
	}
	runOpsPerDest(ops, cells, lo, hi)
}

// XORRegion computes dst ^= src. It is field-independent, and it is
// the hot inner loop of every encode: the schedules decompose all
// parity work into Mult_XORs, and the c==1 fast path (common, since
// many STAIR coefficients are 1) is exactly this function. It dispatches
// to the active kernel — SIMD where available, the widened uint64-word
// loop otherwise; BenchmarkXORRegionWide measures both against the old
// byte-wise baseline.
func XORRegion(dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: region length mismatch: dst=%d src=%d", len(dst), len(src)))
	}
	activeKernel().XORRegion(dst, src)
}
