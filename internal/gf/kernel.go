package gf

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file is the pluggable kernel layer behind the region operations.
//
// The STAIR paper's implementation owes its speed numbers to GF-Complete's
// SIMD split-table multiplication: §5.3 reduces all encoding work to
// Mult_XOR region ops, and GF-Complete computes them 16–32 bytes at a time
// with PSHUFB/TBL nibble lookups. This port reproduces that design as a
// small Kernel interface whose one multiply entry, RunOps, runs compiled
// Op lists, with runtime CPU dispatch: assembly kernels for
// amd64 (GFNI, AVX2 and SSSE3) where the build allows them, and a
// portable widened-word fallback everywhere else (every other GOARCH,
// arm64 included, and the `purego` build tag).
//
// A kernel operates on GF(2^8) symbol regions through a MulTable — the
// per-coefficient lookup state derived from the field's full product
// table: the 256-entry row for scalar/tail work plus the 16-entry low-
// and high-nibble split tables the SIMD paths shuffle against. GF(2^4)
// regions reuse the same kernels (its split table has an all-zero high
// half, see buildTables); GF(2^16) tables never reach a dispatched
// kernel — Field.Kernel hands w == 16 fields the wide kernel in gf.go.

// MulTable is the per-coefficient lookup state the region ops multiply
// through. For GF(2^8)/GF(2^4) it is the full multiply-by-c row plus its
// 4-bit split tables; for GF(2^16) only wide is set.
//
// For every byte v, Row[v] == Lo[v&0x0f] ^ Hi[v>>4]; the SIMD kernels
// exploit that identity to translate 16 or 32 bytes per shuffle while the
// scalar paths index Row directly.
type MulTable struct {
	Row  [256]byte // Row[v] = c·v
	Lo   [16]byte  // Lo[x] = c·x            (low-nibble products)
	Hi   [16]byte  // Hi[x] = c·(x<<4)       (high-nibble products)
	Gfni uint64    // 8×8 bit matrix of v ↦ c·v for VGF2P8AFFINEQB

	wide *wideTable // two-byte-symbol products; non-nil iff w == 16
}

// The fused amd64 assembly routines address Lo at byte offset
// 256 and Hi at 272 from a *MulTable; these constants refuse to compile
// (negative shift into uint) if the struct layout ever drifts.
const (
	_ = uint(unsafe.Offsetof(MulTable{}.Lo) - 256)
	_ = uint(256 - unsafe.Offsetof(MulTable{}.Lo))
	_ = uint(unsafe.Offsetof(MulTable{}.Hi) - 272)
	_ = uint(272 - unsafe.Offsetof(MulTable{}.Hi))
)

// gfniMatrix derives the VGF2P8AFFINEQB bit matrix for a coefficient
// from its product row. Row is GF(2)-linear in the input byte for both
// w=8 (c·v) and w=4 (c·(v&0x0f), high rows zero), so the map is fully
// determined by the images of the eight basis bytes 1<<k. The
// instruction reads output bit i's row from matrix byte 7-i, with row
// bit k selecting input bit k.
func gfniMatrix(row *[256]byte) uint64 {
	var m uint64
	for bit := 0; bit < 8; bit++ {
		var r byte
		for k := 0; k < 8; k++ {
			if row[1<<k]>>bit&1 == 1 {
				r |= 1 << k
			}
		}
		m |= uint64(r) << (8 * (7 - bit))
	}
	return m
}

// Kernel is the one way into the region arithmetic: every encode and
// decode schedule in this module compiles to an Op list that RunOps
// executes. Implementations must handle any range, including empty and
// misaligned ones, and must be safe for concurrent use (kernels are
// stateless).
type Kernel interface {
	// Name identifies the kernel in benchmarks, BENCH_*.json entries and
	// the STAIR_GF_KERNEL override ("avx2", "ssse3", "portable", ...).
	Name() string
	// XORRegion computes dst ^= src; dst and src have equal length.
	XORRegion(dst, src []byte)
	// RunOps runs a compiled op list over bytes [lo, hi) of cells, op
	// after op: an op reads cells[Src][lo:hi] and writes
	// cells[Dst[j]][lo:hi]. Plans call it once per tile, and
	// Field.MultXOR and MultXORFused adapt their regions to it. The SIMD
	// kernels keep each source block register-resident while updating
	// all of an op's destinations (the ISA-L ec_encode_data shape),
	// calling their assembly directly on &cells[i][lo], and hand the
	// ragged tail under one vector to the portable runner. Every cell an
	// op names must hold at least hi bytes, since the assembly writes
	// through raw pointers and does not re-check; callers check once per
	// run. Within an op the destinations must not overlap the source or
	// each other. Results are byte-identical to the portable runner.
	RunOps(ops []Op, cells [][]byte, lo, hi int)
}

// Op is one kernel call of a compiled plan: Tab[j]·Src into Dst[j] for
// the first N destinations, every cell named by its index in the cell
// vector RunOps runs over. N is 1 to 4; AppendOps emits 4, 2 and 1, the
// arities the SIMD kernels have routines for. N == 0 zero-fills Dst[0]
// and reads no source. Acc accumulates (dst ^= c·src) instead of
// overwriting (dst = c·src).
type Op struct {
	N   uint8
	Acc bool
	Src int32
	Dst [4]int32
	Tab [4]*MulTable
}

// AppendOps appends the ops computing dsts[i] (^)= tabs[i]·src, split
// into fours, then a pair, then a single.
func AppendOps(ops []Op, acc bool, src int32, dsts []int32, tabs []*MulTable) []Op {
	for len(dsts) > 0 {
		n := 1
		if len(dsts) >= 4 {
			n = 4
		} else if len(dsts) >= 2 {
			n = 2
		}
		ops = append(ops, Op{N: uint8(n), Acc: acc, Src: src})
		o := &ops[len(ops)-1]
		for j := range n {
			o.Dst[j], o.Tab[j] = dsts[j], tabs[j]
		}
		dsts, tabs = dsts[n:], tabs[n:]
	}
	return ops
}

// runOpsPerDest runs ops one destination at a time through the
// widened-word loops: mulBytes for byte-symbol tables, mulWide for
// GF(2^16) ones. It is the whole runner of the portable and wide
// kernels, and the ragged-tail path of the SIMD ones.
func runOpsPerDest(ops []Op, cells [][]byte, lo, hi int) {
	for i := range ops {
		o := &ops[i]
		if o.N == 0 {
			clear(cells[o.Dst[0]][lo:hi])
			continue
		}
		src := cells[o.Src][lo:hi]
		for j, d := range o.Dst[:o.N] {
			if t := o.Tab[j]; t.wide != nil {
				mulWide(cells[d][lo:hi], src, t.wide, o.Acc)
			} else {
				mulBytes(cells[d][lo:hi], src, t, o.Acc)
			}
		}
	}
}

// registeredKernel pairs a kernel with its dispatch priority; higher wins.
// The portable kernel registers at priority 0, architecture init()s add
// their kernels above it when the CPU supports them.
type registeredKernel struct {
	k        Kernel
	priority int
}

var (
	kernelMu       sync.Mutex
	kernelRegistry []registeredKernel
	// kernelActive caches the dispatch choice. It is the only kernel
	// state touched on the hot path: region ops are called per sector in
	// tight encode loops, so selection must cost one atomic load, not a
	// mutex (which would also bounce a contended cacheline across the
	// store's flush/repair worker pools). nil means "not chosen yet".
	kernelActive atomic.Pointer[chosenKernel]
)

// chosenKernel wraps the interface value so the atomic pointer has a
// concrete type to point at.
type chosenKernel struct{ k Kernel }

// registerKernel adds a kernel to the dispatch table. It is called from
// package init() functions only, before any region op can run.
func registerKernel(k Kernel, priority int) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	kernelRegistry = append(kernelRegistry, registeredKernel{k, priority})
	sort.SliceStable(kernelRegistry, func(i, j int) bool {
		return kernelRegistry[i].priority > kernelRegistry[j].priority
	})
	kernelActive.Store(nil) // re-pick if registration races a Get (init order)
}

// Init resolves kernel dispatch eagerly, honouring the STAIR_GF_KERNEL
// environment override, and reports an unusable override as an error. It
// is idempotent and safe for concurrent use. Call it (directly, or via
// NewField/Get — every Field construction routes through it) at startup
// so a typo'd override surfaces as a clean error there rather than a
// panic deep inside the first region op.
func Init() error {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if kernelActive.Load() != nil {
		return nil
	}
	k, err := pickKernel(os.Getenv("STAIR_GF_KERNEL"))
	if err != nil {
		return err
	}
	kernelActive.Store(&chosenKernel{k})
	return nil
}

// activeKernel returns the dispatched kernel, honouring the
// STAIR_GF_KERNEL environment override on first use.
func activeKernel() Kernel {
	if c := kernelActive.Load(); c != nil {
		return c.k
	}
	return chooseKernel()
}

// chooseKernel is the cold path of activeKernel. Region ops cannot
// return errors, so a bad override that survived to this point (the
// caller bypassed Init and every Field constructor) still panics; the
// supported startup surfaces turn it into an error first.
func chooseKernel() Kernel {
	if err := Init(); err != nil {
		panic(err)
	}
	return kernelActive.Load().k
}

// pickKernel resolves the dispatch choice: the highest-priority registered
// kernel, unless the override names a specific one. An unknown override is
// an error — an A/B run measuring the wrong kernel is worse than no run —
// surfaced from Init and Field construction. An empty registry can only
// mean internal misregistration (the portable kernel registers
// unconditionally), so that stays a panic. Called with kernelMu held.
func pickKernel(override string) (Kernel, error) {
	if len(kernelRegistry) == 0 {
		panic("gf: no region kernels registered (portable kernel init missing)")
	}
	if override == "" {
		return kernelRegistry[0].k, nil
	}
	for _, r := range kernelRegistry {
		if r.k.Name() == override {
			return r.k, nil
		}
	}
	return nil, fmt.Errorf("gf: STAIR_GF_KERNEL=%q does not name a usable kernel on this CPU (have %v)",
		override, kernelNamesLocked())
}

// KernelNames lists the usable kernels in dispatch-priority order (the
// first entry is what runs unless STAIR_GF_KERNEL overrides it).
func KernelNames() []string {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	return kernelNamesLocked()
}

func kernelNamesLocked() []string {
	names := make([]string, len(kernelRegistry))
	for i, r := range kernelRegistry {
		names[i] = r.k.Name()
	}
	return names
}

// ActiveKernelName reports which kernel region operations dispatch to.
func ActiveKernelName() string { return activeKernel().Name() }

// kernelByName fetches a registered kernel for tests and benchmarks that
// exercise every code path regardless of dispatch.
func kernelByName(name string) (Kernel, bool) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	for _, r := range kernelRegistry {
		if r.k.Name() == name {
			return r.k, true
		}
	}
	return nil, false
}

// resetKernelForTest forces re-selection (re-reading STAIR_GF_KERNEL) on
// the next region op. Test-only.
func resetKernelForTest() {
	kernelActive.Store(nil)
}

// ---------------------------------------------------------------------------
// Shared scalar tails.
//
// Every kernel — assembly or portable — finishes through these helpers, so
// ragged tails and sub-vector regions behave identically on every code
// path. (Before the kernel layer, XORRegion's uint64 widening quietly fell
// back to a private byte loop for unaligned/short tails; hoisting the tail
// into one shared, tested helper is what keeps a 4097-byte region on AVX2
// and the same region on purego byte-for-byte identical.)

// xorTail computes dst ^= src for the len(dst) == len(src) remainder of a
// region, uint64 words first, bytes for what's left. On little-endian
// targets the Uint64/PutUint64 pairs compile to single unaligned loads and
// stores, so each iteration is one 64-bit XOR instead of eight byte ops.
func xorTail(dst, src []byte) {
	n := len(src)
	i := 0
	// Two words per iteration: enough ILP to keep the load/store ports
	// busy without the compiler's bounds checks dominating.
	for ; i+16 <= n; i += 16 {
		a := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(src[i:])
		b := binary.LittleEndian.Uint64(dst[i+8:]) ^ binary.LittleEndian.Uint64(src[i+8:])
		binary.LittleEndian.PutUint64(dst[i:], a)
		binary.LittleEndian.PutUint64(dst[i+8:], b)
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// multXORTail computes dst ^= c·src through the table row, one byte at a
// time: the byte tail of mulBytes and the reference FuzzRunOps holds
// every kernel to.
func multXORTail(dst, src []byte, t *MulTable) {
	for i, v := range src {
		dst[i] ^= t.Row[v]
	}
}

// mulRegionTail computes dst = c·src through the table row.
func mulRegionTail(dst, src []byte, t *MulTable) {
	for i, v := range src {
		dst[i] = t.Row[v]
	}
}

// ---------------------------------------------------------------------------
// Portable kernel.

// portableKernel is the widened-word fallback: mulBytes assembles
// products eight table lookups at a time into a uint64 so the
// read-modify-write against dst happens once per word instead of once
// per byte. It is the only kernel under the `purego` build tag and on
// architectures without an assembly kernel, and the baseline the CI
// bench guard holds the dispatched kernel against.
type portableKernel struct{}

func (portableKernel) Name() string { return "portable" }

// mulBytes is the one portable GF(2^8)/GF(2^4) region loop: dst ^= c·src
// when acc is set, dst = c·src otherwise, eight row lookups assembled
// into one uint64 per iteration.
func mulBytes(dst, src []byte, t *MulTable, acc bool) {
	row := &t.Row
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		p := uint64(row[src[i]]) |
			uint64(row[src[i+1]])<<8 |
			uint64(row[src[i+2]])<<16 |
			uint64(row[src[i+3]])<<24 |
			uint64(row[src[i+4]])<<32 |
			uint64(row[src[i+5]])<<40 |
			uint64(row[src[i+6]])<<48 |
			uint64(row[src[i+7]])<<56
		if acc {
			p ^= binary.LittleEndian.Uint64(dst[i:])
		}
		binary.LittleEndian.PutUint64(dst[i:], p)
	}
	if acc {
		multXORTail(dst[i:], src[i:], t)
	} else {
		mulRegionTail(dst[i:], src[i:], t)
	}
}

func (portableKernel) XORRegion(dst, src []byte) { xorTail(dst, src) }

func (portableKernel) RunOps(ops []Op, cells [][]byte, lo, hi int) {
	runOpsPerDest(ops, cells, lo, hi)
}

func init() { registerKernel(portableKernel{}, 0) }
