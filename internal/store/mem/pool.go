// Package mem is the store's tiered, sync.Pool-backed buffer pool. It
// backs the zero-copy stripe memory design: stripe slabs, device
// scratch (a hedged read's included) and network bodies are acquired
// here, used, and released back, so the steady-state hot paths recycle
// a small working set instead of allocating per operation.
//
// Ownership contract:
//
//   - Acquire(n) transfers ownership of an n-byte buffer to the caller.
//     Contents are unspecified — callers must not assume zeroing.
//   - Release(buf) transfers ownership back. The caller must not touch
//     buf afterwards; under the stairpoison build tag the pool fills
//     released buffers with a poison byte so a use-after-release shows
//     up as checksum/parity garbage instead of silent corruption.
//   - Release matches buffers to tiers by capacity. Buffers that did
//     not come from the pool (or were re-sliced so their capacity no
//     longer is a tier size) are silently dropped to the GC — releasing
//     a foreign buffer is always safe, never wrong.
//   - A buffer handed to an operation that returned a context
//     cancellation error may still be referenced by an abandoned inner
//     operation (a hedged read's primary, an in-flight HTTP body). Such
//     buffers must be dropped, not Released: the GC keeps them alive
//     for the straggler, whereas recycling would let it scribble over
//     an unrelated operation's data.
//
// Setting STAIR_POOL=off (or 0/false) disables pooling process-wide:
// Acquire falls back to plain make and Release becomes a no-op. This is
// the escape hatch for bisecting suspected buffer-lifetime bugs —
// every buffer becomes single-use, so use-after-release can no longer
// alias fresh data.
package mem

import (
	"math/bits"
	"os"
	"sync"
)

const (
	// Tier capacities are powers of two from 512 B to 64 MiB. Below the
	// floor the bookkeeping outweighs the allocation saved; above the
	// ceiling buffers are rare enough that the GC should own them.
	minBits  = 9
	maxBits  = 26
	numTiers = maxBits - minBits + 1
)

// PoisonByte is the fill pattern written over released buffers when the
// stairpoison build tag is active.
const PoisonByte = 0xDB

// Pool is a tiered buffer pool. The zero value is ready to use; the
// package-level Acquire/Release operate on a process-wide instance.
type Pool struct {
	off   bool
	tiers [numTiers]sync.Pool
	// hdrs recycles the *[]byte header objects between Get and Put.
	// Without it every Release heap-allocates a fresh 24-byte slice
	// header for sync.Pool's interface box — exactly the kind of
	// per-op allocation this package exists to remove.
	hdrs sync.Pool
}

// NewPool returns a pool; off selects the pass-through mode where
// Acquire always allocates and Release always drops.
func NewPool(off bool) *Pool { return &Pool{off: off} }

// tierFor returns the smallest tier holding n bytes, or -1 when n is
// out of the pooled range.
func tierFor(n int) int {
	if n <= 1<<minBits {
		return 0
	}
	t := bits.Len(uint(n-1)) - minBits // ceil(log2 n) - minBits
	if t >= numTiers {
		return -1
	}
	return t
}

// tierOf returns the tier whose capacity is exactly c, or -1.
func tierOf(c int) int {
	if c < 1<<minBits || c > 1<<maxBits || c&(c-1) != 0 {
		return -1
	}
	return bits.Len(uint(c)) - 1 - minBits
}

// Acquire returns a buffer of length n with unspecified contents. The
// caller owns it until Release.
func (p *Pool) Acquire(n int) []byte {
	if n < 0 {
		panic("mem: Acquire with negative length")
	}
	t := tierFor(n)
	if p.off || t < 0 {
		return make([]byte, n)
	}
	if v := p.tiers[t].Get(); v != nil {
		h := v.(*[]byte)
		b := *h
		*h = nil
		p.hdrs.Put(h)
		return b[:n]
	}
	return make([]byte, n, 1<<(minBits+t))
}

// Release returns a buffer obtained from Acquire. Buffers whose
// capacity is not a tier size (foreign or re-sliced) are dropped.
func (p *Pool) Release(buf []byte) {
	if p.off || buf == nil {
		return
	}
	t := tierOf(cap(buf))
	if t < 0 {
		return
	}
	b := buf[:cap(buf)]
	Poison(b)
	h, _ := p.hdrs.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b
	p.tiers[t].Put(h)
}

// Poison fills buf with PoisonByte under the stairpoison build tag, as
// Release does, and is a no-op otherwise.
func Poison(buf []byte) {
	if Poisoning {
		for i := range buf {
			buf[i] = PoisonByte
		}
	}
}

// Off reports whether this pool is in pass-through mode.
func (p *Pool) Off() bool { return p.off }

// std is the process-wide pool, configured once from STAIR_POOL.
var std = NewPool(envOff())

func envOff() bool {
	switch os.Getenv("STAIR_POOL") {
	case "off", "0", "false", "no":
		return true
	}
	return false
}

// Acquire returns a buffer of length n from the process-wide pool.
func Acquire(n int) []byte { return std.Acquire(n) }

// Release returns a buffer to the process-wide pool.
func Release(buf []byte) { std.Release(buf) }

// Enabled reports whether the process-wide pool is active (STAIR_POOL
// not set to off).
func Enabled() bool { return !std.off }
