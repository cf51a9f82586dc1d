package integrity

import (
	"hash/crc32"
	"math/bits"
	"math/rand"
	"testing"
)

// TestCRCUpdateMatchesStdlib holds the dispatched crcUpdate to the
// stdlib across lengths (either side of the fold threshold and the
// 64-byte block size), alignments and initial states. On amd64 this
// differentially proves the VPCLMULQDQ kernel; elsewhere it is a
// trivial identity.
func TestCRCUpdateMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	backing := make([]byte, 1<<16+64)
	rng.Read(backing)

	lengths := []int{0, 1, 15, 16, 63, 64, 127, 128, 255, 256, 257, 320, 511, 512, 1023, 4096, 8192, 65536}
	for _, n := range lengths {
		for _, off := range []int{0, 1, 7, 32, 63} {
			p := backing[off : off+n]
			for _, crc := range []uint32{0, 1, 0xdeadbeef, ^uint32(0)} {
				if got, want := crcUpdate(crc, p), crc32.Update(crc, castagnoli, p); got != want {
					t.Fatalf("crcUpdate(%#x, len=%d off=%d) = %#x, stdlib %#x", crc, n, off, got, want)
				}
			}
		}
	}
	// Random shapes on top of the grid.
	for i := 0; i < 500; i++ {
		off := rng.Intn(64)
		n := rng.Intn(1 << 14)
		crc := rng.Uint32()
		p := backing[off : off+n]
		if got, want := crcUpdate(crc, p), crc32.Update(crc, castagnoli, p); got != want {
			t.Fatalf("crcUpdate(%#x, len=%d off=%d) = %#x, stdlib %#x", crc, n, off, got, want)
		}
	}
}

// xnmod computes x^n mod P for the Castagnoli polynomial — the
// re-derivation half of TestCRCFoldConstants.
func xnmod(n int) uint32 {
	const poly = 0x1EDC6F41
	r := uint32(1)
	for i := 0; i < n; i++ {
		hi := r & 0x80000000
		r <<= 1
		if hi != 0 {
			r ^= poly
		}
	}
	return r
}

// TestCRCFoldConstants re-derives every fold constant baked into
// crc_amd64.s from the polynomial: K(n) = bitrev32(x^(n-32) mod P)
// << 1, the reflected-domain multiply-by-x^n with the CRC's x^32
// pre-multiplication folded in. A mismatch here means the assembly's
// DATA block and this derivation disagree — one of them was edited
// without the other.
func TestCRCFoldConstants(t *testing.T) {
	want := map[int]uint64{
		576: 0x00000000740eef02, // loop: lane low qword, 64-byte distance
		512: 0x000000009e4addf8, // loop: lane high qword
		448: 0x000000001c291d04, // merge lane 0 (48 bytes)
		384: 0x00000001d82c63da,
		320: 0x00000001384aa63a, // merge lane 1 (32 bytes)
		256: 0x00000000ba4fc28e,
		192: 0x00000000f20c0dfe, // merge lane 2 (16 bytes)
		128: 0x000000014cd00bd6,

		2112: 0x00000000dcb17aa4, // main loop: fold one ZMM by 256 bytes
		2048: 0x00000000b9e02b86,
		1600: 0x00000000a87ab8a8, // merge accumulator 0 (192 bytes)
		1536: 0x00000000ab7aff2a,
		1088: 0x000000006992cea2, // merge accumulator 1 (128 bytes)
		1024: 0x000000000d3b6092,
	}
	for n, k := range want {
		if got := uint64(bits.Reverse32(xnmod(n-32))) << 1; got != k {
			t.Errorf("K(%d): derived %#016x, assembly table holds %#016x", n, got, k)
		}
	}
}

// FuzzCRCUpdate differentially fuzzes the dispatched CRC against the
// stdlib — any divergence in the folding kernel, however obscure the
// length/state combination, is a checksum layer that silently lies.
func FuzzCRCUpdate(f *testing.F) {
	big := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(big)
	f.Add(uint32(0), []byte("hello"))
	f.Add(^uint32(0), big)
	f.Add(uint32(0xdeadbeef), big[:257])
	f.Fuzz(func(t *testing.T, crc uint32, p []byte) {
		if got, want := crcUpdate(crc, p), crc32.Update(crc, castagnoli, p); got != want {
			t.Fatalf("crcUpdate(%#x, len=%d) = %#x, stdlib %#x", crc, len(p), got, want)
		}
	})
}

func BenchmarkCRCUpdate(b *testing.B) {
	for _, n := range []int{512, 1024, 4096, 8192, 65536} {
		p := make([]byte, n)
		rand.New(rand.NewSource(2)).Read(p)
		b.Run(benchName("dispatched", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				crcSink = crcUpdate(crcSink, p)
			}
		})
		b.Run(benchName("stdlib", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				crcSink = crc32.Update(crcSink, castagnoli, p)
			}
		})
	}
}

var crcSink uint32

func benchName(kind string, n int) string {
	if n >= 1024 {
		return kind + "-" + itoa(n/1024) + "KiB"
	}
	return kind + "-" + itoa(n) + "B"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
