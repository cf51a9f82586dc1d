package integrity

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"
)

// stdlibSum is Sum's definition computed the obvious way with the
// standard library: crc32.Checksum(LE64(epoch|col<<32) ‖ LE64(sector)
// ‖ data).
func stdlibSum(epoch uint32, col, sector int, data []byte) uint32 {
	msg := binary.LittleEndian.AppendUint64(nil, uint64(epoch)|uint64(uint32(col))<<32)
	msg = binary.LittleEndian.AppendUint64(msg, uint64(sector))
	return crc32.Checksum(append(msg, data...), castagnoli)
}

// testSalt is an (epoch, column, sector) address, in the types Sum takes.
type testSalt struct {
	epoch       uint32
	col, sector int
}

// testSalts are the addresses the grid tests digest under. The sector
// 2^63−1 is an int only where int has 64 bits.
var testSalts = func() []testSalt {
	salts := []testSalt{{0, 0, 0}, {1, 2, 3}, {0xdeadbeef, 65535, 1 << 30}}
	if strconv.IntSize == 64 {
		salts = append(salts, testSalt{0xffffffff, 1<<31 - 1, math.MaxInt})
	}
	return salts
}()

// TestSumMatchesStdlib holds Sum, and the portable sumStdlib it falls
// back to, to the stdlib across lengths (either side of the fold
// threshold and the 64-byte block size), alignments and salts. On
// amd64 this differentially proves the VPCLMULQDQ kernel, salt and
// residual included.
func TestSumMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	backing := make([]byte, 1<<16+64)
	rng.Read(backing)

	check := func(epoch uint32, col, sector int, p []byte, off int) {
		t.Helper()
		want := stdlibSum(epoch, col, sector, p)
		w0, w1 := uint64(epoch)|uint64(uint32(col))<<32, uint64(sector)
		if got := Sum(epoch, col, sector, p); got != want {
			t.Fatalf("Sum(%#x, %d, %d, len=%d off=%d) = %#x, stdlib %#x", epoch, col, sector, len(p), off, got, want)
		}
		if got := sumStdlib(w0, w1, p); got != want {
			t.Fatalf("sumStdlib(%#x, %d, %d, len=%d off=%d) = %#x, stdlib %#x", epoch, col, sector, len(p), off, got, want)
		}
	}
	lengths := []int{0, 1, 15, 16, 63, 64, 127, 128, 255, 256, 257, 320, 511, 512, 1023, 4096, 8192, 65536}
	for _, n := range lengths {
		for _, off := range []int{0, 1, 7, 32, 63} {
			for _, s := range testSalts {
				check(s.epoch, s.col, s.sector, backing[off:off+n], off)
			}
		}
	}
	// Random shapes on top of the grid.
	for i := 0; i < 500; i++ {
		off := rng.Intn(64)
		n := rng.Intn(1 << 14)
		check(rng.Uint32(), rng.Int(), rng.Int(), backing[off:off+n], off)
	}
}

// TestSumGolden pins the on-disk digest: these values were computed
// by the implementation that wrote the first volumes, over a payload
// of bytes i*31+7. A change here is a sidecar format change.
func TestSumGolden(t *testing.T) {
	for _, g := range []struct {
		epoch       uint32
		col, sector int
		n           int
		sum         uint32
	}{
		{0x0, 0, 0, 0, 0x42709aea},
		{0x1, 0, 0, 1, 0x51c31b5d},
		{0x7, 3, 41, 15, 0x060633bb},
		{0xdeadbeef, 65535, 1 << 30, 255, 0xa23f342c},
		{0x1, 0, 0, 256, 0x056d34d6},
		{0x2, 5, 1000, 300, 0xcf6db7a9},
		{0x3, 7, 123456, 512, 0x328a56f4},
		{0xffffffff, 1, 0, 4096, 0xb868ed5c},
		{0x2a, 2, 77, 4100, 0x3cf20833},
		{0x9, 11, 1 << 20, 32768, 0xc3e69e4b},
	} {
		data := make([]byte, g.n)
		for i := range data {
			data[i] = byte(i*31 + 7)
		}
		if got := Sum(g.epoch, g.col, g.sector, data); got != g.sum {
			t.Errorf("Sum(%#x, %d, %d, %d bytes) = %#08x, golden %#08x", g.epoch, g.col, g.sector, g.n, got, g.sum)
		}
	}
	for _, g := range []struct {
		rec Record
		hex string
	}{
		{Record{Epoch: 1}, "0101000001000000000000008beb5cc4"},
		{Record{Epoch: 3, Sum: 0x1234abcd}, "0101000003000000cdab341296c9bcb8"},
		{Record{Epoch: 0xffffffff, Sum: 0xffffffff}, "01010000ffffffffffffffffe16f2f49"},
	} {
		var raw [RecordSize]byte
		Encode(raw[:], g.rec)
		if got := hex.EncodeToString(raw[:]); got != g.hex {
			t.Errorf("Encode(%+v) = %s, golden %s", g.rec, got, g.hex)
		}
	}
}

// TestRecordSelfCheckMatchesStdlib: the record self-check that Encode
// writes and Decode compares is CRC32C of the record's first 12 bytes,
// whichever instructions compute it.
func TestRecordSelfCheckMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var raw [RecordSize]byte
	for i := 0; i < 5000; i++ {
		Encode(raw[:], Record{Epoch: rng.Uint32(), Sum: rng.Uint32()})
		if got, want := binary.LittleEndian.Uint32(raw[12:16]), crc32.Checksum(raw[0:12], castagnoli); got != want {
			t.Fatalf("Encode(%x) self-check %#x, stdlib %#x", raw[0:12], got, want)
		}
		rng.Read(raw[:])
		if got, want := recordCRC(raw[:]), crc32.Checksum(raw[0:12], castagnoli); got != want {
			t.Fatalf("recordCRC(%x) = %#x, stdlib %#x", raw[0:12], got, want)
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

// BenchmarkSum times a sector digest against the same digest through
// crcWord and hash/crc32 (the path below the fold threshold).
// FuzzCRCUpdate differentially fuzzes the dispatched kernel sum against
// the stdlib over arbitrary salt words — including ones no (epoch,
// column, sector) address produces — so any divergence in the folding
// kernel, its salt or its residual, however obscure the length/salt
// combination, is caught below Sum's address packing.
func FuzzCRCUpdate(f *testing.F) {
	big := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(big)
	f.Add(uint64(0), uint64(0), []byte("hello"))
	f.Add(^uint64(0), ^uint64(0), big)
	f.Add(uint64(0xdeadbeef), uint64(0x0123456789abcdef), big[:257])
	f.Fuzz(func(t *testing.T, w0, w1 uint64, p []byte) {
		msg := binary.LittleEndian.AppendUint64(nil, w0)
		msg = binary.LittleEndian.AppendUint64(msg, w1)
		want := crc32.Checksum(append(msg, p...), castagnoli)
		if got := sum(w0, w1, p); got != want {
			t.Fatalf("sum(%#x, %#x, len=%d) = %#x, stdlib %#x", w0, w1, len(p), got, want)
		}
	})
}

func BenchmarkSum(b *testing.B) {
	for _, n := range []int{512, 1024, 4096, 8192, 32768, 65536} {
		p := make([]byte, n)
		rand.New(rand.NewSource(2)).Read(p)
		b.Run(benchName("", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				crcSink = Sum(crcSink, 3, i, p)
			}
		})
		b.Run(benchName("stdlib-", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				crcSink = sumStdlib(uint64(crcSink)|3<<32, uint64(i), p)
			}
		})
	}
}

var crcSink uint32

func benchName(kind string, n int) string {
	if n >= 1024 {
		return kind + itoa(n/1024) + "KiB"
	}
	return kind + itoa(n) + "B"
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
