package gf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

var testWidths = []int{4, 8, 16}

func TestNewFieldSupportedWidths(t *testing.T) {
	for _, w := range testWidths {
		f, err := NewField(w)
		if err != nil {
			t.Fatalf("NewField(%d): %v", w, err)
		}
		if f.W() != w {
			t.Errorf("W() = %d, want %d", f.W(), w)
		}
		if f.Size() != 1<<w {
			t.Errorf("Size() = %d, want %d", f.Size(), 1<<w)
		}
	}
}

func TestNewFieldUnsupportedWidths(t *testing.T) {
	for _, w := range []int{0, 1, 2, 3, 5, 7, 9, 12, 17, 32, -1} {
		if _, err := NewField(w); err == nil {
			t.Errorf("NewField(%d): want error, got nil", w)
		}
	}
}

func TestGetCachesInstances(t *testing.T) {
	a := Get(8)
	b := Get(8)
	if a != b {
		t.Error("Get(8) returned distinct instances")
	}
}

func TestGetPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get(3) did not panic")
		}
	}()
	Get(3)
}

// TestFieldAxioms exhaustively checks the field axioms for w=4 and spot
// checks them for w=8 and w=16 with testing/quick.
func TestFieldAxiomsExhaustiveW4(t *testing.T) {
	f := Get(4)
	n := uint32(16)
	for a := uint32(0); a < n; a++ {
		for b := uint32(0); b < n; b++ {
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("commutativity fails at %d,%d", a, b)
			}
			for c := uint32(0); c < n; c++ {
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("associativity fails at %d,%d,%d", a, b, c)
				}
				if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
					t.Fatalf("distributivity fails at %d,%d,%d", a, b, c)
				}
			}
		}
	}
	for a := uint32(1); a < n; a++ {
		if f.Mul(a, f.Inv(a)) != 1 {
			t.Fatalf("inverse fails at %d", a)
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, w := range []int{8, 16} {
		f := Get(w)
		mask := uint32(1<<w) - 1
		commut := func(a, b uint32) bool {
			a, b = a&mask, b&mask
			return f.Mul(a, b) == f.Mul(b, a)
		}
		assoc := func(a, b, c uint32) bool {
			a, b, c = a&mask, b&mask, c&mask
			return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
		}
		distrib := func(a, b, c uint32) bool {
			a, b, c = a&mask, b&mask, c&mask
			return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
		}
		identity := func(a uint32) bool {
			a &= mask
			return f.Mul(a, 1) == a && f.Add(a, 0) == a
		}
		inverse := func(a uint32) bool {
			a &= mask
			if a == 0 {
				return true
			}
			return f.Mul(a, f.Inv(a)) == 1
		}
		for name, fn := range map[string]any{
			"commutativity":  commut,
			"associativity":  assoc,
			"distributivity": distrib,
			"identity":       identity,
			"inverse":        inverse,
		} {
			if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
				t.Errorf("w=%d %s: %v", w, name, err)
			}
		}
	}
}

func TestMulByZero(t *testing.T) {
	for _, w := range testWidths {
		f := Get(w)
		for a := uint32(0); a < 64; a++ {
			if f.Mul(a, 0) != 0 || f.Mul(0, a) != 0 {
				t.Errorf("w=%d: a·0 != 0 for a=%d", w, a)
			}
		}
	}
}

// TestDiv: dividing is multiplying by the inverse, and undoes Mul.
func TestDiv(t *testing.T) {
	for _, w := range testWidths {
		f := Get(w)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 500; i++ {
			a := uint32(rng.Intn(f.Size()))
			b := uint32(1 + rng.Intn(f.Size()-1))
			q := f.Mul(a, f.Inv(b))
			if f.Mul(q, b) != a {
				t.Fatalf("w=%d: (%d/%d)·%d = %d, want %d", w, a, b, b, f.Mul(q, b), a)
			}
		}
		if f.Mul(0, f.Inv(5)) != 0 {
			t.Errorf("w=%d: 0/5 != 0", w)
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	f := Get(8)
	defer func() {
		if recover() == nil {
			t.Error("division by zero did not panic")
		}
	}()
	f.Mul(3, f.Inv(0))
}

func TestInvZeroPanics(t *testing.T) {
	f := Get(8)
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) did not panic")
		}
	}()
	f.Inv(0)
}

func TestExp(t *testing.T) {
	for _, w := range testWidths {
		f := Get(w)
		for _, a := range []uint32{0, 1, 2, 3, 7, uint32(f.Size() - 1)} {
			got := uint32(1)
			for n := 0; n < 20; n++ {
				if e := f.Exp(a, n); e != got {
					if !(a == 0 && n == 0) { // 0^0 defined as 1
						t.Fatalf("w=%d: Exp(%d,%d) = %d, want %d", w, a, n, e, got)
					}
				}
				got = f.Mul(got, a)
			}
		}
		if f.Exp(0, 0) != 1 {
			t.Errorf("w=%d: Exp(0,0) != 1", w)
		}
		if f.Exp(0, 5) != 0 {
			t.Errorf("w=%d: Exp(0,5) != 0", w)
		}
	}
}

// TestExpOrder verifies that the generator has full multiplicative order,
// i.e. the chosen polynomial is primitive.
func TestExpOrder(t *testing.T) {
	for _, w := range testWidths {
		f := Get(w)
		seen := make(map[uint32]bool)
		x := uint32(1)
		for i := 0; i < f.Size()-1; i++ {
			if seen[x] {
				t.Fatalf("w=%d: generator order < 2^w-1 (repeat at step %d)", w, i)
			}
			seen[x] = true
			x = f.Mul(x, 2)
		}
		if x != 1 {
			t.Fatalf("w=%d: g^(2^w-1) = %d, want 1", w, x)
		}
	}
}

func randRegion(rng *rand.Rand, n int, f *Field) []byte {
	b := make([]byte, n)
	rng.Read(b)
	if f.W() == 4 {
		for i := range b {
			b[i] &= 0x0f
		}
	}
	return b
}

// readSym and writeSym access symbol i of a region, little-endian for
// w == 16.
func readSym(f *Field, region []byte, i int) uint32 {
	if f.W() == 16 {
		return uint32(region[2*i]) | uint32(region[2*i+1])<<8
	}
	return uint32(region[i]) & f.mask
}

func writeSym(f *Field, region []byte, i int, v uint32) {
	if f.W() == 16 {
		region[2*i], region[2*i+1] = byte(v), byte(v>>8)
		return
	}
	region[i] = byte(v)
}

func TestMultXORMatchesScalar(t *testing.T) {
	for _, w := range testWidths {
		f := Get(w)
		rng := rand.New(rand.NewSource(int64(w)))
		n := 64 * f.SymbolBytes()
		for trial := 0; trial < 50; trial++ {
			src := randRegion(rng, n, f)
			dst := randRegion(rng, n, f)
			c := uint32(rng.Intn(f.Size()))
			want := make([]byte, n)
			copy(want, dst)
			for i := 0; i < n/f.SymbolBytes(); i++ {
				writeSym(f, want, i, f.Add(readSym(f, want, i), f.Mul(c, readSym(f, src, i))))
			}
			f.MultXOR(dst, src, c)
			if !bytes.Equal(dst, want) {
				t.Fatalf("w=%d c=%d: MultXOR disagrees with scalar arithmetic", w, c)
			}
		}
	}
}

// TestMultRegionMatchesScalar: an overwrite op on the field's kernel
// leaves c·src, symbol by symbol.
func TestMultRegionMatchesScalar(t *testing.T) {
	for _, w := range testWidths {
		f := Get(w)
		rng := rand.New(rand.NewSource(int64(w) * 7))
		n := 48 * f.SymbolBytes()
		for trial := 0; trial < 50; trial++ {
			src := randRegion(rng, n, f)
			dst := make([]byte, n)
			c := uint32(rng.Intn(f.Size()))
			mulOn(f.Kernel(), dst, src, f.Table(c), false)
			for i := 0; i < n/f.SymbolBytes(); i++ {
				want := f.Mul(c, readSym(f, src, i))
				if got := readSym(f, dst, i); got != want {
					t.Fatalf("w=%d c=%d sym %d: got %d want %d", w, c, i, got, want)
				}
			}
		}
	}
}

func TestMultXORByOneIsXOR(t *testing.T) {
	for _, w := range testWidths {
		f := Get(w)
		n := 32 * f.SymbolBytes()
		rng := rand.New(rand.NewSource(9))
		src := randRegion(rng, n, f)
		dst := randRegion(rng, n, f)
		want := make([]byte, n)
		copy(want, dst)
		XORRegion(want, src)
		f.MultXOR(dst, src, 1)
		if !bytes.Equal(dst, want) {
			t.Errorf("w=%d: MultXOR by 1 != XOR", w)
		}
	}
}

func TestMultXORByZeroIsNoop(t *testing.T) {
	for _, w := range testWidths {
		f := Get(w)
		n := 32 * f.SymbolBytes()
		rng := rand.New(rand.NewSource(11))
		src := randRegion(rng, n, f)
		dst := randRegion(rng, n, f)
		want := make([]byte, n)
		copy(want, dst)
		f.MultXOR(dst, src, 0)
		if !bytes.Equal(dst, want) {
			t.Errorf("w=%d: MultXOR by 0 modified dst", w)
		}
	}
}

func TestMultXORLinearity(t *testing.T) {
	// c1·x ^ c2·x == (c1+c2)·x, applied region-wise.
	for _, w := range testWidths {
		f := Get(w)
		rng := rand.New(rand.NewSource(13))
		n := 40 * f.SymbolBytes()
		src := randRegion(rng, n, f)
		c1 := uint32(rng.Intn(f.Size()))
		c2 := uint32(rng.Intn(f.Size()))
		a := make([]byte, n)
		f.MultXOR(a, src, c1)
		f.MultXOR(a, src, c2)
		b := make([]byte, n)
		f.MultXOR(b, src, f.Add(c1, c2))
		if !bytes.Equal(a, b) {
			t.Errorf("w=%d: region linearity violated", w)
		}
	}
}

func TestRegionLengthMismatchPanics(t *testing.T) {
	f := Get(8)
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	f.MultXOR(make([]byte, 4), make([]byte, 8), 3)
}

func TestW16OddRegionPanics(t *testing.T) {
	f := Get(16)
	defer func() {
		if recover() == nil {
			t.Error("odd region for w=16 did not panic")
		}
	}()
	f.MultXOR(make([]byte, 3), make([]byte, 3), 3)
}

// TestReadWriteSymbolRoundtrip guards the symbol accessors the scalar
// references above are built on.
func TestReadWriteSymbolRoundtrip(t *testing.T) {
	for _, w := range testWidths {
		f := Get(w)
		region := make([]byte, 16*f.SymbolBytes())
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 16; i++ {
			v := uint32(rng.Intn(f.Size()))
			writeSym(f, region, i, v)
			if got := readSym(f, region, i); got != v {
				t.Fatalf("w=%d: roundtrip sym %d: got %d want %d", w, i, got, v)
			}
		}
	}
}

func TestXORRegionSelfInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := make([]byte, 100)
	b := make([]byte, 100)
	rng.Read(a)
	rng.Read(b)
	orig := make([]byte, 100)
	copy(orig, a)
	XORRegion(a, b)
	XORRegion(a, b)
	if !bytes.Equal(a, orig) {
		t.Error("double XOR did not restore original")
	}
}

func BenchmarkMultXORW8(b *testing.B) {
	f := Get(8)
	src := make([]byte, 64*1024)
	dst := make([]byte, 64*1024)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MultXOR(dst, src, 0x53)
	}
}

func BenchmarkMultXORW16(b *testing.B) {
	f := Get(16)
	src := make([]byte, 64*1024)
	dst := make([]byte, 64*1024)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MultXOR(dst, src, 0x1234)
	}
}

func BenchmarkXORRegion(b *testing.B) {
	src := make([]byte, 64*1024)
	dst := make([]byte, 64*1024)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XORRegion(dst, src)
	}
}
