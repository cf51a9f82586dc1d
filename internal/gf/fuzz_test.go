package gf

import (
	"bytes"
	"testing"
)

// Native fuzz targets differential-testing every registered kernel —
// assembly and portable alike — against the plain byte-loop reference.
// The fuzzer owns the coefficient, the region bytes, and an offset that
// slides the slices off any natural alignment, so vector heads, word
// bodies and ragged tails all get exercised from one corpus. CI runs a
// short -fuzz smoke on each target; longer local runs just work:
//
//	go test ./internal/gf -fuzz FuzzRunOps -fuzztime 60s

func fuzzRegions(data []byte, off byte) (dst, src []byte) {
	// Split the corpus bytes into two equal regions sharing one backing
	// array, sliced at off&7 so kernels see unaligned starts.
	o := int(off & 7)
	if len(data) < 2*o+2 {
		return nil, nil
	}
	n := (len(data) - 2*o) / 2
	return data[o : o+n : o+n], data[o+n+o : o+n+o+n]
}

func FuzzMultXOR(f *testing.F) {
	f.Add(byte(0x53), byte(0), make([]byte, 64))
	f.Add(byte(1), byte(1), bytes.Repeat([]byte{0xab}, 100))
	f.Add(byte(0xff), byte(7), make([]byte, 8192))
	f.Add(byte(2), byte(3), []byte{1, 2, 3})
	field := Get(8)
	f.Fuzz(func(t *testing.T, c, off byte, data []byte) {
		dst, src := fuzzRegions(data, off)
		if dst == nil {
			t.Skip()
		}
		tab := refMulTable(field, uint32(c))
		want := append([]byte(nil), dst...)
		refMultXOR(want, src, tab)
		// Through the public dispatched surface first, covering the
		// c==1 XOR fast path and the field's own table construction.
		got := append([]byte(nil), dst...)
		field.MultXOR(got, src, uint32(c))
		if !bytes.Equal(got, want) {
			t.Fatalf("Field.MultXOR(c=%#x, n=%d, off=%d) diverges from reference", c, len(src), off&7)
		}
		for _, k := range allKernels() {
			got = append(got[:0:0], dst...)
			mulOn(k, got, src, tab, true)
			if !bytes.Equal(got, want) {
				t.Fatalf("kernel %s MultXOR(c=%#x, n=%d, off=%d) diverges from reference",
					k.Name(), c, len(src), off&7)
			}
			got = append(got[:0:0], dst...)
			mulOn(k, got, src, tab, false)
			ref := append([]byte(nil), dst...)
			refMulRegion(ref, src, tab)
			if !bytes.Equal(got, ref) {
				t.Fatalf("kernel %s MulRegion(c=%#x, n=%d, off=%d) diverges from reference",
					k.Name(), c, len(src), off&7)
			}
		}
	})
}

func FuzzXORRegion(f *testing.F) {
	f.Add(byte(0), make([]byte, 32))
	f.Add(byte(5), bytes.Repeat([]byte{0x5a}, 4099))
	f.Add(byte(7), []byte{1})
	f.Fuzz(func(t *testing.T, off byte, data []byte) {
		dst, src := fuzzRegions(data, off)
		if dst == nil {
			t.Skip()
		}
		want := append([]byte(nil), dst...)
		for i := range want {
			want[i] ^= src[i]
		}
		for _, k := range allKernels() {
			got := append([]byte(nil), dst...)
			k.XORRegion(got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("kernel %s XORRegion(n=%d, off=%d) diverges from reference", k.Name(), len(src), off&7)
			}
			// Involution through the dispatched surface: XOR twice
			// restores the region regardless of kernel.
			XORRegion(got, src)
			if !bytes.Equal(got, dst) {
				t.Fatalf("kernel %s double XOR did not round-trip (n=%d)", k.Name(), len(src))
			}
		}
	})
}

// fuzzCells is the cell count FuzzRunOps runs over: a source and up to
// four destinations, plus one cell no op names.
const fuzzCells = 6

// FuzzRunOps drives op lists through every kernel's RunOps, the one
// multiply entry of the kernel layer. The fuzzer owns the field (w = 4
// or 8), the byte range [lo, hi) within cells of its choosing, and the
// op list: each four program bytes are one op's arity (0 to 4),
// accumulate or overwrite, source, destinations and coefficients. Every
// kernel must leave every cell byte-identical to the per-destination
// scalar reference, bytes outside [lo, hi) included.
func FuzzRunOps(f *testing.F) {
	f.Add(false, uint16(0), uint16(512), []byte{0x84, 0, 1, 0x53, 0x02, 1, 0, 7, 0x00, 2, 3, 1}, make([]byte, fuzzCells*512))
	f.Add(true, uint16(3), uint16(100), []byte{0x83, 5, 2, 9, 0x01, 4, 1, 0xff}, bytes.Repeat([]byte{0xa5}, fuzzCells*130))
	f.Add(false, uint16(64), uint16(4097), []byte{0x82, 3, 4, 0x35, 0x84, 1, 2, 0x80, 0x04, 0, 0, 1}, make([]byte, fuzzCells*4200))
	f.Fuzz(func(t *testing.T, w4 bool, lo, span uint16, prog, data []byte) {
		field := Get(8)
		if w4 {
			field = Get(4)
		}
		size := len(data) / fuzzCells
		start := int(lo) % (size + 1)
		end := start + int(span)%(size-start+1)
		var ops []Op
		for ; len(prog) >= 4 && len(ops) < 16; prog = prog[4:] {
			o := Op{N: prog[0] % 5, Acc: prog[0]&0x80 != 0, Src: int32(prog[1] % fuzzCells)}
			for j := range int(max(o.N, 1)) {
				// Destinations: the cells after the source, rotated by
				// prog[2], so they are distinct and apart from it.
				o.Dst[j] = (o.Src + 1 + int32((int(prog[2])+j)%(fuzzCells-1))) % fuzzCells
				o.Tab[j] = field.Table(uint32(prog[3]) + uint32(j)*37)
			}
			ops = append(ops, o)
		}
		cells := make([][]byte, fuzzCells)
		for i := range cells {
			cells[i] = data[i*size : (i+1)*size : (i+1)*size]
		}
		want := make([][]byte, fuzzCells)
		for i := range want {
			want[i] = append([]byte(nil), cells[i]...)
		}
		for _, o := range ops {
			if o.N == 0 {
				clear(want[o.Dst[0]][start:end])
				continue
			}
			src := want[o.Src][start:end]
			for j, d := range o.Dst[:o.N] {
				if o.Acc {
					multXORTail(want[d][start:end], src, o.Tab[j])
				} else {
					mulRegionTail(want[d][start:end], src, o.Tab[j])
				}
			}
		}
		for _, k := range allKernels() {
			got := make([][]byte, fuzzCells)
			for i := range got {
				got[i] = append([]byte(nil), cells[i]...)
			}
			k.RunOps(ops, got, start, end)
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("kernel %s, w=%d, %d ops over [%d, %d) of %d-byte cells: cell %d diverges from the scalar reference",
						k.Name(), field.W(), len(ops), start, end, size, i)
				}
			}
		}
	})
}
