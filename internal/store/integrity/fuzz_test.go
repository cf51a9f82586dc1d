package integrity

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzRecordDecode hammers the record codec with arbitrary bytes —
// torn, truncated, bit-flipped sidecar content must never panic, and
// must never verify unless it is byte-for-byte a validly encoded
// record (the self-CRC plus version/flags/reserved checks are the
// whole defence against a rotted sidecar lying about the data).
func FuzzRecordDecode(f *testing.F) {
	var seed [RecordSize]byte
	Encode(seed[:], Record{Epoch: 3, Sum: 0x1234abcd})
	f.Add(seed[:])
	f.Add([]byte{})
	f.Add(make([]byte, RecordSize))
	f.Add(make([]byte, RecordSize-1))
	f.Add(bytes.Repeat([]byte{0xff}, RecordSize))

	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, ok := Decode(raw)
		if !ok {
			return
		}
		// Anything that decodes must re-encode to exactly the bytes that
		// produced it: a valid record has exactly one serialisation, so
		// no corrupted variant of a record can alias another valid one.
		var re [RecordSize]byte
		Encode(re[:], rec)
		if !bytes.Equal(re[:], raw[:RecordSize]) {
			t.Fatalf("decoded record %+v does not re-encode to its input: got %x want %x", rec, re, raw[:RecordSize])
		}
	})
}

// FuzzSum differentially fuzzes the digest against the stdlib over
// the salted message — any divergence in the folding kernel, its salt
// or its residual, however obscure the length/address combination, is
// a checksum layer that silently lies.
func FuzzSum(f *testing.F) {
	big := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(big)
	f.Add(uint32(1), 0, 0, []byte("payload"))
	f.Add(uint32(0), 5, 1<<20, []byte{})
	f.Add(uint32(0), 0, 0, []byte("hello"))
	f.Add(^uint32(0), -1, -1, big)
	f.Add(uint32(0xdeadbeef), 3, 7, big[:257])
	f.Fuzz(func(t *testing.T, epoch uint32, col, sector int, data []byte) {
		if got, want := Sum(epoch, col, sector, data), stdlibSum(epoch, col, sector, data); got != want {
			t.Fatalf("Sum(%#x, %d, %d, len=%d) = %#x, stdlib %#x", epoch, col, sector, len(data), got, want)
		}
	})
}
