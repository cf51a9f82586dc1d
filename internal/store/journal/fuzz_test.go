package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzParseRecord: the journal file is read back after a crash, so its
// bytes are untrusted. For any input parseRecord must not panic, and a
// record it accepts must re-encode to exactly the bytes it consumed: the
// parser and the encoder agree on one layout, and nothing outside the
// frame is taken for part of it.
func FuzzParseRecord(f *testing.F) {
	v1 := encodeRecord(kindIntent, 1, 3, []int{0, 2}, []uint64{7, 9}, nil)
	f.Add(v1)
	f.Add(encodeRecord(kindIntentV2, 2, 5, []int{1}, []uint64{11}, []uint32{13}))
	f.Add(v1[:len(v1)-3]) // torn: the CRC trailer cut short
	// A V2 record claiming 2^28 entries: 16·2^28 wraps to 0 in a 32-bit
	// int, so on 386 or arm the length check once passed and the entry
	// loop ran off the payload.
	f.Add(frame(append([]byte{kindIntentV2}, make([]byte, 20)...), 1<<28))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, kind, n, ok := parseRecord(b)
		if !ok {
			return
		}
		got := encodeRecord(kind, rec.Seq, rec.Stripe, rec.Ords, rec.Sums, rec.ISums)
		if n > len(b) || !bytes.Equal(got, b[:n]) {
			t.Fatalf("accepted %d of %d bytes %x, re-encoded as %x", n, len(b), b[:min(n, len(b))], got)
		}
	})
}

// frame sets payload's entry count to nords and frames it as a record
// with a valid CRC.
func frame(payload []byte, nords uint32) []byte {
	binary.LittleEndian.PutUint32(payload[17:], nords)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}
