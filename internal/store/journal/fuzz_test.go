package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzParseRecord: the journal file is read back after a crash, so its
// bytes are untrusted. For any input parseRecord must not panic. A
// kind-3 record it accepts must re-encode to exactly the bytes it
// consumed: the parser and the encoder agree on one layout, and nothing
// outside the frame is taken for part of it. The parse-only kinds 1 and
// 2 must be read as the journal before kind 3 read them: the same bytes
// consumed, the same sequence number, stripe and ords, and V2's
// integrity digests as the record's digests.
func FuzzParseRecord(f *testing.F) {
	golden := goldenRecords(f)
	for _, name := range []string{"v1", "v2", "v3"} {
		f.Add(golden[name])
	}
	v3 := encodeRecord(1, 3, []int{0, 2}, []uint32{7, 9})
	f.Add(v3)
	f.Add(v3[:len(v3)-3]) // torn: the CRC trailer cut short
	// A V2 record claiming 2^28 entries: 16·2^28 wraps to 0 in a 32-bit
	// int, so on 386 or arm the length check once passed and the entry
	// loop ran off the payload. A V3 record claiming 2^29 entries wraps
	// the same way with its 8-byte entries.
	f.Add(frame(append([]byte{kindIntentV2}, make([]byte, 20)...), 1<<28))
	f.Add(frame(append([]byte{kindIntentV3}, make([]byte, 20)...), 1<<29))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, kind, n, ok := parseRecord(b)
		old, _, oldN, oldOK := parentParseRecord(b)
		if oldOK {
			if !ok || n != oldN || rec.Seq != old.Seq || rec.Stripe != old.Stripe ||
				!reflect.DeepEqual(rec.Ords, old.Ords) || !reflect.DeepEqual(rec.Digests, old.ISums) {
				t.Fatalf("old-kind record %x: parsed %+v from %d bytes (ok=%v), the earlier parser %+v from %d",
					b[:oldN], rec, n, ok, old, oldN)
			}
			return
		}
		if !ok {
			return
		}
		if kind != kindIntentV3 {
			t.Fatalf("accepted kind %d that the earlier parser refused: %x", kind, b[:n])
		}
		got := encodeRecord(rec.Seq, rec.Stripe, rec.Ords, rec.Digests)
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
