package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testdata/records.golden holds one framed record per line, "kind hex".
// The v1 and v2 lines are bytes the journal wrote before kind 3 existed
// (stripe 3, ords [0 2]; stripe 5, ords [1 4 6] with integrity digests
// deadbeef, 01020304, cafef00d) and never change: a log of that age
// must stay mountable. The v3 line is encodeRecord's output for
// goldenV3's inputs; it changes only with a new record kind.
var goldenV3 = Record{Seq: 7, Stripe: 9, Ords: []int{0, 3, 17}, Digests: []uint32{0xdeadbeef, 1, 0x80000000}}

// goldenRecords reads testdata/records.golden into kind name → bytes.
func goldenRecords(tb testing.TB) map[string][]byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "records.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, h, _ := strings.Cut(line, " ")
		b, err := hex.DecodeString(h)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out[name] = b
	}
	return out
}

// parentRecord and parentParseRecord are the record type and parser of
// the journal before kind 3, kept verbatim as the reference the old
// kinds' parse is checked against.
type parentRecord struct {
	Seq    uint64
	Stripe int
	Ords   []int
	Sums   []uint64
	ISums  []uint32
}

func parentParseRecord(b []byte) (rec parentRecord, kind byte, n int, ok bool) {
	if len(b) < 4 {
		return rec, 0, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen < 21 || plen > maxRecordBytes || len(b) < 4+plen+4 {
		return rec, 0, 0, false
	}
	payload := b[4 : 4+plen]
	sum := binary.LittleEndian.Uint32(b[4+plen:])
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, 0, 0, false
	}
	kind = payload[0]
	if kind != kindIntent && kind != kindIntentV2 {
		return rec, 0, 0, false
	}
	entry := 12
	if kind == kindIntentV2 {
		entry = 16
	}
	stripe := binary.LittleEndian.Uint64(payload[9:])
	nords := binary.LittleEndian.Uint32(payload[17:])
	if stripe > math.MaxInt || uint64(plen) != 21+uint64(nords)*uint64(entry) {
		return rec, 0, 0, false
	}
	rec.Seq = binary.LittleEndian.Uint64(payload[1:])
	rec.Stripe = int(stripe)
	for i := 0; i < int(nords); i++ {
		rec.Ords = append(rec.Ords, int(binary.LittleEndian.Uint32(payload[21+i*entry:])))
		rec.Sums = append(rec.Sums, binary.LittleEndian.Uint64(payload[25+i*entry:]))
		if kind == kindIntentV2 {
			rec.ISums = append(rec.ISums, binary.LittleEndian.Uint32(payload[33+i*entry:]))
		}
	}
	return rec, kind, 4 + plen + 4, true
}

// TestRecordGolden: kind 3's encoding of fixed inputs is the committed
// bytes, so a drift of the on-disk layout fails here; and the committed
// records of every kind parse into the right stripe, ords and digests.
func TestRecordGolden(t *testing.T) {
	golden := goldenRecords(t)
	if got := encodeRecord(goldenV3.Seq, goldenV3.Stripe, goldenV3.Ords, goldenV3.Digests); !bytes.Equal(got, golden["v3"]) {
		t.Fatalf("kind-3 encoding drifted:\n got %x\nwant %x", got, golden["v3"])
	}
	for _, tc := range []struct {
		name string
		kind byte
		want Record
	}{
		{"v1", kindIntent, Record{Seq: 1, Stripe: 3, Ords: []int{0, 2}}},
		{"v2", kindIntentV2, Record{Seq: 2, Stripe: 5, Ords: []int{1, 4, 6}, Digests: []uint32{0xdeadbeef, 0x01020304, 0xcafef00d}}},
		{"v3", kindIntentV3, goldenV3},
	} {
		b := golden[tc.name]
		rec, kind, n, ok := parseRecord(b)
		if !ok || kind != tc.kind || n != len(b) || !reflect.DeepEqual(rec, tc.want) {
			t.Errorf("%s: parsed kind %d, %d of %d bytes, ok=%v: %+v; want kind %d, %+v",
				tc.name, kind, n, len(b), ok, rec, tc.kind, tc.want)
		}
	}
}
