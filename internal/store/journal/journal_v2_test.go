package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// tear truncates the last n bytes off the log file — a crash mid-append.
func tear(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyLog writes the committed records named (see
// testdata/records.golden) back to back as a log file at path.
func writeLegacyLog(t *testing.T, path string, names ...string) {
	t.Helper()
	golden := goldenRecords(t)
	var raw []byte
	for _, name := range names {
		raw = append(raw, golden[name]...)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAppendV2CarriesISums: a log written before kind 3 — a V1 and a V2
// record — stays mountable, and Append extends it with kind-3 records.
// After a reopen the V2 record's integrity digests are its Digests, the
// V1 record has none, and the appended intent's digests come back
// intact and aligned with its ords.
func TestAppendV2CarriesISums(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeLegacyLog(t, path, "v1", "v2")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ords, digests := []int{2, 5, 11}, []uint32{0x11, 0x22, 0x33}
	seq, err := j.Append(7, ords, nil, digests)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("Append after the old records took seq %d, want 3", seq)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	want := []Record{
		{Seq: 1, Stripe: 3, Ords: []int{0, 2}},
		{Seq: 2, Stripe: 5, Ords: []int{1, 4, 6}, Digests: []uint32{0xdeadbeef, 0x01020304, 0xcafef00d}},
		{Seq: 3, Stripe: 7, Ords: ords, Digests: digests},
	}
	if got := j2.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending after reopen:\n got %+v\nwant %+v", got, want)
	}
}

// TestAppendV2RejectsMisalignedISums: a digest slice that does not align
// with the ordinals is a caller bug the journal must refuse rather than
// persist.
func TestAppendV2RejectsMisalignedISums(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Append(0, []int{1, 2}, nil, []uint32{5}); err == nil {
		t.Fatal("Append accepted 2 ords with 1 digest")
	}
	if _, err := j.Append(0, []int{1}, nil, nil); err == nil {
		t.Fatal("Append accepted an ord without a digest")
	}
}

// TestV2TornTailDiscarded: a kind-3 record torn after a V2 record of an
// earlier version is discarded on open and the V2 record kept whole —
// the mix of entry sizes must not confuse the framing.
func TestV2TornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeLegacyLog(t, path, "v2")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(2, []int{1, 2}, nil, []uint32{8, 9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-payload.
	tear(t, path, 10)

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending := j2.Pending()
	if len(pending) != 1 || pending[0].Stripe != 5 {
		t.Fatalf("pending after torn tail: %+v, want only the V2 intent", pending)
	}
	if !reflect.DeepEqual(pending[0].Digests, []uint32{0xdeadbeef, 0x01020304, 0xcafef00d}) {
		t.Fatalf("surviving record Digests=%x, want the V2 integrity digests", pending[0].Digests)
	}
}
