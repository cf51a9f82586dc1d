package integrity

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	var buf [RecordSize]byte
	want := Record{Epoch: 7, Sum: 0xdeadbeef}
	Encode(buf[:], want)
	got, ok := Decode(buf[:])
	if !ok {
		t.Fatal("freshly encoded record failed to decode")
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	var buf [RecordSize]byte
	Encode(buf[:], Record{Epoch: 1, Sum: 42})

	// Any single bit flip anywhere in the record must invalidate it.
	for byteIdx := 0; byteIdx < RecordSize; byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			flipped := buf
			flipped[byteIdx] ^= 1 << bit
			if _, ok := Decode(flipped[:]); ok {
				t.Fatalf("record still decodes with bit %d of byte %d flipped", bit, byteIdx)
			}
		}
	}

	// All zeros (never-written sidecar) makes no claim.
	if _, ok := Decode(make([]byte, RecordSize)); ok {
		t.Fatal("all-zero record decoded as valid")
	}
	// Truncated input.
	if _, ok := Decode(buf[:RecordSize-1]); ok {
		t.Fatal("truncated record decoded as valid")
	}
	if _, ok := Decode(nil); ok {
		t.Fatal("nil record decoded as valid")
	}
}

func TestSumSaltsAddressAndEpoch(t *testing.T) {
	data := []byte("the same payload everywhere")
	base := Sum(1, 0, 0, data)
	if Sum(1, 1, 0, data) == base {
		t.Fatal("digest does not depend on column (misdirected writes undetectable)")
	}
	if Sum(1, 0, 1, data) == base {
		t.Fatal("digest does not depend on sector address (misdirected writes undetectable)")
	}
	if Sum(2, 0, 0, data) == base {
		t.Fatal("digest does not depend on epoch (stale writes undetectable)")
	}
	if Sum(1, 0, 0, []byte("other payload entirely...xyz")) == base {
		t.Fatal("digest does not depend on payload")
	}
}

func TestMetaSectors(t *testing.T) {
	cases := []struct {
		dataSectors, sectorSize, want int
	}{
		{0, 4096, 0},
		{1, 4096, 1},
		{256, 4096, 1}, // 4096/16 = 256 records fit one sector
		{257, 4096, 2},
		{512, 4096, 2},
		{1024, 512, 32}, // 512/16 = 32 per sector
		{1, 16, 1},
		{3, 16, 3},
	}
	for _, c := range cases {
		if got := MetaSectors(c.dataSectors, c.sectorSize); got != c.want {
			t.Errorf("MetaSectors(%d, %d) = %d, want %d", c.dataSectors, c.sectorSize, got, c.want)
		}
	}
}

func TestManagerVerifyUpdate(t *testing.T) {
	m, err := NewManager(3, 64, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xab}, 512)

	// Fresh manager: nothing is covered.
	if v := m.Verify(1, 5, data); v != Absent {
		t.Fatalf("fresh verify = %v, want Absent", v)
	}
	m.Update(1, 5, data)
	if v := m.Verify(1, 5, data); v != OK {
		t.Fatalf("after update verify = %v, want OK", v)
	}
	// Different payload at the recorded address: mismatch.
	other := bytes.Repeat([]byte{0xcd}, 512)
	if v := m.Verify(1, 5, other); v != Mismatch {
		t.Fatalf("wrong payload verify = %v, want Mismatch", v)
	}
	// Same payload, neighbouring sector: still absent there.
	if v := m.Verify(1, 6, data); v != Absent {
		t.Fatalf("neighbour verify = %v, want Absent", v)
	}
	// Same payload, different column: absent there too.
	if v := m.Verify(2, 5, data); v != Absent {
		t.Fatalf("other column verify = %v, want Absent", v)
	}
}

func TestManagerInstallRegion(t *testing.T) {
	m, err := NewManager(1, 64, 512, 9)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x11}, 512)
	m.Update(0, 3, data)
	region := bytes.Clone(m.regions[0])

	// A second manager adopting the persisted region verifies the same
	// sector.
	m2, err := NewManager(1, 64, 512, 9)
	if err != nil {
		t.Fatal(err)
	}
	m2.InstallRegion(0, region)
	if v := m2.Verify(0, 3, data); v != OK {
		t.Fatalf("verify after region install = %v, want OK", v)
	}

	// A manager opened under a different epoch rejects the old records.
	m3, err := NewManager(1, 64, 512, 10)
	if err != nil {
		t.Fatal(err)
	}
	m3.InstallRegion(0, region)
	if v := m3.Verify(0, 3, data); v != Mismatch {
		t.Fatalf("verify under new epoch = %v, want Mismatch", v)
	}

	// Installing a short region zero-fills the tail back to Absent.
	m2.InstallRegion(0, nil)
	if v := m2.Verify(0, 3, data); v != Absent {
		t.Fatalf("verify after nil install = %v, want Absent", v)
	}
}

func TestManagerFlushRange(t *testing.T) {
	// 16-byte sectors: exactly one record per sector, so data sector i
	// maps to meta sector i.
	m, err := NewManager(1, 8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.MetaSectors() != 8 {
		t.Fatalf("MetaSectors = %d, want 8", m.MetaSectors())
	}
	for i := 0; i < 8; i++ {
		m.Update(0, i, []byte{byte(i)})
	}
	var gotStart, gotBufs int
	err = m.FlushRange(context.Background(), 0, 2, 3, func(_ context.Context, metaStart int, bufs [][]byte) error {
		gotStart, gotBufs = metaStart, len(bufs)
		for i, b := range bufs {
			rec, ok := Decode(b)
			if !ok {
				t.Fatalf("flushed meta sector %d holds no valid record", metaStart+i)
			}
			if want := Sum(1, 0, 2+i, []byte{byte(2 + i)}); rec.Sum != want {
				t.Fatalf("meta sector %d: sum %#x, want %#x", metaStart+i, rec.Sum, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotStart != 2 || gotBufs != 3 {
		t.Fatalf("flush covered meta [%d,+%d), want [2,+3)", gotStart, gotBufs)
	}

	// Zero count is a no-op.
	err = m.FlushRange(context.Background(), 0, 0, 0, func(_ context.Context, metaStart int, bufs [][]byte) error {
		t.Fatal("write callback invoked for empty range")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewManagerRejectsBadSectorSize(t *testing.T) {
	if _, err := NewManager(1, 8, 8, 1); err == nil {
		t.Fatal("sector smaller than a record accepted")
	}
	if _, err := NewManager(1, 8, 24, 1); err == nil {
		t.Fatal("sector size not a record multiple accepted")
	}
}

// TestSumIsTheSaltedCRC pins the digest's definition — CRC32C over the
// 16 little-endian salt bytes (epoch, column, sector) followed by the
// payload — against the standard library computing it the obvious way.
// Sum itself never materialises the salt (that cost an allocation per
// sector); records on existing volumes must keep verifying.
func TestSumIsTheSaltedCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		epoch, col, sector := rng.Uint32(), rng.Intn(1<<16), rng.Intn(1<<30)
		data := make([]byte, []int{0, 1, 16, 128, 512, 1024, 1100, 4096}[i%8])
		rng.Read(data)
		var salt [16]byte
		binary.LittleEndian.PutUint32(salt[0:4], epoch)
		binary.LittleEndian.PutUint32(salt[4:8], uint32(col))
		binary.LittleEndian.PutUint64(salt[8:16], uint64(sector))
		want := crc32.Update(crc32.Update(0, castagnoli, salt[:]), castagnoli, data)
		if got := Sum(epoch, col, sector, data); got != want {
			t.Fatalf("Sum(%#x, %d, %d, %d bytes) = %#x, salted CRC32C is %#x", epoch, col, sector, len(data), got, want)
		}
	}
}

// TestDigestPathsDoNotAllocate: verifying, staging and flushing records
// are per-sector operations on the store's hot paths.
func TestDigestPathsDoNotAllocate(t *testing.T) {
	m, err := NewManager(1, 64, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Either side of the fold kernel's threshold.
	for _, n := range []int{512, 4096} {
		data := make([]byte, n)
		m.Update(0, 3, data)
		write := func(context.Context, int, [][]byte) error { return nil }
		if err := m.FlushRange(context.Background(), 0, 0, 16, write); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			m.Update(0, 3, data)
			if m.Verify(0, 3, data) != OK {
				t.Fatal("fresh record does not verify")
			}
			if err := m.FlushRange(context.Background(), 0, 0, 16, write); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%d-byte sector: Update+Verify+FlushRange made %.1f allocations, want 0", n, allocs)
		}
	}
}

// TestSpanFormsMatchPerSector: the span verifier and UpdateSpan give
// the verdicts and stage the records that Verify and Update give sector
// by sector — over OK, mismatched, absent and stale-epoch records,
// skipped (nil) entries, spans that cross sidecar-sector boundaries (32
// records per 512-byte sector) and a span longer than UpdateSpan's
// digest scratch. Handing UpdateSpan the digests already computed
// stages the same records as letting it digest the payloads.
func TestSpanFormsMatchPerSector(t *testing.T) {
	const sectors, size, epoch = 200, 512, 7
	per, err := NewManager(1, sectors, size, epoch)
	if err != nil {
		t.Fatal(err)
	}
	span, err := NewManager(1, sectors, size, epoch)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	data := make([][]byte, sectors)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	// Sectors 10..19 carry records of an older epoch.
	old, err := NewManager(1, sectors, size, epoch-1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		old.Update(0, i, data[i])
	}
	per.InstallRegion(0, bytes.Clone(old.regions[0]))
	span.InstallRegion(0, bytes.Clone(old.regions[0]))

	// Stage 20..119 (across the 32-, 64- and 96-record boundaries and
	// past one snapshot), skipping every seventh sector.
	const lo, hi = 20, 120
	bufs := make([][]byte, hi-lo)
	for i := range bufs {
		if (lo+i)%7 != 0 {
			bufs[i] = data[lo+i]
			per.Update(0, lo+i, data[lo+i])
		}
	}
	span.UpdateSpan(0, lo, bufs, nil)
	if !bytes.Equal(per.regions[0], span.regions[0]) {
		t.Fatal("UpdateSpan staged different records than Update per sector")
	}
	known, err := NewManager(1, sectors, size, epoch)
	if err != nil {
		t.Fatal(err)
	}
	known.InstallRegion(0, bytes.Clone(old.regions[0]))
	sums := make([]uint32, len(bufs))
	for i, b := range bufs {
		if b != nil {
			sums[i] = Sum(epoch, 0, lo+i, b)
		}
	}
	known.UpdateSpan(0, lo, bufs, sums)
	if !bytes.Equal(per.regions[0], known.regions[0]) {
		t.Fatal("UpdateSpan with known digests staged different records than Update per sector")
	}

	// Corrupt every fifth payload, then verify the whole column as one
	// span — past the stale, staged and never-written sectors and across
	// every sidecar-sector boundary — against Verify sector by sector.
	for i := 0; i < sectors; i += 5 {
		data[i][i%size] ^= 0x40
	}
	seen := map[Verdict]int{}
	v := span.VerifySpan(0)
	for i := range data {
		got, want := v.Verify(i, data[i]), per.Verify(0, i, data[i])
		if got != want {
			v.Done()
			t.Fatalf("sector %d: the span verifier says %v, Verify says %v", i, got, want)
		}
		seen[got]++
		// Stale records read as Mismatch even for the payload they cover.
		if i >= 10 && i < 20 && got != Mismatch {
			v.Done()
			t.Fatalf("stale-epoch sector %d: verdict %v, want Mismatch", i, got)
		}
	}
	v.Done()
	for _, verdict := range []Verdict{OK, Mismatch, Absent} {
		if seen[verdict] == 0 {
			t.Fatalf("no sector got verdict %v: %v", verdict, seen)
		}
	}

	// A one-sector span allocates nothing, like the per-sector calls.
	one, got := [][]byte{data[21]}, Absent
	allocs := testing.AllocsPerRun(200, func() {
		span.UpdateSpan(0, 21, one, nil)
		v := span.VerifySpan(0)
		got = v.Verify(21, data[21])
		v.Done()
	})
	if allocs != 0 || got != OK {
		t.Fatalf("one-sector UpdateSpan and span verify: %.1f allocations, verdict %v; want 0, OK", allocs, got)
	}
}
