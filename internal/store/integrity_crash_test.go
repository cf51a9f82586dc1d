package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"stair/internal/core"
	"stair/internal/store/integrity"
	"stair/internal/store/journal"
)

// integrityKillPoints extends the journaled write-back matrix with the
// sidecar phase: the window between the data/parity writes and the
// sidecar write is exactly where a checksum layer without journal
// integration would cry wolf on reopen.
var integrityKillPoints = []killPoint{
	killAfterJournalAppend,
	killAfterDataWrite,
	killAfterParityWrite,
	killAfterMetaWrite,
	killAfterCommit,
}

// newIntegrityCrashVolume is newCrashVolume with each device carrying
// the sidecar region the integrity layer needs.
func newIntegrityCrashVolume(t *testing.T, code *core.Code, stripes, sector int) *crashVolume {
	t.Helper()
	v := &crashVolume{
		code:        code,
		journalPath: filepath.Join(t.TempDir(), "journal.wal"),
		stripes:     stripes,
		sector:      sector,
	}
	want := stripes*code.R() + IntegrityMetaSectors(stripes, code.R(), sector)
	v.devs = make([]Device, code.N())
	for i := range v.devs {
		v.devs[i] = NewMemDevice(want, sector)
	}
	return v
}

// openIntegrity mounts the crash volume with the checksum layer on.
func (v *crashVolume) openIntegrity(t *testing.T) (*Store, *journal.Journal) {
	t.Helper()
	j, err := journal.Open(v.journalPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{
		Code: v.code, SectorSize: v.sector, Stripes: v.stripes,
		Devices: v.devs, Journal: j,
		Integrity: &IntegrityOptions{Epoch: 3},
	})
	if err != nil {
		j.Close()
		t.Fatal(err)
	}
	return s, j
}

// assertNoFalseAlarms reads every block with verification on and runs a
// full scrub, requiring zero checksum mismatches and zero inconsistent
// stripes — the property that journal replay, not repair, resolves any
// data/sidecar skew a crash left behind.
func assertNoFalseAlarms(t *testing.T, s *Store) {
	t.Helper()
	rep, err := s.Scrub(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChecksumMismatches != 0 || rep.StripesInconsistent != 0 ||
		rep.StripesDamaged != 0 || rep.SectorsLost != 0 {
		t.Fatalf("scrub after recovery %+v — a crash produced a false corruption alarm", rep)
	}
	if got := s.Stats().ChecksumMismatches; got != 0 {
		t.Fatalf("ChecksumMismatches=%d after recovery, want 0 (stale sidecars must resolve via replay)", got)
	}
	if got := s.Stats().VerifiedSectors; got == 0 {
		t.Fatal("VerifiedSectors=0 — the reopened store is not actually verifying")
	}
}

// TestIntegrityCrashSubStripeMatrix kills a journaled read–modify–write
// at every protocol point — including the new sidecar phase — and
// asserts the reopened, VERIFYING store sees no false corruption: each
// block holds wholly-old or wholly-new content, every read verifies,
// and a full scrub is silent.
func TestIntegrityCrashSubStripeMatrix(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	for _, kp := range integrityKillPoints {
		t.Run(string(kp), func(t *testing.T) {
			v := newIntegrityCrashVolume(t, code, 3, 128)
			s, j := v.openIntegrity(t)
			fillStore(t, s)
			if err := s.Sync(bg); err != nil {
				t.Fatal(err)
			}
			dirty := []int{s.perStripe, s.perStripe + 3}
			for _, b := range dirty {
				if err := s.WriteBlock(bg, b, blockData(b+1000, s.BlockSize())); err != nil {
					t.Fatal(err)
				}
			}
			s.testKill = func(p killPoint) error {
				if p == kp {
					return errKilled
				}
				return nil
			}
			if err := s.Flush(bg); !errors.Is(err, errKilled) {
				t.Fatalf("killed flush returned %v, want errKilled", err)
			}
			abandonStore(s, j)

			s2, j2 := v.openIntegrity(t)
			defer func() { s2.Close(); j2.Close() }()
			if rep := s2.Recovery(); rep.Unrecoverable != 0 {
				t.Fatalf("recovery %+v, want no unrecoverable stripes", rep)
			}
			checkStripesConsistent(t, s2)
			// Old or rolled-forward content per kill point; every read runs
			// under verification.
			newContent := kp != killAfterJournalAppend
			for b := 0; b < s2.Blocks(); b++ {
				want := blockData(b, s2.BlockSize())
				if newContent && (b == dirty[0] || b == dirty[1]) {
					want = blockData(b+1000, s2.BlockSize())
				}
				got, err := s2.ReadBlock(bg, b)
				if err != nil {
					t.Fatalf("read block %d: %v", b, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("block %d holds neither old nor rolled-forward content", b)
				}
			}
			assertNoFalseAlarms(t, s2)
			if got := j2.PendingCount(); got != 0 {
				t.Fatalf("%d intents still pending after recovery", got)
			}
		})
	}
}

// TestIntegrityCrashFullStripeMatrix is the full-stripe-flush variant:
// every stripe's write-back dies at the target point, and the reopened
// store must still verify clean.
func TestIntegrityCrashFullStripeMatrix(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	for _, kp := range integrityKillPoints {
		t.Run(string(kp), func(t *testing.T) {
			v := newIntegrityCrashVolume(t, code, 3, 128)
			s, j := v.openIntegrity(t)
			fillStore(t, s)
			if err := s.Sync(bg); err != nil {
				t.Fatal(err)
			}
			s.testKill = func(p killPoint) error {
				if p == kp {
					return errKilled
				}
				return nil
			}
			kills := 0
			for b := 0; b < s.Blocks(); b++ {
				if err := s.WriteBlock(bg, b, blockData(b+1000, s.BlockSize())); err != nil {
					if !errors.Is(err, errKilled) {
						t.Fatalf("write block %d: %v", b, err)
					}
					kills++
				}
			}
			if kills != v.stripes {
				t.Fatalf("%d flushes killed, want one per stripe (%d)", kills, v.stripes)
			}
			abandonStore(s, j)

			s2, j2 := v.openIntegrity(t)
			defer func() { s2.Close(); j2.Close() }()
			if rep := s2.Recovery(); rep.Unrecoverable != 0 {
				t.Fatalf("recovery %+v, want no unrecoverable stripes", rep)
			}
			checkStripesConsistent(t, s2)
			// Whole-old (kill before any device write) or whole-new per
			// stripe; either way every read must verify.
			round := 1000
			if kp == killAfterJournalAppend {
				round = 0
			}
			for b := 0; b < s2.Blocks(); b++ {
				got, err := s2.ReadBlock(bg, b)
				if err != nil {
					t.Fatalf("read block %d: %v", b, err)
				}
				if !bytes.Equal(got, blockData(b+round, s2.BlockSize())) {
					t.Fatalf("block %d does not hold the expected round-%d content", b, round)
				}
			}
			assertNoFalseAlarms(t, s2)
		})
	}
}

// TestIntegrityCrashSurvivesWithLatentLoss composes the two failure
// models: a crash between the data and parity phases PLUS a fail-stop
// sector loss on an untouched cell of the same stripe. Recovery repairs
// through the journal-verified path and the reopened store must verify
// clean — in particular the repaired sector's record must be fresh, not
// a stale pre-crash one.
func TestIntegrityCrashSurvivesWithLatentLoss(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	v := newIntegrityCrashVolume(t, code, 3, 128)
	s, j := v.openIntegrity(t)
	fillStore(t, s)
	if err := s.Sync(bg); err != nil {
		t.Fatal(err)
	}
	dirty := []int{s.perStripe, s.perStripe + 3}
	for _, b := range dirty {
		if err := s.WriteBlock(bg, b, blockData(b+1000, s.BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	s.testKill = func(p killPoint) error {
		if p == killAfterParityWrite {
			return errKilled
		}
		return nil
	}
	if err := s.Flush(bg); !errors.Is(err, errKilled) {
		t.Fatalf("killed flush returned %v, want errKilled", err)
	}
	abandonStore(s, j)

	// The disk develops a latent error on an untouched data cell of the
	// crashed stripe before the reboot.
	lostOrd := 10
	lostCell := code.DataCells()[lostOrd]
	md := v.devs[lostCell.Col].(*MemDevice)
	if err := md.InjectSectorError(1*code.R() + lostCell.Row); err != nil {
		t.Fatal(err)
	}

	s2, j2 := v.openIntegrity(t)
	defer func() { s2.Close(); j2.Close() }()
	rep := s2.Recovery()
	if rep.RolledForward != 1 || rep.Unrecoverable != 0 {
		t.Fatalf("recovery %+v, want the verified repair accepted", rep)
	}
	got, err := s2.ReadBlock(bg, s2.perStripe+lostOrd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blockData(s2.perStripe+lostOrd, s2.BlockSize())) {
		t.Fatal("repaired block does not hold its original content")
	}
	checkStripesConsistent(t, s2)
	assertNoFalseAlarms(t, s2)
}

// TestIntentCarriesSidecarDigest: a journaled flush's intent carries,
// for each dirty block, the salted CRC32C its sidecar record holds —
// under the volume's epoch with integrity on, under epoch 0 without —
// for a sub-stripe and a full-stripe flush alike. Killed after the
// parity phase, both replay with their data credited as landed.
func TestIntentCarriesSidecarDigest(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	for _, integ := range []bool{false, true} {
		t.Run(fmt.Sprintf("integrity=%v", integ), func(t *testing.T) {
			v, epoch := newCrashVolume(t, code, 3, 128), uint32(0)
			open := func() (*Store, *journal.Journal) { return v.open(t) }
			if integ {
				v, epoch = newIntegrityCrashVolume(t, code, 3, 128), 3
				open = func() (*Store, *journal.Journal) { return v.openIntegrity(t) }
			}
			s, j := open()
			fillStore(t, s)
			if err := s.Sync(bg); err != nil {
				t.Fatal(err)
			}
			s.testKill = func(p killPoint) error {
				if p == killAfterParityWrite {
					return errKilled
				}
				return nil
			}
			// Block 1 alone (read–modify–write), then all of stripe 2.
			if err := s.WriteBlock(bg, 1, blockData(1001, s.BlockSize())); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(bg); !errors.Is(err, errKilled) {
				t.Fatalf("killed sub-stripe flush returned %v", err)
			}
			for b := 2 * s.perStripe; b < 3*s.perStripe; b++ {
				if err := s.WriteBlock(bg, b, blockData(b+1000, s.BlockSize())); err != nil && !errors.Is(err, errKilled) {
					t.Fatal(err)
				}
			}
			pending := j.Pending()
			if len(pending) != 2 || len(pending[0].Ords) != 1 || len(pending[1].Ords) != s.perStripe {
				t.Fatalf("pending intents %+v, want one for block 1 and one for all of stripe 2", pending)
			}
			for _, rec := range pending {
				for i, ord := range rec.Ords {
					cell, sec := s.dataCells[ord], s.devSector(rec.Stripe, s.dataCells[ord].Row)
					data := blockData(rec.Stripe*s.perStripe+ord+1000, s.BlockSize())
					if want := integrity.Sum(epoch, cell.Col, sec, data); rec.Digests[i] != want {
						t.Fatalf("stripe %d ord %d: intent digest %08x, want %08x", rec.Stripe, ord, rec.Digests[i], want)
					}
					if integ && s.integ.Verify(cell.Col, sec, data) != integrity.OK {
						t.Fatalf("stripe %d ord %d: the sidecar record does not verify the block", rec.Stripe, ord)
					}
				}
			}
			abandonStore(s, j)
			s2, j2 := open()
			defer func() { s2.Close(); j2.Close() }()
			if rep := s2.Recovery(); rep.Stripes != 2 || rep.DataComplete != 2 || rep.Unrecoverable != 0 {
				t.Fatalf("recovery %+v, want both stripes replayed with their data landed", rep)
			}
		})
	}
}

// parentIntent frames an intent in a layout the journal wrote before
// kind 3: kind 1 (per entry: ord u32, FNV-1a content sum u64) or, with
// digests, kind 2 (ord, sum, integrity digest u32). The sums are left
// zero, since replay no longer reads them.
func parentIntent(seq uint64, stripe int, ords []int, digests []uint32) []byte {
	kind := byte(1)
	if digests != nil {
		kind = 2
	}
	payload := binary.LittleEndian.AppendUint64([]byte{kind}, seq)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(stripe))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ords)))
	for i, ord := range ords {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(ord))
		payload = binary.LittleEndian.AppendUint64(payload, 0)
		if digests != nil {
			payload = binary.LittleEndian.AppendUint32(payload, digests[i])
		}
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// TestParentLayoutIntentReplays: a journal written before kind 3 still
// drives recovery. Stripe 0 holds new data whose parity write was torn —
// one parity sector holds neither old nor new parity — and its sidecar
// still holds the old data's records. A pending V2 intent rolls the
// stripe forward to parity-consistent with fresh records that verify,
// crediting DataComplete from the record's integrity digests; a V1
// intent, which carries none, does the same without the credit.
func TestParentLayoutIntentReplays(t *testing.T) {
	code := testCode(t, core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	for _, v2 := range []bool{false, true} {
		t.Run(fmt.Sprintf("v2=%v", v2), func(t *testing.T) {
			v := newIntegrityCrashVolume(t, code, 3, 128)
			s, j := v.openIntegrity(t)
			fillStore(t, s)
			if err := s.Sync(bg); err != nil {
				t.Fatal(err)
			}
			abandonStore(s, j)
			var ords []int
			var digests []uint32
			for ord, cell := range code.DataCells() {
				data := blockData(ord+1000, v.sector)
				if err := v.devs[cell.Col].WriteSectors(bg, cell.Row, [][]byte{data}); err != nil {
					t.Fatal(err)
				}
				ords = append(ords, ord)
				digests = append(digests, integrity.Sum(3, cell.Col, cell.Row, data))
			}
			parity := code.ParityCells()[0]
			if err := v.devs[parity.Col].WriteSectors(bg, parity.Row, [][]byte{bytes.Repeat([]byte{0xa5}, v.sector)}); err != nil {
				t.Fatal(err)
			}
			want := RecoveryReport{Intents: 1, Stripes: 1, RolledForward: 1, DataComplete: 1}
			if !v2 {
				digests, want.DataComplete = nil, 0
			}
			if err := os.WriteFile(v.journalPath, parentIntent(1, 0, ords, digests), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, j2 := v.openIntegrity(t)
			defer func() { s2.Close(); j2.Close() }()
			if rep := s2.Recovery(); rep != want {
				t.Fatalf("recovery %+v, want %+v", rep, want)
			}
			checkStripesConsistent(t, s2)
			for b := 0; b < s2.perStripe; b++ {
				got, err := s2.ReadBlock(bg, b)
				if err != nil {
					t.Fatalf("read block %d: %v", b, err)
				}
				if !bytes.Equal(got, blockData(b+1000, s2.BlockSize())) {
					t.Fatalf("block %d does not hold the landed data", b)
				}
			}
			assertNoFalseAlarms(t, s2)
			if got := j2.PendingCount(); got != 0 {
				t.Fatalf("%d intents still pending after recovery", got)
			}
		})
	}
}
