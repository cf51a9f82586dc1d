// Package journal is a write-ahead intent log for the store's stripe
// write-back: the crash-consistency half of the paper's practical
// storage story. The §5.2 incremental sub-stripe update is a
// multi-sector read–modify–write — old data and parity are read, deltas
// XORed in, and several sectors written back — so a crash mid-write-back
// leaves a stripe whose parity silently disagrees with its data, the
// exact failure mode sector-failure-tolerant codes exist to catch.
//
// The protocol is the classic WAL discipline with checkpointing:
//
//  1. before any device write-back of a stripe, append an intent record
//     (stripe id, dirty block ordinals, each new block's salted CRC32C —
//     the digest the integrity sidecar stores for it) and fsync it;
//  2. write the stripe's data sectors, then its parity sectors;
//  3. Commit the intent — in memory only. Nothing about the commit
//     touches the disk, because the device writes it covers may still
//     sit in the page cache: durably forgetting the intent before the
//     data is durable would re-open the exact power-loss window the
//     journal exists to close.
//  4. Checkpoint — called by the store only *after* a device
//     durability barrier (Store.Sync, Close, post-recovery) —
//     truncates the log to zero once no intent is outstanding.
//
// On open, every intent since the last checkpoint is returned as
// Pending: committed-but-not-checkpointed intents replay harmlessly
// (their stripes re-verify consistent), while genuinely interrupted
// ones drive a roll-forward.
//
// Records are length-prefixed and CRC-framed; a torn append (crash
// mid-write) invalidates only the tail, which is discarded on open.
// Append writes kind-3 records, whose one digest per block is the same
// salted CRC32C the integrity sidecar stores. Kinds 1 and 2, written by
// earlier versions, are parse-only: a V2 record's integrity digests
// become its Digests, and a V1 record carries none, so replay never
// counts a V1 intent's data write-back as complete.
// All methods are safe for concurrent use.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
)

const (
	// kindIntent and kindIntentV2 are the record kinds earlier versions
	// wrote, kept parse-only so their logs stay mountable. Their 12- and
	// 16-byte entries hold the ordinal, a 64-bit FNV-1a content sum
	// (skipped) and, in V2, the block's integrity digest, which becomes
	// the record's digest. A V1 record carries no digest.
	kindIntent   = 1
	kindIntentV2 = 2
	// kindIntentV3 is the record Append writes: per dirty block, the
	// ordinal and the block's digest (8 bytes per entry).
	kindIntentV3 = 3

	// maxRecordBytes bounds a record's declared payload size on scan, so
	// a corrupt length prefix cannot make Open allocate gigabytes.
	maxRecordBytes = 1 << 20
)

// entryBytes and digestAt give each record kind's entry size and the
// offset of the digest within an entry (0: the kind carries none).
var (
	entryBytes = [...]int{kindIntent: 12, kindIntentV2: 16, kindIntentV3: 8}
	digestAt   = [...]int{kindIntentV2: 12, kindIntentV3: 4}
)

// Record is one stripe-flush intent: the stripe about to be written
// back, which data block ordinals the flush dirties, and a digest of
// each dirty block's new content. Recovery uses the digests to tell a
// completed data write-back from one that did not finish.
type Record struct {
	// Seq is the journal-assigned sequence number; Commit takes it.
	Seq uint64
	// Stripe is the stripe being written back.
	Stripe int
	// Ords lists the dirty data-cell ordinals of the flush.
	Ords []int
	// Digests holds each dirty block's salted CRC32C, the value the
	// store's sidecar keeps for it (integrity.Sum, epoch 0 with the
	// checksum layer off), aligned with Ords. Nil for a V1 record.
	Digests []uint32
}

// Journal is an append-only intent log backed by one file.
//
// Appends group-commit: each Append writes its record under mu, then
// joins a sync cohort — the first writer in fsyncs the file for
// everyone whose record is already on it, and the rest observe
// syncedTo covering their offset and return without their own fsync.
// Writers flushing different stripes at once therefore share fsyncs
// instead of serialising one per stripe.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	pending map[uint64]Record
	nextSeq uint64
	off     int64

	// gen counts truncations (guarded by mu): a cohort member whose
	// record predates the current generation was discarded with the old
	// log and has nothing left to sync.
	gen uint64
	// commits counts Commit calls (guarded by mu); together with
	// nextSeq it forms the quiescence token Checkpoint validates.
	commits uint64

	// syncMu serialises fsyncs; syncedGen/syncedTo name the generation
	// and file offset the last completed fsync covered. Lock order:
	// syncMu may take mu inside it; mu never takes syncMu.
	syncMu    sync.Mutex
	syncedGen uint64
	syncedTo  int64
}

// Open opens (creating if absent) the journal at path and scans it. A
// torn or corrupt tail — the signature of a crash mid-append — is
// discarded; everything before it is replayed into the pending set.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f, pending: make(map[uint64]Record), nextSeq: 1}
	if err := j.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// scan replays the log, building the pending set and truncating any
// invalid tail.
func (j *Journal) scan() error {
	raw, err := os.ReadFile(j.path)
	if err != nil {
		return err
	}
	off := 0
	for {
		rec, _, n, ok := parseRecord(raw[off:])
		if !ok {
			break
		}
		off += n
		if rec.Seq >= j.nextSeq {
			j.nextSeq = rec.Seq + 1
		}
		j.pending[rec.Seq] = rec
	}
	if int64(off) != int64(len(raw)) {
		// Torn tail: keep the valid prefix only.
		if err := j.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("journal: truncating torn tail of %s: %w", j.path, err)
		}
	}
	j.off = int64(off)
	return nil
}

// parseRecord decodes one framed record from b; ok is false when b
// holds no complete valid record (empty, torn, or corrupt).
func parseRecord(b []byte) (rec Record, kind byte, n int, ok bool) {
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
	if kind < kindIntent || kind > kindIntentV3 {
		return rec, 0, 0, false
	}
	entry, at := entryBytes[kind], digestAt[kind]
	// The stripe must fit an int and the entry count is checked in
	// 64 bits: on 32-bit targets a huge count times the entry size would
	// otherwise wrap to a plausible payload length.
	stripe := binary.LittleEndian.Uint64(payload[9:])
	nords := binary.LittleEndian.Uint32(payload[17:])
	if stripe > math.MaxInt || uint64(plen) != 21+uint64(nords)*uint64(entry) {
		return rec, 0, 0, false
	}
	rec.Seq = binary.LittleEndian.Uint64(payload[1:])
	rec.Stripe = int(stripe)
	for i := 0; i < int(nords); i++ {
		e := payload[21+i*entry:]
		rec.Ords = append(rec.Ords, int(binary.LittleEndian.Uint32(e)))
		if at > 0 {
			rec.Digests = append(rec.Digests, binary.LittleEndian.Uint32(e[at:]))
		}
	}
	return rec, kind, 4 + plen + 4, true
}

// encodeRecord frames one V3 record for appending.
func encodeRecord(seq uint64, stripe int, ords []int, digests []uint32) []byte {
	plen := 21 + len(ords)*entryBytes[kindIntentV3]
	out := make([]byte, 4+plen+4)
	binary.LittleEndian.PutUint32(out, uint32(plen))
	payload := out[4 : 4+plen]
	payload[0] = kindIntentV3
	binary.LittleEndian.PutUint64(payload[1:], seq)
	binary.LittleEndian.PutUint64(payload[9:], uint64(stripe))
	binary.LittleEndian.PutUint32(payload[17:], uint32(len(ords)))
	for i, ord := range ords {
		binary.LittleEndian.PutUint32(payload[21+i*8:], uint32(ord))
		binary.LittleEndian.PutUint32(payload[25+i*8:], digests[i])
	}
	binary.LittleEndian.PutUint32(out[4+plen:], crc32.ChecksumIEEE(payload))
	return out
}

// Append records one flush intent durably (the record is on stable
// storage before Append returns — the WAL invariant: the intent
// outlives a crash that interrupts any device write-back it covers).
// digests must align with ords. The third parameter is ignored: it
// held the content sums of the V1/V2 records and stays until the
// benchmark module stops passing it. It returns the sequence number
// Commit takes.
func (j *Journal) Append(stripe int, ords []int, _ []uint64, digests []uint32) (uint64, error) {
	if len(digests) != len(ords) {
		return 0, fmt.Errorf("journal: %d ords but %d digests", len(ords), len(digests))
	}
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return 0, fmt.Errorf("journal: closed")
	}
	seq := j.nextSeq
	rec := encodeRecord(seq, stripe, ords, digests)
	if _, err := j.f.WriteAt(rec, j.off); err != nil {
		j.mu.Unlock()
		return 0, err
	}
	j.off += int64(len(rec))
	target, tgen := j.off, j.gen
	j.nextSeq = seq + 1
	j.pending[seq] = Record{Seq: seq, Stripe: stripe, Ords: slices.Clone(ords), Digests: slices.Clone(digests)}
	j.mu.Unlock()
	if err := j.groupSync(tgen, target); err != nil {
		return 0, err
	}
	return seq, nil
}

// groupSync makes the file durable up to target within generation
// tgen: whoever takes syncMu first fsyncs for the whole cohort; later
// entrants find syncedTo already past their record and skip the fsync.
func (j *Journal) groupSync(tgen uint64, target int64) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if j.syncedGen == tgen && j.syncedTo >= target {
		return nil
	}
	j.mu.Lock()
	f, end, gen := j.f, j.off, j.gen
	j.mu.Unlock()
	if f == nil {
		return fmt.Errorf("journal: closed")
	}
	if gen != tgen {
		// The log was truncated since this record was written, so the
		// record is gone — only possible once it stopped being pending,
		// i.e. nothing is left to make durable.
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	// The fsync covered everything written when it ran — at least end.
	if gen != j.syncedGen {
		j.syncedGen, j.syncedTo = gen, end
	} else if end > j.syncedTo {
		j.syncedTo = end
	}
	return nil
}

// Commit marks one intent's write-back complete — in memory only. The
// on-disk record stays until a Checkpoint, because the device writes
// the intent covers are not yet known durable: if power fails first,
// the next open must still re-verify this stripe. A committed intent
// that replays merely re-verifies a consistent stripe.
//
// A commit supersedes older pending intents for the same stripe: an
// aborted write-back (its intent never committed) that is later
// retried as a full-stripe rewrite is discharged by the retry's
// commit, so a transient flush failure cannot wedge checkpointing for
// the life of the process.
func (j *Journal) Commit(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	rec, ok := j.pending[seq]
	if !ok {
		return fmt.Errorf("journal: commit of unknown intent %d", seq)
	}
	delete(j.pending, seq)
	for s, r := range j.pending {
		if r.Stripe == rec.Stripe && s < seq {
			delete(j.pending, s)
		}
	}
	j.commits++
	return nil
}

// Mark snapshots the journal's append/commit state. Take one BEFORE a
// device durability barrier and hand it to Checkpoint afterwards: the
// pair proves which intents the barrier actually covered.
type Mark struct {
	seq     uint64
	commits uint64
}

// Mark returns the current quiescence token (see Checkpoint).
func (j *Journal) Mark() Mark {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Mark{seq: j.nextSeq, commits: j.commits}
}

// Checkpoint reclaims the log when it is safe to: no intent is
// outstanding AND nothing was appended or committed since m was taken
// — i.e. every committed intent's device write-back finished before
// the caller's device sync barrier began, so the barrier covered it.
// An intent appended or committed *during* the barrier might have
// device writes still in the page cache; reclaiming it would make
// "forget the write-back" durable before the write-back itself, so the
// log is left for the next barrier instead.
func (j *Journal) Checkpoint(m Mark) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if len(j.pending) > 0 || j.off == 0 || j.nextSeq != m.seq || j.commits != m.commits {
		return nil
	}
	return j.resetLocked()
}

// resetLocked empties the log file and advances the generation, so a
// stale sync high-water mark from the previous log cannot exempt
// post-truncate appends from their fsync. Callers hold mu.
func (j *Journal) resetLocked() error {
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	j.off = 0
	j.gen++
	return j.f.Sync()
}

// Truncate discards every record — pending included. Recovery calls it
// after re-verifying (and rolling forward) the pending stripes.
func (j *Journal) Truncate() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	clear(j.pending)
	return j.resetLocked()
}

// Pending returns the intents with no matching commit, ordered by
// sequence number — the stripes recovery must re-verify.
func (j *Journal) Pending() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, len(j.pending))
	for _, rec := range j.pending {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// PendingCount returns the number of uncommitted intents.
func (j *Journal) PendingCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// Path returns the backing file's path.
func (j *Journal) Path() string { return j.path }

// Close syncs and closes the log file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
