package journal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return j, path
}

func TestAppendCommitRoundTrip(t *testing.T) {
	j, path := openTemp(t)
	seq1, err := j.Append(3, []int{0, 2}, nil, []uint32{11, 22})
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := j.Append(7, []int{5}, nil, []uint32{33})
	if err != nil {
		t.Fatal(err)
	}
	if seq2 <= seq1 {
		t.Fatalf("sequence numbers not increasing: %d then %d", seq1, seq2)
	}
	if got := j.PendingCount(); got != 2 {
		t.Fatalf("PendingCount=%d, want 2", got)
	}
	if err := j.Commit(seq1); err != nil {
		t.Fatal(err)
	}
	if got := j.PendingCount(); got != 1 {
		t.Fatalf("PendingCount=%d after one commit, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without a checkpoint: BOTH intents replay — the commit was
	// in-memory only, because the device writes it covered were never
	// proven durable. The committed one re-verifies harmlessly.
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending := j2.Pending()
	if len(pending) != 2 {
		t.Fatalf("%d pending after reopen without checkpoint, want both intents", len(pending))
	}
	rec := pending[1]
	if rec.Seq != seq2 || rec.Stripe != 7 || len(rec.Ords) != 1 || rec.Ords[0] != 5 || rec.Digests[0] != 33 {
		t.Fatalf("pending record corrupted across reopen: %+v", rec)
	}
	// New appends must not collide with replayed sequence numbers.
	seq3, err := j2.Append(9, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq3 <= seq2 {
		t.Fatalf("seq %d after reopen not past replayed %d", seq3, seq2)
	}
}

// TestCheckpointReclaimsLog: the log is reclaimed only at a checkpoint
// (the store's post-device-sync barrier) and only once every intent has
// committed — never by the commits themselves, whose covered device
// writes may still be volatile.
func TestCheckpointReclaimsLog(t *testing.T) {
	j, path := openTemp(t)
	defer j.Close()
	seq1, _ := j.Append(1, []int{0}, nil, []uint32{1})
	seq2, _ := j.Append(2, []int{1}, nil, []uint32{2})
	if err := j.Commit(seq1); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(seq2); err != nil {
		t.Fatal(err)
	}
	info, _ := os.Stat(path)
	if info.Size() == 0 {
		t.Fatal("commits alone truncated the journal (before any durability barrier)")
	}
	// A checkpoint with an intent outstanding must leave the log alone.
	seq3, _ := j.Append(3, []int{2}, nil, []uint32{3})
	mark := j.Mark()
	if err := j.Checkpoint(mark); err != nil {
		t.Fatal(err)
	}
	if got := j.PendingCount(); got != 1 {
		t.Fatalf("checkpoint with an outstanding intent dropped it (pending=%d)", got)
	}
	if err := j.Commit(seq3); err != nil {
		t.Fatal(err)
	}
	// The commit happened AFTER the mark's barrier: a checkpoint against
	// the stale mark must refuse — that write-back's sectors were not
	// covered by the device sync the mark represents.
	if err := j.Checkpoint(mark); err != nil {
		t.Fatal(err)
	}
	info, _ = os.Stat(path)
	if info.Size() == 0 {
		t.Fatal("stale-mark checkpoint reclaimed an intent the barrier did not cover")
	}
	if err := j.Checkpoint(j.Mark()); err != nil {
		t.Fatal(err)
	}
	info, _ = os.Stat(path)
	if info.Size() != 0 {
		t.Fatalf("journal holds %d bytes after a quiet checkpoint, want 0", info.Size())
	}
	// Post-checkpoint appends start a fresh log that must fsync again
	// (generation guard) and replay on reopen.
	if _, err := j.Append(4, []int{3}, nil, []uint32{4}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.PendingCount(); got != 1 {
		t.Fatalf("%d pending after reopen, want the post-checkpoint intent", got)
	}
}

// TestTornTailDiscarded: a crash mid-append leaves a partial record;
// open must keep the valid prefix and drop only the tail.
func TestTornTailDiscarded(t *testing.T) {
	j, path := openTemp(t)
	seqGood, err := j.Append(4, []int{1}, nil, []uint32{44})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(5, []int{2}, nil, []uint32{55}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the last record: chop bytes off the file's tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending := j2.Pending()
	if len(pending) != 1 || pending[0].Seq != seqGood || pending[0].Stripe != 4 {
		t.Fatalf("pending after torn tail: %+v, want only the intact intent for stripe 4", pending)
	}
	// The torn bytes are gone from disk, so appends extend a clean log.
	if _, err := j2.Append(6, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := j3.PendingCount(); got != 2 {
		t.Fatalf("PendingCount=%d after append past a torn tail, want 2", got)
	}
}

// TestCorruptRecordStopsScan: a bit flip inside a record's payload fails
// its CRC; the scan keeps everything before it and discards the rest.
func TestCorruptRecordStopsScan(t *testing.T) {
	j, path := openTemp(t)
	if _, err := j.Append(1, []int{0}, nil, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := len(raw)
	if _, err = j.Append(2, []int{1}, nil, []uint32{2}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw, _ = os.ReadFile(path)
	raw[firstLen+10] ^= 0xff // flip a payload bit of the second record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending := j2.Pending()
	if len(pending) != 1 || pending[0].Stripe != 1 {
		t.Fatalf("pending after corrupt record: %+v, want only stripe 1", pending)
	}
}

// TestCommitSupersedesAbortedIntent: an intent whose write-back was
// aborted (never committed) is discharged when a later write-back of
// the same stripe commits — the newer full rewrite makes the stripe
// consistent, so the stale intent must not wedge checkpointing.
func TestCommitSupersedesAbortedIntent(t *testing.T) {
	j, _ := openTemp(t)
	defer j.Close()
	if _, err := j.Append(5, []int{0}, nil, []uint32{1}); err != nil { // aborted: never committed
		t.Fatal(err)
	}
	if _, err := j.Append(6, []int{0}, nil, []uint32{2}); err != nil { // unrelated stripe, aborted too
		t.Fatal(err)
	}
	seq3, err := j.Append(5, []int{0, 1}, nil, []uint32{3, 4}) // the retry
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(seq3); err != nil {
		t.Fatal(err)
	}
	// Stripe 5's aborted intent is superseded; stripe 6's is not.
	pending := j.Pending()
	if len(pending) != 1 || pending[0].Stripe != 6 {
		t.Fatalf("pending after superseding commit: %+v, want only stripe 6", pending)
	}
}

func TestCommitUnknownIntent(t *testing.T) {
	j, _ := openTemp(t)
	defer j.Close()
	if err := j.Commit(42); err == nil {
		t.Fatal("commit of an unknown sequence accepted")
	}
}

// TestConcurrentAppendCommit drives the group-commit path: many
// goroutines appending and committing concurrently must produce unique
// sequence numbers, a clean log afterwards, and (run under -race) no
// sync/state races between the cohort fsync and in-memory commits.
func TestConcurrentAppendCommit(t *testing.T) {
	j, path := openTemp(t)
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	seqs := make(chan uint64, workers*rounds)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				seq, err := j.Append(w*rounds+i, []int{i}, nil, []uint32{uint32(i)})
				if err != nil {
					errs <- err
					return
				}
				seqs <- seq
				if err := j.Commit(seq); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(seqs)
	seen := map[uint64]bool{}
	for seq := range seqs {
		if seen[seq] {
			t.Fatalf("sequence %d issued twice", seq)
		}
		seen[seq] = true
	}
	if len(seen) != workers*rounds {
		t.Fatalf("%d sequences issued, want %d", len(seen), workers*rounds)
	}
	if got := j.PendingCount(); got != 0 {
		t.Fatalf("%d intents pending after every commit", got)
	}
	if err := j.Checkpoint(j.Mark()); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.PendingCount(); got != 0 {
		t.Fatalf("%d intents pending after reopen of a checkpointed log", got)
	}
}
