package store_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"stair/internal/core"
	"stair/internal/failures"
	"stair/internal/store"
)

var bg = context.Background()

// The store satisfies the fault-injection contract of internal/failures,
// so that package's failure processes drive it directly.
var _ failures.FaultTarget = (*store.Store)(nil)

func writeVolume(t *testing.T, s *store.Store, rng *rand.Rand) [][]byte {
	t.Helper()
	blocks := make([][]byte, s.Blocks())
	for b := range blocks {
		blocks[b] = make([]byte, s.BlockSize())
		rng.Read(blocks[b])
		if err := s.WriteBlock(bg, b, blocks[b]); err != nil {
			t.Fatalf("write block %d: %v", b, err)
		}
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	return blocks
}

func checkVolume(t *testing.T, s *store.Store, blocks [][]byte) {
	t.Helper()
	for b, want := range blocks {
		got, err := s.ReadBlock(bg, b)
		if err != nil {
			t.Fatalf("read block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d corrupt", b)
		}
	}
}

// TestStoreUnderRaidFailurePatterns is the end-to-end acceptance test:
// a volume survives m whole-device failures plus sector errors within
// coverage e, serving every logical block correctly through the
// degraded-read path while the background scrubber converges the repair
// queue; a pattern outside coverage then surfaces ErrUnrecoverable in
// the stats rather than corrupt data.
func TestStoreUnderRaidFailurePatterns(t *testing.T) {
	code, err := core.New(core.Config{N: 8, R: 4, M: 2, E: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(store.Config{Code: code, SectorSize: 256, Stripes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(42))
	blocks := writeVolume(t, s, rng)

	if err := s.StartScrubber(store.ScrubberOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	// Phase 1: a latent-sector-error campaign from the paper's §7.2.2
	// burst model (b1=0.98, α=1.79, bursts ≤ 2 sectors), driven through
	// the failures fault drivers, healed by the background scrubber.
	dist, err := failures.NewBurstDist(0.98, 1.79, 2)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		if _, err := failures.InjectRandomBurstsOn(s, rng, 0.004, dist); err != nil {
			t.Fatal(err)
		}
		checkVolume(t, s, blocks) // reads stay correct while degraded
		deadline := time.Now().Add(10 * time.Second)
		for s.TotalBadSectors() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: scrubber left %d bad sectors", round, s.TotalBadSectors())
			}
			time.Sleep(time.Millisecond)
		}
	}
	s.Quiesce()
	if st := s.Stats(); st.UnrecoverableStripes != 0 {
		t.Fatalf("stats %+v: unrecoverable stripes within coverage", st)
	}

	// Phase 2: m=2 whole-device failures plus fresh sector errors within
	// coverage on the survivors — the paper's headline mixed-failure
	// scenario. Every block must still read back correctly.
	for _, dev := range []int{1, 6} {
		if err := s.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.InjectBurst(3, 5, 2); err != nil { // 2-sector burst, one chunk
		t.Fatal(err)
	}
	if err := s.InjectBurst(4, 6, 1); err != nil { // single, another chunk
		t.Fatal(err)
	}
	checkVolume(t, s, blocks)
	st := s.Stats()
	if st.DegradedReads == 0 {
		t.Fatal("mixed-failure reads were not served degraded")
	}
	if st.UnrecoverableStripes != 0 {
		t.Fatalf("stats %+v: coverage-internal pattern reported unrecoverable", st)
	}

	// The scrubber converges the survivors' sector errors even with two
	// devices down (their stripes stay recoverably degraded).
	deadline := time.Now().Add(10 * time.Second)
	for s.TotalBadSectors() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d bad sectors left on survivors", s.TotalBadSectors())
		}
		time.Sleep(time.Millisecond)
	}
	s.StopScrubber()
	s.Quiesce()

	// Phase 3: a third device failure exceeds m — outside coverage.
	// Blocks on dead devices surface ErrUnrecoverable; surviving blocks
	// must remain intact, and stats must record the damage.
	if err := s.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	dead := map[int]bool{1: true, 2: true, 6: true}
	perStripe := len(code.DataCells())
	sawUnrecoverable := false
	for b, want := range blocks {
		cell := code.DataCells()[b%perStripe]
		got, err := s.ReadBlock(bg, b)
		if dead[cell.Col] {
			if !errors.Is(err, store.ErrUnrecoverable) {
				t.Fatalf("block %d: err=%v, want ErrUnrecoverable", b, err)
			}
			sawUnrecoverable = true
			continue
		}
		if err != nil {
			t.Fatalf("surviving block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("surviving block %d corrupt", b)
		}
	}
	if !sawUnrecoverable {
		t.Fatal("no block exercised the unrecoverable path")
	}
	if st := s.Stats(); st.UnrecoverableStripes == 0 {
		t.Fatal("UnrecoverableStripes counter did not record the damage")
	}

	// Phase 4: three dead chunks per stripe are genuinely beyond the
	// code — that data is gone. Recovery means replacing the dead
	// devices and rewriting the volume: full-stripe flushes repopulate
	// every sector (healing the replacements) and resurrect the
	// stripes previously marked unrecoverable.
	for dev := range dead {
		if err := s.ReplaceDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	blocks = writeVolume(t, s, rng)
	if got := s.UnrecoverableStripes(); len(got) != 0 {
		t.Fatalf("unrecoverable stripes %v survived a full rewrite", got)
	}
	if got := s.TotalBadSectors(); got != 0 {
		t.Fatalf("TotalBadSectors=%d after replace+rewrite", got)
	}
	base := s.Stats().DegradedReads
	checkVolume(t, s, blocks)
	if got := s.Stats().DegradedReads; got != base {
		t.Fatalf("reads still degraded after recovery (%d → %d)", base, got)
	}
}

// TestRandomDeviceFailureDriver: the Bernoulli device-failure process
// drives the store within coverage (seeded so exactly ≤ m devices fail).
func TestRandomDeviceFailureDriver(t *testing.T) {
	code, err := core.New(core.Config{N: 8, R: 4, M: 2, E: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(store.Config{Code: code, SectorSize: 128, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocks := writeVolume(t, s, rand.New(rand.NewSource(11)))
	// Seed 13 deterministically draws devices {2, 6} at p=0.15 — within
	// the code's m=2 tolerance.
	failed, err := failures.FailRandomDevicesOn(s, rand.New(rand.NewSource(13)), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) == 0 || len(failed) > code.M() {
		t.Fatalf("driver failed %v, want 1..%d devices", failed, code.M())
	}
	if got := s.FailedDevices(); len(got) != len(failed) {
		t.Fatalf("FailedDevices=%v, driver failed %v", got, failed)
	}
	checkVolume(t, s, blocks)
	if st := s.Stats(); st.DegradedReads == 0 {
		t.Fatal("no degraded reads after device failures")
	}
}
