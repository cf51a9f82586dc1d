package cluster

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"stair/internal/store"
)

// integrityFixture dials MemDevices sized for the sidecar region and
// remembers them by server name, so tests can corrupt media directly
// (bypassing every cluster wrapper — silent corruption).
type integrityFixture struct {
	mems  map[string]*store.MemDevice
	gates map[string]*gateDevice
}

func openIntegrityVolume(t *testing.T, stripes, sectorSize int, hedge *HedgeConfig) (*Volume, *integrityFixture) {
	t.Helper()
	code := testCode(t)
	fx := &integrityFixture{mems: map[string]*store.MemDevice{}, gates: map[string]*gateDevice{}}
	var servers []Server
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("s%d", i)
		servers = append(servers, Server{Name: name, URL: "local://" + name, Spare: i >= 6})
	}
	want := stripes*code.R() + store.IntegrityMetaSectors(stripes, code.R(), sectorSize)
	v, err := Open(context.Background(), Config{
		Fleet:      &Fleet{Servers: servers},
		VolumeName: "integrity-test",
		Code:       code,
		SectorSize: sectorSize,
		Stripes:    stripes,
		Integrity:  &store.IntegrityOptions{Epoch: 11},
		Dial: func(ctx context.Context, server Server) (store.Device, error) {
			if _, ok := fx.mems[server.Name]; ok {
				return fx.gates[server.Name], nil
			}
			mem := store.NewMemDevice(want, sectorSize)
			g := &gateDevice{FaultDevice: mem}
			fx.mems[server.Name], fx.gates[server.Name] = mem, g
			return g, nil
		},
		Hedge:   hedge,
		Monitor: MonitorConfig{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v, fx
}

// fillVolume writes a deterministic payload to every block and syncs.
func fillVolume(t *testing.T, v *Volume) {
	t.Helper()
	ctx := context.Background()
	for b := 0; b < v.Blocks(); b++ {
		data := bytes.Repeat([]byte{byte(b + 1)}, v.BlockSize())
		if err := v.WriteBlock(ctx, b, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestClusterIntegrityEndToEnd: a bit silently flipped on one device
// server's media is detected on the next read through the whole cluster
// stack, repaired into a located erasure, and a post-repair scrub is
// silent.
func TestClusterIntegrityEndToEnd(t *testing.T) {
	v, fx := openIntegrityVolume(t, 3, 64, nil)
	defer v.Close()
	fillVolume(t, v)
	ctx := context.Background()

	// Flip a bit of block 0's sector behind every cluster wrapper.
	cell := v.code.DataCells()[0]
	victim := v.Placement()[cell.Col].Name
	if err := fx.mems[victim].CorruptSector(cell.Row); err != nil {
		t.Fatal(err)
	}

	got, err := v.ReadBlock(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{1}, v.BlockSize())) {
		t.Fatal("cluster read returned rotten bytes despite the integrity layer")
	}
	if st := v.StoreStats(); st.ChecksumMismatches == 0 {
		t.Fatalf("store stats %+v, want the mismatch counted", st)
	}
	v.Quiesce()
	rep, err := v.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChecksumMismatches != 0 || rep.StripesDamaged != 0 || rep.StripesInconsistent != 0 {
		t.Fatalf("scrub after repair %+v, want clean", rep)
	}
}

// TestClusterRebuildWritesFreshSidecars: rebuilding a replaced column
// must persist fresh integrity records alongside the reconstructed data
// — proven by reopening the volume over the same media and verifying
// reads against what the rebuild wrote.
func TestClusterRebuildWritesFreshSidecars(t *testing.T) {
	v, fx := openIntegrityVolume(t, 3, 64, nil)
	fillVolume(t, v)
	ctx := context.Background()

	const col = 2
	if err := v.Store().ReplaceDevice(col); err != nil {
		t.Fatal(err)
	}
	if err := v.Store().RebuildDevice(ctx, col); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	placement := v.Placement()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over the SAME MemDevices: the only integrity records the new
	// mount can see are the persisted sidecars.
	code := testCode(t)
	stripes, sectorSize := 3, 64
	v2, err := Open(ctx, Config{
		Fleet:      &Fleet{Servers: placementServers(placement)},
		VolumeName: "integrity-test",
		Code:       code,
		SectorSize: sectorSize,
		Stripes:    stripes,
		Integrity:  &store.IntegrityOptions{Epoch: 11},
		Dial: func(ctx context.Context, server Server) (store.Device, error) {
			return fx.gates[server.Name], nil
		},
		Monitor: MonitorConfig{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	for b := 0; b < v2.Blocks(); b++ {
		got, err := v2.ReadBlock(ctx, b)
		if err != nil {
			t.Fatalf("read block %d after rebuild+reopen: %v", b, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(b + 1)}, v2.BlockSize())) {
			t.Fatalf("block %d corrupt after rebuild", b)
		}
	}
	st := v2.StoreStats()
	if st.VerifiedSectors == 0 {
		t.Fatal("VerifiedSectors=0 — the rebuilt column's sidecar records did not persist")
	}
	if st.ChecksumMismatches != 0 {
		t.Fatalf("ChecksumMismatches=%d after rebuild, want 0", st.ChecksumMismatches)
	}
	rep, err := v2.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChecksumMismatches != 0 || rep.StripesInconsistent != 0 || rep.RecordsRefreshed != 0 {
		t.Fatalf("scrub after rebuild %+v, want nothing to fix or refresh", rep)
	}
}

// placementServers rebuilds a fleet server list from a placement
// snapshot, preserving the column → server mapping of the prior mount.
func placementServers(placed []Server) []Server {
	out := make([]Server, len(placed))
	copy(out, placed)
	return out
}

// TestHedgeReconstructionRefusesCorruptSiblings: a hedge's row solve
// fed silently rotten bytes by a sibling must refuse them by their
// checksum and solve from the next sibling instead — the stalled read
// is still outrun, with the right bytes, and the rot is counted.
func TestHedgeReconstructionRefusesCorruptSiblings(t *testing.T) {
	v, fx := openIntegrityVolume(t, 3, 64, &HedgeConfig{})
	defer v.Close()
	fillVolume(t, v)
	blocks := colBlocks(t, v, 0)
	readBlocks(t, v, blocks, hedgeWarmup)

	// The sibling the row solve reads first silently rots the sector in
	// the wanted block's row…
	cell := v.code.DataCells()[blocks[0]]
	sibling := v.Placement()[1].Name
	if err := fx.mems[sibling].CorruptSector(cell.Row); err != nil {
		t.Fatal(err)
	}
	// …then column 0's backend stalls.
	primary := v.Placement()[0].Name
	const stall = 150 * time.Millisecond
	fx.gates[primary].delay.Store(int64(stall))
	begin := time.Now()
	readBlocks(t, v, blocks, 1)
	if took := time.Since(begin); took >= stall {
		t.Fatalf("hedged read took %v, behind the %v stall", took, stall)
	}
	if st := v.Stats(); st.HedgeWins != 1 {
		t.Fatalf("hedge counters %+v, want one win", st)
	}
	if st := v.StoreStats(); st.ChecksumMismatches == 0 {
		t.Fatalf("store stats %+v, want the rotten sibling counted", st)
	}
}
