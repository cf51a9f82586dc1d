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

// TestHedgeReconstructionRefusesCorruptSiblings: a hedged reconstruction
// fed silently rotten bytes by a sibling must fail verification and
// lose the race — the (slow but honest) primary's bytes win, and the
// discard is counted.
func TestHedgeReconstructionRefusesCorruptSiblings(t *testing.T) {
	v, fx := openIntegrityVolume(t, 3, 64, &HedgeConfig{
		Percentile: 0.5,
		MinDelay:   2 * time.Millisecond,
		MaxDelay:   20 * time.Millisecond,
		MinSamples: 4,
		Window:     64,
	})
	defer v.Close()
	fillVolume(t, v)
	ctx := context.Background()

	hd, ok := v.devs[0].(*hedgedColumn)
	if !ok {
		t.Fatalf("column 0 device is %T, want *hedgedColumn", v.devs[0])
	}
	// Warm the latency tracker with fast reads.
	for i := 0; i < 8; i++ {
		if err := hd.ReadSectors(ctx, 0, [][]byte{make([]byte, 64)}); err != nil {
			t.Fatal(err)
		}
	}

	// A sibling of column 0 silently rots a sector of stripe 0…
	sibling := v.Placement()[1].Name
	if err := fx.mems[sibling].CorruptSector(0); err != nil {
		t.Fatal(err)
	}
	// …then column 0's backend stalls, forcing the hedge to reconstruct
	// stripe 0 through the rotten sibling.
	primary := v.Placement()[0].Name
	fx.gates[primary].delay.Store(int64(150 * time.Millisecond))

	want := make([][]byte, v.code.R())
	bufs := make([][]byte, v.code.R())
	for i := range bufs {
		bufs[i] = make([]byte, 64)
		want[i] = make([]byte, 64)
	}
	if err := fx.mems[primary].ReadSectors(ctx, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := hd.ReadSectors(ctx, 0, bufs); err != nil {
		t.Fatalf("hedged read: %v", err)
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], want[i]) {
			t.Fatalf("sector %d: the unverified reconstruction's bytes were served", i)
		}
	}
	st := v.Stats()
	if st.HedgeVerifyFails == 0 {
		t.Fatalf("hedge counters %+v, want the corrupt reconstruction discarded (HedgeVerifyFails ≥ 1)", st)
	}
}
