package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"stair/internal/core"
	"stair/internal/store"
)

func testCode(t testing.TB) *core.Code {
	t.Helper()
	c, err := core.New(core.Config{N: 6, R: 4, M: 2, E: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// gateDevice wraps a MemDevice with a switchable per-call delay — the
// deterministic stand-in for a backend that suddenly goes
// heavy-tailed.
type gateDevice struct {
	store.FaultDevice
	delay atomic.Int64 // nanoseconds
	fail  atomic.Bool  // after the delay, answer ErrDeviceFailed
}

func (g *gateDevice) wait(ctx context.Context) error {
	if d := time.Duration(g.delay.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	if g.fail.Load() {
		return store.ErrDeviceFailed
	}
	return ctx.Err()
}

func (g *gateDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if err := g.wait(ctx); err != nil {
		return err
	}
	return g.FaultDevice.ReadSectors(ctx, start, bufs)
}

func (g *gateDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if err := g.wait(ctx); err != nil {
		return err
	}
	return g.FaultDevice.WriteSectors(ctx, start, data)
}

// hedgeWarmup is the store's count of answered reads before a column's
// first hedge.
const hedgeWarmup = 16

// openHedgedVolume opens a filled six-column volume over gate devices
// with hedging at its defaults and returns it with its gates by column.
func openHedgedVolume(t *testing.T, stripes int) (*Volume, []*gateDevice) {
	t.Helper()
	code := testCode(t)
	const sectorSize = 64
	gates := map[string]*gateDevice{}
	var servers []Server
	for i := 0; i < code.N(); i++ {
		name := fmt.Sprintf("s%d", i)
		servers = append(servers, Server{Name: name, URL: "local://" + name})
	}
	v, err := Open(context.Background(), Config{
		Fleet:      &Fleet{Servers: servers},
		VolumeName: "hedge-test",
		Code:       code,
		SectorSize: sectorSize,
		Stripes:    stripes,
		Dial: func(ctx context.Context, server Server) (store.Device, error) {
			g := &gateDevice{FaultDevice: store.NewMemDevice(stripes*code.R(), sectorSize)}
			gates[server.Name] = g
			return g, nil
		},
		Hedge:   &HedgeConfig{},
		Monitor: MonitorConfig{Interval: time.Hour}, // out of the way
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	fillVolume(t, v)
	byCol := make([]*gateDevice, code.N())
	for col, srv := range v.Placement() {
		byCol[col] = gates[srv.Name]
	}
	return v, byCol
}

// colBlocks lists the blocks a column holds, one per stripe.
func colBlocks(t *testing.T, v *Volume, col int) []int {
	t.Helper()
	cells := v.code.DataCells()
	for ord, cell := range cells {
		if cell.Col == col {
			out := make([]int, v.stripes)
			for stripe := range out {
				out[stripe] = stripe*len(cells) + ord
			}
			return out
		}
	}
	t.Fatalf("column %d holds no data", col)
	return nil
}

// readBlocks reads n blocks round-robin from blocks and checks each
// against fillVolume's payload.
func readBlocks(t *testing.T, v *Volume, blocks []int, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		b := blocks[i%len(blocks)]
		got, err := v.ReadBlock(context.Background(), b)
		if err != nil {
			t.Fatalf("read block %d: %v", b, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(b + 1)}, v.BlockSize())) {
			t.Fatalf("block %d: wrong bytes", b)
		}
	}
}

// A column that suddenly stalls must be outrun by the hedge: the row
// solve answers first, with the bytes the stalled device holds.
func TestHedgedReadOutrunsStall(t *testing.T) {
	v, gates := openHedgedVolume(t, 4)
	blocks := colBlocks(t, v, 0)
	readBlocks(t, v, blocks, hedgeWarmup)

	gates[0].delay.Store(int64(300 * time.Millisecond))
	begin := time.Now()
	readBlocks(t, v, blocks, 1)
	if took := time.Since(begin); took >= 250*time.Millisecond {
		t.Fatalf("hedged read took %v — the hedge did not outrun the 300ms stall", took)
	}
	st := v.Stats()
	if st.HedgesLaunched == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge counters %+v, want ≥1 launched and ≥1 win", st)
	}
	if ss := v.StoreStats(); ss.DegradedReads != 0 {
		t.Fatalf("%d degraded reads: a hedge win is a read", ss.DegradedReads)
	}
}

// A primary that fails is not a latency sample: sampled, a column
// failing fast would drag its own percentile to the floor and hedge
// every read, and one failing slowly (transport retries exhausted) would
// drag it to the ceiling and switch hedging off for exactly the column
// that needs it.
func TestHedgeTrackerIgnoresFailedPrimary(t *testing.T) {
	v, gates := openHedgedVolume(t, 4)
	blocks := colBlocks(t, v, 0)
	gates[0].delay.Store(int64(20 * time.Millisecond))
	readBlocks(t, v, blocks, hedgeWarmup) // hedge delay ≈ 20ms

	// Ten times as many reads whose primary fails at once, each served
	// by the degraded path: sampled, they would be the window's p90.
	gates[0].delay.Store(0)
	gates[0].fail.Store(true)
	readBlocks(t, v, blocks, 10*hedgeWarmup)

	// A 5ms primary then answers inside the 20ms delay, unhedged — it
	// would have been hedged at the 500µs floor.
	gates[0].delay.Store(int64(5 * time.Millisecond))
	gates[0].fail.Store(false)
	launched := v.Stats().HedgesLaunched
	readBlocks(t, v, blocks, 1)
	if st := v.Stats(); st.HedgesLaunched != launched {
		t.Fatalf("hedge counters %+v, want no launch past %d: the failed primaries were sampled", st, launched)
	}
}

// Before a column has answered the warm-up count of reads no hedge may
// launch, however slow its reads.
func TestHedgeWaitsForSamples(t *testing.T) {
	v, gates := openHedgedVolume(t, 4)
	blocks := colBlocks(t, v, 0)
	gates[0].delay.Store(int64(20 * time.Millisecond))
	readBlocks(t, v, blocks, hedgeWarmup)
	if st := v.Stats(); st.HedgesLaunched != 0 {
		t.Fatalf("hedge launched with no latency history: %+v", st)
	}
	// Warm now: a read ten times slower than the history hedges.
	gates[0].delay.Store(int64(200 * time.Millisecond))
	readBlocks(t, v, blocks, 1)
	if st := v.Stats(); st.HedgesLaunched != 1 {
		t.Fatalf("hedge counters %+v after the warm-up, want one launch", st)
	}
}

// The regression the store-level hedge exists for: a stalled column's
// latent sector errors must be found and healed by the first rebuild
// sweep that reads it. A hedge that answered maintenance reads with a
// reconstruction hid them from RebuildDevice and Scrub alike.
func TestHedgeLeavesMaintenanceReadsAlone(t *testing.T) {
	const stripes, stalled, rebuilt = 4, 1, 3
	v, gates := openHedgedVolume(t, stripes)
	readBlocks(t, v, colBlocks(t, v, stalled), hedgeWarmup)
	launched := v.Stats().HedgesLaunched

	st := v.Store()
	r := v.code.R()
	for stripe := 0; stripe < stripes; stripe++ {
		if err := st.InjectSectorError(stalled, stripe*r+stripe%r); err != nil {
			t.Fatal(err)
		}
	}
	gates[stalled].delay.Store(int64(50 * time.Millisecond))
	ctx := context.Background()
	if err := st.ReplaceDevice(rebuilt); err != nil {
		t.Fatal(err)
	}
	if err := st.RebuildDevice(ctx, rebuilt); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Scrub(ctx); err != nil {
		t.Fatal(err)
	}
	v.Quiesce()
	if bad := st.TotalBadSectors(); bad != 0 {
		t.Fatalf("%d bad sectors after one rebuild and one scrub: hidden from the sweep", bad)
	}
	if got := v.Stats().HedgesLaunched; got != launched {
		t.Fatalf("maintenance launched %d hedges", got-launched)
	}
	gates[stalled].delay.Store(0)
	all := make([]int, v.Blocks())
	for b := range all {
		all[b] = b
	}
	readBlocks(t, v, all, len(all))
}
