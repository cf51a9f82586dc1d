package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"stair/internal/core"
	"stair/internal/store"
)

// faultStatusPath is the fault plane's status query: GET on it asks a
// device server whether its device has failed.
const faultStatusPath = "GET /v1/fault"

// pathCounter is an http.Handler counting the requests it passes on, by
// method and path.
type pathCounter struct {
	next http.Handler
	mu   *sync.Mutex
	n    map[string]int
}

func (c pathCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.n[r.Method+" "+r.URL.Path]++
	c.mu.Unlock()
	c.next.ServeHTTP(w, r)
}

// countedFleet is a cluster volume over in-process DeviceServers on
// loopback HTTP, every server behind one shared pathCounter.
type countedFleet struct {
	v    *Volume
	mems map[string]*store.MemDevice // server-side devices, by server name
	mu   sync.Mutex
	n    map[string]int
}

func (f *countedFleet) count(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n[key]
}

// openCountedFleet opens a volume at the benchmark's cluster geometry
// (n=8, r=16, m=2, 9 stripes of 4 KiB sectors) with the coalescer,
// hedging and the integrity layer at their defaults, and fills it.
func openCountedFleet(t *testing.T) *countedFleet {
	t.Helper()
	code, err := core.New(core.Config{N: 8, R: 16, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	const sectorSize, stripes = 4 << 10, 9
	devSectors := stripes*code.R() + store.IntegrityMetaSectors(stripes, code.R(), sectorSize)
	f := &countedFleet{mems: map[string]*store.MemDevice{}, n: map[string]int{}}
	var servers []Server
	for i := 0; i < code.N(); i++ {
		name := fmt.Sprintf("s%d", i)
		mem := store.NewMemDevice(devSectors, sectorSize)
		f.mems[name] = mem
		hs := httptest.NewServer(pathCounter{next: store.NewDeviceServer(mem), mu: &f.mu, n: f.n})
		t.Cleanup(hs.Close)
		servers = append(servers, Server{Name: name, URL: hs.URL})
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	t.Cleanup(client.CloseIdleConnections)
	f.v, err = Open(context.Background(), Config{
		Fleet:      &Fleet{Servers: servers},
		VolumeName: "devstate",
		Code:       code,
		SectorSize: sectorSize,
		Stripes:    stripes,
		Dial: func(ctx context.Context, server Server) (store.Device, error) {
			return store.DialNetDevice(ctx, server.URL, client)
		},
		Coalesce:      &store.CoalesceOptions{},
		Hedge:         &HedgeConfig{},
		Integrity:     &store.IntegrityOptions{Epoch: 1},
		Monitor:       MonitorConfig{Interval: time.Hour},
		RepairWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.v.Close() })
	return f
}

// fill writes every block's first generation and flushes: whole stripes,
// so every flush is a full-stripe one.
func (f *countedFleet) fill() error {
	ctx := context.Background()
	for b := 0; b < f.v.Blocks(); b++ {
		if err := f.v.WriteBlock(ctx, b, devstateBlock(b, 0, f.v.BlockSize())); err != nil {
			return err
		}
	}
	return f.v.Flush(ctx)
}

// devstateBlock is block b's payload at generation gen.
func devstateBlock(b, gen, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(b*29 + gen*113 + i*7)
	}
	return out
}

// blocksOn lists the volume's blocks whose data cell lies on column col.
func blocksOn(v *Volume, col int) []int {
	cells := v.code.DataCells()
	var out []int
	for b := 0; b < v.Blocks(); b++ {
		if cells[b%len(cells)].Col == col {
			out = append(out, b)
		}
	}
	return out
}

// onePerStripe picks one of the blocks of a column (blocksOn) in each
// stripe.
func onePerStripe(v *Volume, blocks []int) []int {
	var out []int
	for i := 0; i < len(blocks); i += len(blocks) / v.stripes {
		out = append(out, blocks[i])
	}
	return out
}

// checkBlocks reads the given blocks back and compares them with want.
func checkBlocks(t *testing.T, v *Volume, want func(b int) []byte, blocks []int) {
	t.Helper()
	for _, b := range blocks {
		got, err := v.ReadBlock(context.Background(), b)
		if err != nil {
			t.Fatalf("read of block %d: %v", b, err)
		}
		if !bytes.Equal(got, want(b)) {
			t.Fatalf("block %d holds wrong content", b)
		}
	}
}

// TestDeviceStateNoFaultPlaneCalls: the data paths ask no device whether
// it has failed. Over the wire that question is a GET /v1/fault round
// trip, so the count of those at the device servers is zero across every
// data-path operation — a flush, updates, Sync, degraded reads with m
// devices down, replace + rebuild with a survivor burst, scrub + repair —
// and moves only when an admin query asks.
func TestDeviceStateNoFaultPlaneCalls(t *testing.T) {
	f := openCountedFleet(t)
	v, st, ctx := f.v, f.v.Store(), context.Background()
	size := v.BlockSize()
	gen := make([]int, v.Blocks())
	want := func(b int) []byte { return devstateBlock(b, gen[b], size) }
	phase := func(name string, fn func() error) {
		t.Helper()
		before := f.count(faultStatusPath)
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := f.count(faultStatusPath) - before; got != 0 {
			t.Errorf("%s: %d %s round trips, want 0", name, got, faultStatusPath)
		}
	}

	phase("full-stripe flush", f.fill)
	phase("update + flush", func() error {
		for i := 0; i < 20; i++ {
			b := (i * 37) % v.Blocks()
			gen[b]++
			if err := v.WriteBlock(ctx, b, want(b)); err != nil {
				return err
			}
			if err := v.Flush(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	phase("sync", func() error { return v.Sync(ctx) })

	const d0, d1, survivor = 1, 2, 3
	phase("degraded reads", func() error {
		for _, d := range []int{d0, d1} {
			if err := st.FailDevice(d); err != nil {
				return err
			}
		}
		for _, b := range onePerStripe(v, blocksOn(v, d0)) {
			got, err := v.ReadBlock(ctx, b)
			if err != nil {
				return fmt.Errorf("degraded read of block %d: %w", b, err)
			}
			if !bytes.Equal(got, want(b)) {
				return fmt.Errorf("degraded read of block %d: wrong content", b)
			}
		}
		return nil
	})
	phase("replace + rebuild", func() error {
		for _, d := range []int{d0, d1} {
			if err := st.ReplaceDevice(d); err != nil {
				return err
			}
		}
		if err := st.InjectBurst(survivor, 4*v.r+3, 2); err != nil {
			return err
		}
		for _, d := range []int{d0, d1} {
			if err := st.RebuildDevice(ctx, d); err != nil {
				return err
			}
		}
		st.Quiesce()
		return nil
	})
	phase("scrub + repair", func() error {
		if err := st.InjectBurst(0, 7*v.r+5, 2); err != nil {
			return err
		}
		if _, err := st.Scrub(ctx); err != nil {
			return err
		}
		st.Quiesce()
		return nil
	})
	// The rebuilt columns hold the right bytes, in every stripe.
	checkBlocks(t, v, want, append(onePerStripe(v, blocksOn(v, d0)), onePerStripe(v, blocksOn(v, d1))...))

	// The admin query is where the question belongs — and the counter
	// sees it, so the zeros above are measurements.
	before := f.count(faultStatusPath)
	if failed := st.FailedDevices(); len(failed) != 0 {
		t.Fatalf("FailedDevices after the rebuilds = %v, want none", failed)
	}
	if got := f.count(faultStatusPath) - before; got != v.n {
		t.Fatalf("FailedDevices issued %d %s round trips, want one per device (%d)", got, faultStatusPath, v.n)
	}
}

// TestDeviceStateServerSideFailure: a device that fails on its server,
// behind the store's back, is learned from the answers to the store's own
// I/O. Flushes, Sync, degraded reads and repairs all go through without
// one retry, serve the right bytes, and the admin query still names it.
func TestDeviceStateServerSideFailure(t *testing.T) {
	f := openCountedFleet(t)
	v, st, ctx := f.v, f.v.Store(), context.Background()
	size := v.BlockSize()
	gen := make([]int, v.Blocks())
	want := func(b int) []byte { return devstateBlock(b, gen[b], size) }
	if err := f.fill(); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	const col = 2
	if err := f.mems[v.Placement()[col].Name].Fail(); err != nil {
		t.Fatal(err)
	}
	// A whole stripe rewritten (a full-stripe flush) and scattered single
	// blocks (sub-stripe flushes, whose delta loads meet the dead column).
	perStripe := len(v.code.DataCells())
	for b := 3 * perStripe; b < 4*perStripe; b++ {
		gen[b]++
	}
	for i := 0; i < 12; i++ {
		gen[(i*41)%v.Blocks()]++
	}
	for b := range gen {
		if gen[b] == 0 {
			continue
		}
		if err := v.WriteBlock(ctx, b, want(b)); err != nil {
			t.Fatalf("write of block %d: %v", b, err)
		}
	}
	if err := v.Flush(ctx); err != nil {
		t.Fatalf("flush with a column failed server-side: %v", err)
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatalf("sync with a column failed server-side: %v", err)
	}
	// The failed column's blocks read degraded, in every stripe; the
	// rewritten ones were flushed around it.
	check := onePerStripe(v, blocksOn(v, col))
	for b := range gen {
		if gen[b] > 0 {
			check = append(check, b)
		}
	}
	checkBlocks(t, v, want, check)
	st.Quiesce()

	stats := st.Stats()
	if stats.DegradedReads == 0 {
		t.Fatalf("stats %+v: no read was served degraded", stats)
	}
	if stats.RepairRequeues != 0 {
		t.Fatalf("RepairRequeues=%d, want 0: nothing is retried against a device that answered ErrDeviceFailed", stats.RepairRequeues)
	}
	if failed := st.FailedDevices(); !slices.Equal(failed, []int{col}) {
		t.Fatalf("FailedDevices = %v, want [%d]", failed, col)
	}
}
