package cluster

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"stair/internal/store"
	"stair/internal/store/devtest"
)

// The PR's acceptance scenario: six device servers plus one spare,
// kill a placed server mid-workload, and the volume must keep serving
// (degraded), fail over to the spare, rebuild in the background, and
// come out of a scrub with zero lost sectors.
func TestClusterKillFailoverRebuild(t *testing.T) {
	code := testCode(t)
	const sectorSize, stripes = 64, 6

	srvs := map[string]*devtest.Server{}
	var servers []Server
	for i := 0; i < 7; i++ {
		name := fmt.Sprintf("s%d", i)
		hs := devtest.NewServer(t, store.NewDeviceServer(store.NewMemDevice(stripes*code.R(), sectorSize)))
		srvs[name] = hs
		servers = append(servers, Server{Name: name, URL: hs.URL, Spare: i == 6})
	}

	v, err := Open(context.Background(), Config{
		Fleet:        &Fleet{Servers: servers},
		VolumeName:   "e2e",
		Code:         code,
		SectorSize:   sectorSize,
		Stripes:      stripes,
		FlushWorkers: 2,
		Monitor:      MonitorConfig{Interval: 50 * time.Millisecond, Timeout: 40 * time.Millisecond, FailAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	ctx := context.Background()
	pattern := func(b, gen int) []byte {
		out := make([]byte, sectorSize)
		for i := range out {
			out[i] = byte(b*13 + gen*101 + i)
		}
		return out
	}
	blocks := v.Blocks()
	for b := 0; b < blocks; b++ {
		if err := v.WriteBlock(ctx, b, pattern(b, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill the server backing column 2, abruptly.
	victim := v.Placement()[2].Name
	srvs[victim].Kill()

	// Degraded service must continue: every block stays readable with
	// its content, and writes keep landing.
	for b := 0; b < blocks; b++ {
		got, err := v.ReadBlock(ctx, b)
		if err != nil {
			t.Fatalf("degraded read of block %d: %v", b, err)
		}
		if !bytes.Equal(got, pattern(b, 0)) {
			t.Fatalf("degraded read of block %d returned wrong content", b)
		}
	}
	for b := 0; b < blocks/2; b++ {
		if err := v.WriteBlock(ctx, b, pattern(b, 1)); err != nil {
			t.Fatalf("degraded write of block %d: %v", b, err)
		}
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatalf("degraded sync: %v", err)
	}

	// The failure detector must declare the death, swap in the spare,
	// and finish the background rebuild.
	deadline := time.Now().Add(15 * time.Second)
	for v.Stats().Rebuilds == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no rebuild completed; stats %+v, health %+v", v.Stats(), v.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}
	v.WaitRebuilds()

	st := v.Stats()
	if st.Deaths == 0 || st.Failovers == 0 {
		t.Fatalf("stats %+v, want ≥1 death and ≥1 failover", st)
	}
	health := v.Health()
	if !health[2].Alive || health[2].Server != "s6" {
		t.Fatalf("column 2 health %+v, want alive on spare s6", health[2])
	}

	// Zero data loss, verified by scrub and a full read-back.
	rep, err := v.Scrub(ctx)
	if err != nil {
		t.Fatalf("post-rebuild scrub: %v", err)
	}
	if rep.SectorsLost != 0 || rep.StripesDamaged != 0 {
		t.Fatalf("post-rebuild scrub found damage: %+v", rep)
	}
	for b := 0; b < blocks; b++ {
		gen := 0
		if b < blocks/2 {
			gen = 1
		}
		got, err := v.ReadBlock(ctx, b)
		if err != nil {
			t.Fatalf("post-rebuild read of block %d: %v", b, err)
		}
		if !bytes.Equal(got, pattern(b, gen)) {
			t.Fatalf("post-rebuild block %d holds wrong content", b)
		}
	}
}

// TestClusterKillFailoverReplacesSpareFirst: failover replaces the spare
// before its column goes live, and not again after. A read of the column
// while the spare is being replaced is served degraded with the right
// content, never from the spare's blank sectors, and the spare sees its
// one Replace before any read or write.
func TestClusterKillFailoverReplacesSpareFirst(t *testing.T) {
	code := testCode(t)
	const sectorSize, stripes, col = 64, 4, 2
	ctx := context.Background()
	var servers []Server
	for i := 0; i <= code.N(); i++ {
		servers = append(servers, Server{Name: fmt.Sprintf("s%d", i), URL: fmt.Sprintf("http://s%d", i), Spare: i == code.N()})
	}
	spare := &recordingSpare{Forwarder: store.Forwarder{Inner: store.NewMemDevice(stripes*code.R(), sectorSize)}}
	v, err := Open(ctx, Config{
		Fleet:      &Fleet{Servers: servers},
		VolumeName: "spare-order",
		Code:       code,
		SectorSize: sectorSize,
		Stripes:    stripes,
		Dial: func(ctx context.Context, server Server) (store.Device, error) {
			if server.Spare {
				return spare, nil
			}
			return store.NewMemDevice(stripes*code.R(), sectorSize), nil
		},
		Monitor: MonitorConfig{Interval: time.Hour}, // failover is driven below
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	fillVolume(t, v)
	blocks := colBlocks(t, v, col)
	want := func(b int) []byte { return bytes.Repeat([]byte{byte(b + 1)}, sectorSize) }
	var readErr error
	spare.onReplace = func() {
		for _, b := range blocks {
			if got, err := v.ReadBlock(ctx, b); err != nil || !bytes.Equal(got, want(b)) {
				readErr = fmt.Errorf("read of block %d while the spare was replaced: %v, content right %t", b, err, bytes.Equal(got, want(b)))
				return
			}
		}
	}

	v.mon.declareDead(col)
	v.WaitRebuilds()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if st := v.Stats(); st.Failovers != 1 || st.Rebuilds != 1 {
		t.Fatalf("stats %+v, want one failover and one rebuild", st)
	}
	for _, b := range blocks {
		if err := v.WriteBlock(ctx, b, want(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if rep, err := v.Scrub(ctx); err != nil || rep.SectorsLost != 0 || rep.StripesDamaged != 0 {
		t.Fatalf("scrub after the failover: %+v, %v", rep, err)
	}
	ops := spare.taken()
	if len(ops) < 3 || ops[0] != "replace" || slices.Contains(ops[1:], "replace") {
		t.Fatalf("the spare saw %v, want one Replace before any read or write", ops)
	}
}

// recordingSpare logs the order of the reads, writes and Replaces a spare
// device sees; onReplace runs as a Replace arrives, before it is logged
// and forwarded.
type recordingSpare struct {
	store.Forwarder
	onReplace func()
	mu        sync.Mutex
	ops       []string
}

func (d *recordingSpare) log(op string) {
	d.mu.Lock()
	d.ops = append(d.ops, op)
	d.mu.Unlock()
}

func (d *recordingSpare) taken() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.ops)
}

func (d *recordingSpare) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	d.log("read")
	return d.Inner.ReadSectors(ctx, start, bufs)
}

func (d *recordingSpare) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	d.log("write")
	return d.Inner.WriteSectors(ctx, start, data)
}

func (d *recordingSpare) Replace() error {
	if d.onReplace != nil {
		d.onReplace()
	}
	d.log("replace")
	return d.Forwarder.Replace()
}

// With no spare left, a death degrades the volume but service
// continues; the spare-exhaustion counter records the unmet need.
func TestClusterSpareExhaustion(t *testing.T) {
	code := testCode(t)
	const sectorSize, stripes = 64, 2

	srvs := map[string]*devtest.Server{}
	var servers []Server
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("s%d", i)
		hs := devtest.NewServer(t, store.NewDeviceServer(store.NewMemDevice(stripes*code.R(), sectorSize)))
		srvs[name] = hs
		servers = append(servers, Server{Name: name, URL: hs.URL})
	}
	v, err := Open(context.Background(), Config{
		Fleet:      &Fleet{Servers: servers},
		Code:       code,
		SectorSize: sectorSize,
		Stripes:    stripes,
		Monitor:    MonitorConfig{Interval: 50 * time.Millisecond, Timeout: 40 * time.Millisecond, FailAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	ctx := context.Background()
	for b := 0; b < v.Blocks(); b++ {
		if err := v.WriteBlock(ctx, b, bytes.Repeat([]byte{byte(b)}, sectorSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	victim := v.Placement()[0].Name
	srvs[victim].Kill()

	deadline := time.Now().Add(15 * time.Second)
	for v.Stats().SpareExhausted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("death never hit spare exhaustion; stats %+v", v.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	for b := 0; b < v.Blocks(); b++ {
		got, err := v.ReadBlock(ctx, b)
		if err != nil {
			t.Fatalf("degraded read of block %d: %v", b, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(b)}, sectorSize)) {
			t.Fatalf("degraded block %d holds wrong content", b)
		}
	}
	if health := v.Health(); health[0].Alive {
		t.Fatalf("column 0 still alive after its server died: %+v", health)
	}
}
