package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"stair/internal/core"
	"stair/internal/store"
	"stair/internal/store/journal"
)

// Config describes a cluster volume.
type Config struct {
	// Fleet is the set of device servers (actives + spares).
	Fleet *Fleet
	// VolumeName keys placement; two daemons opening the same name over
	// the same fleet agree on the column → server mapping. Empty
	// selects "volume".
	VolumeName string
	// Code/SectorSize/Stripes fix the volume geometry, exactly as for
	// store.Config. Every fleet server must serve Stripes×Code.R()
	// sectors of SectorSize bytes.
	Code       *core.Code
	SectorSize int
	Stripes    int
	// Dial connects one placed server. Nil selects store.DialNetDevice
	// with the default HTTP client. Tests and benchmarks inject local
	// or latency-shaped devices here.
	Dial func(ctx context.Context, server Server) (store.Device, error)
	// Deprecated: has no effect; every column is its dialled device. Kept
	// until bench/ stops setting it.
	Coalesce *store.CoalesceOptions
	// Hedge, when non-nil, hedges client block reads in the wrapped store
	// (see store.Config.Hedge).
	Hedge *HedgeConfig
	// Monitor tunes the failure detector (zero values select defaults).
	Monitor MonitorConfig
	// Integrity, when non-nil, turns on the end-to-end checksum layer in
	// the wrapped store (see store.Config.Integrity): reads, scrubs and
	// rebuilds verify every sector against its record, and rebuilds write
	// fresh records for every sector they reconstruct. Every fleet server
	// must then serve Stripes×Code.R() + store.IntegrityMetaSectors(...)
	// sectors.
	Integrity *store.IntegrityOptions
	// Deprecated: has no effect; the codec runs one stripe per goroutine
	// — parallelism is FlushWorkers / RepairWorkers / LockShards. Kept
	// until bench/ stops setting it.
	Workers int
	// Store tuning passthrough; see store.Config.
	MaxDirtyStripes int
	FlushWorkers    int
	RepairWorkers   int
	Journal         *journal.Journal
}

// HedgeConfig turns hedged client reads on; it has no settings. Hedge
// becomes a bool, as store.Config.Hedge is, once bench/ stops naming it.
type HedgeConfig struct{}

// ColumnHealth is one column's view in Health().
type ColumnHealth struct {
	Col    int    `json:"col"`
	Server string `json:"server"`
	URL    string `json:"url"`
	Alive  bool   `json:"alive"`
	Misses int    `json:"misses"`
}

// Volume is a STAIR store whose columns live on a fleet of device
// servers: placement, health, failover and rebuild on the outside, the
// unchanged store.Store on the inside.
type Volume struct {
	code    *core.Code
	n, r    int
	stripes int

	dial func(ctx context.Context, server Server) (store.Device, error)

	cols     []*column
	st       *store.Store
	mon      *monitor
	counters clusterCounters

	spareMu sync.Mutex
	spares  []Server

	rebuildCtx    context.Context
	rebuildCancel context.CancelFunc
	rebuildWG     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// Open places the volume's columns on the fleet, dials them, and opens
// the store over the resulting devices.
func Open(ctx context.Context, cfg Config) (*Volume, error) {
	if cfg.Fleet == nil {
		return nil, errors.New("cluster: Config.Fleet is required")
	}
	if cfg.Code == nil {
		return nil, errors.New("cluster: Config.Code is required")
	}
	name := cfg.VolumeName
	if name == "" {
		name = "volume"
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(ctx context.Context, server Server) (store.Device, error) {
			return store.DialNetDevice(ctx, server.URL, nil)
		}
	}
	n := cfg.Code.N()
	placed, err := Place(name, n, cfg.Fleet.Actives())
	if err != nil {
		return nil, err
	}

	v := &Volume{
		code:    cfg.Code,
		n:       n,
		r:       cfg.Code.R(),
		stripes: cfg.Stripes,
		spares:  cfg.Fleet.Spares(),
	}
	v.rebuildCtx, v.rebuildCancel = context.WithCancel(context.Background())
	v.dial = dial

	v.cols = make([]*column, n)
	devs := make([]store.Device, n)
	for col := 0; col < n; col++ {
		dev, err := dial(ctx, placed[col])
		if err != nil {
			for _, c := range v.cols[:col] {
				c.Close()
			}
			v.rebuildCancel()
			return nil, fmt.Errorf("cluster: dialing %s (%s) for column %d: %w", placed[col].Name, placed[col].URL, col, err)
		}
		v.cols[col] = newColumn(col, placed[col], dev)
		devs[col] = v.cols[col]
	}

	v.mon = newMonitor(v, cfg.Monitor)
	for _, c := range v.cols {
		c.onSuspect = v.mon.noteSuspicion
	}

	st, err := store.Open(store.Config{
		Code:       cfg.Code,
		SectorSize: cfg.SectorSize,
		Stripes:    cfg.Stripes,
		// The store's devices are the cluster's placed, health-tracked
		// columns.
		Devices:         devs,
		MaxDirtyStripes: cfg.MaxDirtyStripes,
		FlushWorkers:    cfg.FlushWorkers,
		RepairWorkers:   cfg.RepairWorkers,
		Journal:         cfg.Journal,
		Integrity:       cfg.Integrity,
		Hedge:           cfg.Hedge != nil,
	})
	if err != nil {
		for _, c := range v.cols {
			c.Close()
		}
		v.rebuildCancel()
		return nil, err
	}
	v.st = st
	go v.mon.run()
	return v, nil
}

// Store exposes the wrapped store for operations the Volume does not
// re-export.
func (v *Volume) Store() *store.Store { return v.st }

// ReadBlock reads one logical block (degraded if its column is dead).
func (v *Volume) ReadBlock(ctx context.Context, b int) ([]byte, error) {
	return v.st.ReadBlock(ctx, b)
}

// WriteBlock writes one logical block.
func (v *Volume) WriteBlock(ctx context.Context, b int, data []byte) error {
	return v.st.WriteBlock(ctx, b, data)
}

// Flush flushes buffered stripes to the fleet.
func (v *Volume) Flush(ctx context.Context) error { return v.st.Flush(ctx) }

// Sync flushes and barriers the fleet.
func (v *Volume) Sync(ctx context.Context) error { return v.st.Sync(ctx) }

// Scrub sweeps every stripe, verifying and repairing.
func (v *Volume) Scrub(ctx context.Context) (store.ScrubReport, error) { return v.st.Scrub(ctx) }

// BlockSize returns the logical block size.
func (v *Volume) BlockSize() int { return v.st.BlockSize() }

// Blocks returns the volume's logical capacity in blocks.
func (v *Volume) Blocks() int { return v.st.Blocks() }

// StoreStats snapshots the wrapped store's counters.
func (v *Volume) StoreStats() store.Stats { return v.st.Stats() }

// Stats snapshots the cluster layer's counters.
func (v *Volume) Stats() Stats {
	ss := v.st.Stats()
	s := Stats{
		Heartbeats:       v.counters.heartbeats.Load(),
		MissedHeartbeats: v.counters.missedHeartbeats.Load(),
		Deaths:           v.counters.deaths.Load(),
		Failovers:        v.counters.failovers.Load(),
		SpareExhausted:   v.counters.spareExhausted.Load(),
		Rebuilds:         v.counters.rebuilds.Load(),
		RebuildErrors:    v.counters.rebuildErrors.Load(),
		HedgesLaunched:   ss.HedgesLaunched,
		HedgeWins:        ss.HedgeWins,
		HedgeLosses:      ss.HedgeLosses,
		HedgeFails:       ss.HedgeFails,
	}
	v.spareMu.Lock()
	s.SparesLeft = uint64(len(v.spares))
	v.spareMu.Unlock()
	for _, c := range v.cols {
		if _, alive := c.state(); !alive {
			s.DeadColumns++
		}
	}
	return s
}

// Health reports every column's endpoint and liveness.
func (v *Volume) Health() []ColumnHealth {
	out := make([]ColumnHealth, len(v.cols))
	for i, c := range v.cols {
		server, alive := c.state()
		out[i] = ColumnHealth{
			Col:    i,
			Server: server.Name,
			URL:    server.URL,
			Alive:  alive,
			Misses: v.mon.columnMisses(i),
		}
	}
	return out
}

// Placement reports the current column → server mapping.
func (v *Volume) Placement() []Server {
	out := make([]Server, len(v.cols))
	for i, c := range v.cols {
		out[i], _ = c.state()
	}
	return out
}

// WaitRebuilds blocks until every background rebuild in flight has
// finished (tests and orderly shutdown).
func (v *Volume) WaitRebuilds() { v.rebuildWG.Wait() }

// takeSpare pops the next spare, or false when the pool is empty.
func (v *Volume) takeSpare() (Server, bool) {
	v.spareMu.Lock()
	defer v.spareMu.Unlock()
	if len(v.spares) == 0 {
		return Server{}, false
	}
	s := v.spares[0]
	v.spares = v.spares[1:]
	return s, true
}

// returnSpare puts a spare back after a failed dial, so the next sweep
// retries it.
func (v *Volume) returnSpare(s Server) {
	v.spareMu.Lock()
	v.spares = append([]Server{s}, v.spares...)
	v.spareMu.Unlock()
}

// failover swaps a dead column onto a spare and starts the background
// rebuild. Called from the monitor goroutine only.
func (v *Volume) failover(col int) {
	c := v.cols[col]
	if _, alive := c.state(); alive {
		return
	}
	spare, ok := v.takeSpare()
	if !ok {
		v.counters.spareExhausted.Add(1)
		return
	}
	ctx, cancel := context.WithTimeout(v.rebuildCtx, v.mon.cfg.Interval)
	dev, err := v.dial(ctx, spare)
	cancel()
	if err != nil {
		v.returnSpare(spare)
		return
	}
	c.adopt(dev, spare)
	v.counters.failovers.Add(1)
	// Replace-comes-back-bad: the fresh spare holds nothing, so every
	// sector it owns is marked lost before the column goes live (see
	// column.Replace) and the unrecoverable bookkeeping is re-evaluated —
	// then the rebuild sweep reconstructs them.
	if err := v.st.ReplaceDevice(col); err != nil {
		return
	}
	v.rebuildWG.Add(1)
	go func() {
		defer v.rebuildWG.Done()
		if err := v.st.RebuildDevice(v.rebuildCtx, col); err != nil {
			v.counters.rebuildErrors.Add(1)
			return
		}
		v.counters.rebuilds.Add(1)
	}()
}

// Quiesce waits out background store activity (tests).
func (v *Volume) Quiesce() { v.st.Quiesce() }

// Close stops the monitor, aborts in-flight rebuilds, and closes the
// store (which closes the columns and their devices).
func (v *Volume) Close() error {
	v.closeOnce.Do(func() {
		v.mon.shutdown()
		v.rebuildCancel()
		v.rebuildWG.Wait()
		v.closeErr = v.st.Close()
	})
	return v.closeErr
}
