package cluster

import (
	"context"
	"sync"
	"time"

	"stair/internal/store"
)

// Pinger is the liveness probe a dialled device may offer (NetDevice
// does: one unretried geometry fetch). Devices without it are probed
// only by the suspicion path — transport errors surfacing from live
// I/O — which is exactly the signal an in-process test device has.
type Pinger interface {
	Ping(ctx context.Context) error
}

// MonitorConfig tunes the failure detector.
type MonitorConfig struct {
	// Interval between health sweeps. 0 selects 1s.
	Interval time.Duration
	// Timeout bounds one probe. 0 selects half the interval.
	Timeout time.Duration
	// FailAfter is how many consecutive missed probes declare a server
	// dead. 0 selects 3. Suspicions from live I/O trigger an immediate
	// out-of-band probe of the suspected column, so a dead server is
	// usually declared in FailAfter probe timeouts, not FailAfter
	// sweep intervals.
	FailAfter int
}

func (cfg MonitorConfig) withDefaults() MonitorConfig {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval / 2
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	return cfg
}

// monitor is the volume's failure detector and failover driver: it
// sweeps the columns' endpoints on a ticker, folds in suspicions from
// live I/O, declares a column dead after FailAfter consecutive missed
// probes, and drives the spare swap + background rebuild.
type monitor struct {
	v   *Volume
	cfg MonitorConfig

	suspect chan int
	stop    chan struct{}
	done    chan struct{}

	mu     sync.Mutex
	misses []int
}

func newMonitor(v *Volume, cfg MonitorConfig) *monitor {
	return &monitor{
		v:       v,
		cfg:     cfg.withDefaults(),
		suspect: make(chan int, len(v.cols)*4),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		misses:  make([]int, len(v.cols)),
	}
}

// noteSuspicion is the column onSuspect callback; it never blocks the
// I/O path (a full queue drops the hint — the next sweep probes
// anyway).
func (m *monitor) noteSuspicion(col int, err error) {
	select {
	case m.suspect <- col:
	default:
	}
}

// columnMisses reports the current consecutive-miss count (for Health).
func (m *monitor) columnMisses(col int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.misses[col]
}

func (m *monitor) run() {
	defer close(m.done)
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case col := <-m.suspect:
			m.probe(col)
		case <-ticker.C:
			m.sweep()
		}
	}
}

func (m *monitor) shutdown() {
	close(m.stop)
	<-m.done
}

// sweep probes every live column and retries failover for dead ones
// still waiting on a spare (e.g. an earlier spare dial failed).
func (m *monitor) sweep() {
	for col := range m.v.cols {
		if _, alive := m.v.cols[col].state(); !alive {
			m.v.failover(col)
			continue
		}
		m.probe(col)
	}
}

// probe health-checks one column and escalates to failover after
// FailAfter consecutive misses.
func (m *monitor) probe(col int) {
	c := m.v.cols[col]
	dev, err := c.snapshot()
	if err != nil {
		return // already dead; sweep handles failover retry
	}
	m.v.counters.heartbeats.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.Timeout)
	alive := ping(ctx, dev)
	cancel()
	m.mu.Lock()
	if alive {
		m.misses[col] = 0
		m.mu.Unlock()
		return
	}
	m.misses[col]++
	dead := m.misses[col] >= m.cfg.FailAfter
	m.mu.Unlock()
	m.v.counters.missedHeartbeats.Add(1)
	if dead {
		m.declareDead(col)
	}
}

// ping probes one device: a Pinger answers authoritatively; anything
// else is presumed alive (its failures arrive as suspicions instead).
func ping(ctx context.Context, dev store.Device) bool {
	p, ok := dev.(Pinger)
	if !ok {
		return true
	}
	return p.Ping(ctx) == nil
}

// declareDead flips the column to degraded and starts failover.
func (m *monitor) declareDead(col int) {
	c := m.v.cols[col]
	if _, alive := c.state(); !alive {
		return
	}
	m.v.counters.deaths.Add(1)
	c.markDead()
	m.mu.Lock()
	m.misses[col] = 0
	m.mu.Unlock()
	m.v.failover(col)
}
