package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"stair/internal/cluster"
	"stair/internal/core"
	"stair/internal/store"
	"stair/internal/store/journal"
)

// defaultScratch is where file-backed volumes and probe journals live: a
// directory the build wrapper already owns, inside the checkout.
const defaultScratch = ".bench_build/vol"

// volume is one opened volume under test (or one scratch volume of a
// set-up pass): the store the client drives, the counting wrappers under
// it, and everything that must be torn down afterwards.
type volume struct {
	st       *store.Store
	code     *core.Code
	counters *devCounters
	devs     []*countDev
	vol      *cluster.Volume // cluster-http only
	jrn      *journal.Journal
	servers  []*http.Server
	served   chan error
	client   *http.Client
	dir      string
	// dial and open are how long the dials and the whole open step took,
	// for the set-up pass's layer metrics.
	dial, open time.Duration
}

// clusterStats snapshots the cluster counters (zero off cluster-http).
func (v *volume) clusterStats() cluster.Stats {
	if v.vol == nil {
		return cluster.Stats{}
	}
	return v.vol.Stats()
}

// scratchFlats sums the backends' copy-elision fallback counters.
func (v *volume) scratchFlats() uint64 {
	var n uint64
	for _, d := range v.devs {
		n += d.ScratchFlats()
	}
	return n
}

// deviceBytes is the volume's raw footprint, integrity sidecar included.
func (v *volume) deviceBytes() int64 {
	var n int64
	for _, d := range v.devs {
		n += int64(d.Sectors()) * int64(d.SectorSize())
	}
	return n
}

// close tears the volume down: store (or cluster volume) first, then the
// journal its owner must close, the servers, and the scratch directory.
func (v *volume) close() error {
	var errs []error
	switch {
	case v.vol != nil:
		errs = append(errs, v.vol.Close())
	case v.st != nil:
		errs = append(errs, v.st.Close())
	default: // a set-up that failed before the store took the devices over
		for _, d := range v.devs {
			errs = append(errs, d.Close())
		}
	}
	if v.jrn != nil {
		errs = append(errs, v.jrn.Close())
	}
	if v.client != nil {
		v.client.CloseIdleConnections()
	}
	for _, srv := range v.servers {
		errs = append(errs, srv.Close())
	}
	for range v.servers {
		if err := <-v.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if v.dir != "" {
		errs = append(errs, os.RemoveAll(v.dir))
	}
	return errors.Join(errs...)
}

// codecWorkers is the store's Config.Workers. Its default, GOMAXPROCS,
// splits every stripe encode and decode across two goroutines; on this
// 2-vCPU VM waking the second one costs more than the split saves and
// takes as long as the host lets it: on smallio-mem write_seq, rebuild
// and degraded_read run 36 %, 27 % and 53 % slower with 2 workers than
// with 1 (out/workers.txt) and spread 20–35 % from run to run in a busy
// hour against 4–7 % (README, "Why a serial codec"). Like the background
// timers, the split is off, so that no wake-up across vCPUs sits inside a
// timed pass.
const codecWorkers = 1

// openVolume performs one cold set-up: a fresh Code (cold plan caches),
// the backing devices, store.Open or cluster.Open, a prefill of every
// block from image, and a Flush. Background timers are off: no scrubber,
// no flush pipeline, one repair worker, monitor heartbeats an hour
// apart, no spares, no injected latency.
func openVolume(ctx context.Context, w *workload, image []byte, rec *recorder, scratch string) (v *volume, err error) {
	v = &volume{counters: new(devCounters)}
	defer func() {
		if err != nil {
			err = errors.Join(err, v.close())
			v = nil
		}
	}()

	sp := rec.begin(spCoreNew)
	v.code, err = core.New(codeConfig)
	rec.end(sp)
	if err != nil {
		return v, err
	}

	devSectors := w.stripes*codeR + store.IntegrityMetaSectors(w.stripes, codeR, w.sectorSize)
	integ := &store.IntegrityOptions{Epoch: 1}
	wrap := func(d store.FaultDevice) *countDev {
		cd := newCountDev(d, v.counters, rec)
		v.devs = append(v.devs, cd)
		return cd
	}

	t1 := time.Now()
	sp = rec.begin(spOpen)
	switch w.backend {
	case backendMem:
		devs := make([]store.Device, codeN)
		for i := range devs {
			devs[i] = wrap(store.NewMemDevice(devSectors, w.sectorSize))
		}
		v.st, err = store.Open(store.Config{Code: v.code, SectorSize: w.sectorSize, Stripes: w.stripes,
			Devices: devs, Workers: codecWorkers, RepairWorkers: 1, Integrity: integ})

	case backendFile:
		if err = os.MkdirAll(scratch, 0o755); err != nil {
			break
		}
		if v.dir, err = os.MkdirTemp(scratch, w.name+"-"); err != nil {
			break
		}
		devs := make([]store.Device, codeN)
		for i := range devs {
			var fd *store.FileDevice
			fd, err = store.OpenFileDevice(filepath.Join(v.dir, fmt.Sprintf("dev%d.img", i)), devSectors, w.sectorSize)
			if err != nil {
				break
			}
			devs[i] = wrap(fd)
		}
		if err != nil {
			break
		}
		if v.jrn, err = journal.Open(filepath.Join(v.dir, "journal.wal")); err != nil {
			break
		}
		v.st, err = store.Open(store.Config{Code: v.code, SectorSize: w.sectorSize, Stripes: w.stripes,
			Devices: devs, Workers: codecWorkers, RepairWorkers: 1, Integrity: integ, Journal: v.jrn})

	case backendCluster:
		fleet := &cluster.Fleet{}
		v.served = make(chan error, codeN)
		for i := 0; i < codeN; i++ {
			var ln net.Listener
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				break
			}
			srv := &http.Server{Handler: store.NewDeviceServer(store.NewMemDevice(devSectors, w.sectorSize))}
			v.servers = append(v.servers, srv)
			go func() { v.served <- srv.Serve(ln) }()
			fleet.Servers = append(fleet.Servers, cluster.Server{Name: fmt.Sprintf("dev%d", i), URL: "http://" + ln.Addr().String()})
		}
		if err != nil {
			break
		}
		v.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
		v.vol, err = cluster.Open(ctx, cluster.Config{
			Fleet: fleet, VolumeName: w.name, Code: v.code, SectorSize: w.sectorSize, Stripes: w.stripes,
			Dial: func(ctx context.Context, server cluster.Server) (store.Device, error) {
				td := time.Now()
				dsp := rec.begin(spDial)
				nd, err := store.DialNetDevice(ctx, server.URL, v.client)
				rec.end(dsp)
				v.dial += time.Since(td)
				if err != nil {
					return nil, err
				}
				return wrap(nd), nil
			},
			Coalesce:      &store.CoalesceOptions{},
			Hedge:         &cluster.HedgeConfig{},
			Monitor:       cluster.MonitorConfig{Interval: time.Hour},
			Integrity:     integ,
			Workers:       codecWorkers,
			RepairWorkers: 1,
		})
		if err == nil {
			v.st = v.vol.Store()
		}
	}
	rec.end(sp)
	v.open = time.Since(t1)
	if err != nil {
		return v, err
	}

	sp = rec.begin(spPrefill)
	bs := w.sectorSize
	for b := 0; b < w.blocks() && err == nil; b++ {
		err = v.st.WriteBlock(ctx, b, image[b*bs:(b+1)*bs])
	}
	if err == nil {
		err = v.st.Flush(ctx)
	}
	rec.end(sp)
	return v, err
}
