// Command staird runs the distributed STAIR volume service.
//
// Two roles share the binary. A device server exports one local
// (memory- or file-backed) device over the NetDevice wire protocol,
// optionally latency-shaped to emulate remote media:
//
//	staird device -listen :9000 -sectors 4096 -sector 4096 \
//	    [-file dev.img] [-latency 2ms -jitter 1ms -spike 40ms -spike-prob 0.02 -serial] \
//	    [-latency-seed 42]
//
// A volume daemon places a STAIR volume's columns across a fleet of
// such device servers, watches their health, fails over to spares with
// background rebuild, and serves a concurrent block API to clients:
//
//	staird serve -listen :8080 -fleet fleet.json -volume myvol \
//	    -n 6 -r 4 -m 2 -e 1,2 -stripes 64 -sector 4096 \
//	    [-flush-workers 4] [-hedge] \
//	    [-integrity -epoch 1] [-heartbeat 1s] [-fail-after 3]
//
// With -integrity, every device carries a per-sector checksum sidecar
// region past its data sectors; device servers must then be started
// with -sectors ≥ stripes×r + store.IntegrityMetaSectors(stripes, r,
// sector) — serve prints the required figure at startup.
//
// With -hedge (on by default), a client's block read that outlives its
// column's p90 latency is solved from n−m sectors of the block's own
// row, checksum-verified with -integrity, and the slow answer is
// dropped. Only client reads hedge: flushes, repairs, scrubs
// and rebuilds see what the device servers answered.
//
// The fleet file lists servers and spares:
//
//	{"servers": [
//	  {"name": "dev0", "url": "http://127.0.0.1:9000"},
//	  {"name": "dev6", "url": "http://127.0.0.1:9006", "spare": true}
//	]}
//
// Volume API: GET/PUT /v1/blocks/{idx} move one block; POST
// /v1/flush, /v1/sync, /v1/scrub drive maintenance; GET /v1/status
// reports geometry, placement and per-column health; GET /v1/metrics
// returns the store and cluster counters plus per-op-class API latency
// percentiles (p50/p99/p999 µs) as JSON.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"stair/internal/cluster"
	"stair/internal/core"
	"stair/internal/gf"
	"stair/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// Resolve GF kernel dispatch up front: a typo'd STAIR_GF_KERNEL must
	// fail startup, not surface mid-flush deep in the cluster layer.
	if err := gf.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "staird:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch os.Args[1] {
	case "device":
		err = cmdDevice(ctx, os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "staird:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  staird device -listen :9000 -sectors N -sector S [-file dev.img] [-latency d -jitter d -spike d -spike-prob p -serial]
  staird serve  -listen :8080 -fleet fleet.json -n 6 -r 4 -m 2 -e 1,2 -stripes N -sector S [flags]`)
	os.Exit(2)
}

// serveHTTP runs one HTTP server on listen until ctx is cancelled, then
// shuts it down gracefully.
func serveHTTP(ctx context.Context, listen string, handler http.Handler) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	return serve(ctx, ln, handler)
}

// serve runs one HTTP server on ln until ctx is cancelled, then shuts it
// down gracefully.
func serve(ctx context.Context, ln net.Listener, handler http.Handler) error {
	srv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func cmdDevice(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("device", flag.ExitOnError)
	listen := fs.String("listen", ":9000", "address to serve the device on")
	sectors := fs.Int("sectors", 4096, "device capacity in sectors")
	sector := fs.Int("sector", 4096, "sector size in bytes")
	file := fs.String("file", "", "back the device with this image file (default: in-memory)")
	latency := fs.Duration("latency", 0, "fixed per-call latency")
	jitter := fs.Duration("jitter", 0, "uniform extra latency in [0, jitter]")
	spike := fs.Duration("spike", 0, "heavy-tail extra latency on a spike-prob fraction of calls")
	spikeProb := fs.Float64("spike-prob", 0, "fraction of calls hit by the spike")
	serial := fs.Bool("serial", false, "queue concurrent calls like a single spindle")
	latencySeed := fs.Int64("latency-seed", 0, "seed for the jitter/spike RNG (0 = time-derived); fix it for reproducible soak timing")
	fs.Parse(args)

	var dev store.Device
	if *file != "" {
		fd, err := store.OpenFileDevice(*file, *sectors, *sector)
		if err != nil {
			return err
		}
		dev = fd
	} else {
		dev = store.NewMemDevice(*sectors, *sector)
	}
	defer dev.Close()
	profile := store.LatencyProfile{
		Latency: *latency, Jitter: *jitter,
		Spike: *spike, SpikeProb: *spikeProb,
		Serial: *serial, Seed: *latencySeed,
	}
	if profile != (store.LatencyProfile{}) {
		dev = store.NewLatencyDeviceProfile(dev, profile)
	}
	return serveHTTP(ctx, *listen, store.NewDeviceServer(dev))
}

func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", ":8080", "address to serve the volume API on")
	fleetPath := fs.String("fleet", "", "fleet file (required)")
	volume := fs.String("volume", "volume", "volume name (keys placement)")
	n := fs.Int("n", 6, "stripe columns")
	r := fs.Int("r", 4, "rows per stripe column")
	m := fs.Int("m", 2, "device failures tolerated")
	eStr := fs.String("e", "1,2", "sector-failure vector, comma separated")
	stripes := fs.Int("stripes", 64, "stripes in the volume")
	sector := fs.Int("sector", 4096, "sector (= block) size in bytes")
	flushWorkers := fs.Int("flush-workers", 4, "asynchronous flush pipeline width (0 = synchronous)")
	hedge := fs.Bool("hedge", true, "hedge slow client block reads with a solve from the block's own row")
	integ := fs.Bool("integrity", false, "per-sector checksum layer (device servers need -sectors sized for the sidecar region)")
	epoch := fs.Uint("epoch", 1, "volume epoch salted into integrity checksums")
	heartbeat := fs.Duration("heartbeat", time.Second, "health sweep interval")
	failAfter := fs.Int("fail-after", 3, "consecutive missed probes that declare a server dead")
	fs.Parse(args)

	if *fleetPath == "" {
		return errors.New("serve: -fleet is required")
	}
	fleet, err := cluster.LoadFleet(*fleetPath)
	if err != nil {
		return err
	}
	e, err := core.ParseE(*eStr)
	if err != nil {
		return err
	}
	code, err := core.New(core.Config{N: *n, R: *r, M: *m, E: e})
	if err != nil {
		return err
	}

	cfg := cluster.Config{
		Fleet:        fleet,
		VolumeName:   *volume,
		Code:         code,
		SectorSize:   *sector,
		Stripes:      *stripes,
		FlushWorkers: *flushWorkers,
		Monitor:      cluster.MonitorConfig{Interval: *heartbeat, FailAfter: *failAfter},
	}
	if *hedge {
		cfg.Hedge = &cluster.HedgeConfig{}
	}
	if *integ {
		cfg.Integrity = &store.IntegrityOptions{Epoch: uint32(*epoch)}
	}

	v, err := cluster.Open(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("volume %q: %d columns × %d stripes, block %d B\n", *volume, *n, *stripes, v.BlockSize())
	if *integ {
		devSectors := *stripes**r + store.IntegrityMetaSectors(*stripes, *r, *sector)
		fmt.Printf("integrity: on (epoch %d; device servers need ≥ %d sectors)\n", *epoch, devSectors)
	}
	for _, p := range v.Placement() {
		fmt.Printf("  column on %s (%s)\n", p.Name, p.URL)
	}
	serveErr := serveHTTP(ctx, *listen, newAPI(v))
	// Drain buffered writes to the fleet before closing.
	syncCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	syncErr := v.Sync(syncCtx)
	cancel()
	closeErr := v.Close()
	if serveErr != nil {
		return serveErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
