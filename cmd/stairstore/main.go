// Command stairstore manages a STAIR-protected block volume on disk: a
// directory of file-per-device images driven by internal/store, with
// fault injection, degraded reads, scrub/repair and persistent
// operation counters.
//
//	stairstore create      -dir vol -n 8 -r 4 -m 2 -e 1,1,2 -stripes 64 -sector 4096 [-integrity=false -epoch 1 -repair-workers 4]
//	stairstore put         -dir vol -in data.bin [-block 0]
//	stairstore get         -dir vol -out copy.bin [-block 0] [-count 8] [-bytes 30000]
//	stairstore fail-device -dir vol -device 3
//	stairstore corrupt     -dir vol -device 2 -sector 17
//	stairstore corrupt     -dir vol -device 2 -burst 40:3
//	stairstore corrupt     -dir vol -device 2 -sector 17 -silent
//	stairstore replace     -dir vol -device 3 [-rebuild=false]
//	stairstore scrub       -dir vol
//	stairstore recover     -dir vol
//	stairstore stats       -dir vol
//	stairstore stats       -url http://127.0.0.1:8080
//
// Layout: dir/volume.json records geometry plus cumulative stats;
// dir/dev_<i>.img holds device i's sectors — with integrity on (the
// default) a sidecar region of per-sector checksum records follows the
// data sectors inside the same image — plus a dev_<i>.img.faults
// sidecar persisting injected faults; dir/journal.wal is the
// write-ahead intent log making stripe write-back crash-consistent.
// A mount checks volume.json's geometry (at most 64 devices and 1024
// cells a stripe) before it opens a device image, and refuses an image
// of a size the descriptor does not give — it never resizes one.
// `corrupt -silent` flips a bit without registering any fault: the
// integrity layer catches the lie and repairs it on the next read or
// scrub.
// Reads through damage are served degraded (reconstructed on the fly)
// and heal in the background; damage beyond the code's coverage
// surfaces as an unrecoverable error and a counter, never as corrupt
// data. Every mount replays pending journal intents automatically;
// `recover` mounts, reports what the replay did, and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"stair/internal/core"
	"stair/internal/gf"
	"stair/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// Surface a typo'd STAIR_GF_KERNEL as a clean startup error rather
	// than a panic inside the first encode.
	if err := gf.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "stairstore:", err)
		os.Exit(1)
	}
	// Every store operation runs under a signal-cancelled context: an
	// interrupt aborts in-flight device I/O (including a blocked remote
	// backend) instead of wedging the command.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch os.Args[1] {
	case "create":
		err = cmdCreate(ctx, os.Args[2:])
	case "put":
		err = cmdPut(ctx, os.Args[2:])
	case "get":
		err = cmdGet(ctx, os.Args[2:])
	case "fail-device":
		err = cmdFailDevice(ctx, os.Args[2:])
	case "corrupt":
		err = cmdCorrupt(ctx, os.Args[2:])
	case "replace":
		err = cmdReplace(ctx, os.Args[2:])
	case "scrub":
		err = cmdScrub(ctx, os.Args[2:])
	case "recover":
		err = cmdRecover(ctx, os.Args[2:])
	case "stats":
		err = cmdStats(ctx, os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stairstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: stairstore {create|put|get|fail-device|corrupt|replace|scrub|recover|stats} [flags]")
	os.Exit(2)
}

func cmdCreate(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "volume directory (created)")
		n       = fs.Int("n", 8, "devices per stripe")
		r       = fs.Int("r", 4, "sectors per chunk")
		m       = fs.Int("m", 2, "whole-device failures tolerated")
		e       = fs.String("e", "1,1,2", "sector-failure coverage vector")
		stripes = fs.Int("stripes", 64, "stripes in the volume")
		sector  = fs.Int("sector", 4096, "sector (logical block) size in bytes")
		repair  = fs.Int("repair-workers", 0, "background repair worker pool size (0 = store default)")
		integ   = fs.Bool("integrity", true, "end-to-end per-sector checksums (sidecar region per device)")
		epoch   = fs.Uint("epoch", 1, "volume epoch salted into integrity digests")
	)
	fs.Parse(args)
	if *dir == "" {
		return errors.New("create: -dir required")
	}
	ev, err := core.ParseE(*e)
	if err != nil {
		return err
	}
	meta := volumeMeta{
		N: *n, R: *r, M: *m, E: ev, SectorSize: *sector, Stripes: *stripes,
		RepairWorkers: *repair, Integrity: *integ, IntegrityEpoch: uint32(*epoch),
	}
	if _, _, err := meta.geometry(); err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(metaPath(*dir)); err == nil {
		return fmt.Errorf("create: %s already holds a volume", *dir)
	}
	if err := meta.save(*dir); err != nil {
		return err
	}
	s, meta2, err := openVolume(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeVolume(*dir, s, meta2); cerr != nil && err == nil {
			err = cerr
		}
	}()
	fmt.Printf("created %s: %s, %d stripes × %d B sectors, %d blocks (%d KiB user capacity)\n",
		*dir, s.Code().Config(), *stripes, *sector, s.Blocks(), s.Blocks()**sector>>10)
	if *integ {
		fmt.Printf("integrity: on (epoch %d, %d sidecar sectors per device)\n",
			*epoch, store.IntegrityMetaSectors(*stripes, *r, *sector))
	}
	return nil
}

func cmdPut(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("put", flag.ExitOnError)
	var (
		dir   = fs.String("dir", "", "volume directory")
		in    = fs.String("in", "", "input file ('-' for stdin)")
		block = fs.Int("block", 0, "first logical block to write")
	)
	fs.Parse(args)
	if *dir == "" || *in == "" {
		return errors.New("put: -dir and -in required")
	}
	var data []byte
	if *in == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*in)
	}
	if err != nil {
		return err
	}
	s, meta, err := openVolume(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeVolume(*dir, s, meta); cerr != nil && err == nil {
			err = cerr
		}
	}()
	bs := s.BlockSize()
	nblocks := (len(data) + bs - 1) / bs
	if *block < 0 || *block+nblocks > s.Blocks() {
		return fmt.Errorf("put: %d blocks at %d exceed volume capacity %d", nblocks, *block, s.Blocks())
	}
	buf := make([]byte, bs)
	for i := 0; i < nblocks; i++ {
		for j := range buf {
			buf[j] = 0
		}
		copy(buf, data[i*bs:])
		if err := s.WriteBlock(ctx, *block+i, buf); err != nil {
			return err
		}
	}
	if err := s.Flush(ctx); err != nil {
		return err
	}
	fmt.Printf("wrote %d bytes to blocks [%d,%d)\n", len(data), *block, *block+nblocks)
	return nil
}

func cmdGet(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	var (
		dir    = fs.String("dir", "", "volume directory")
		out    = fs.String("out", "", "output file ('-' for stdout)")
		block  = fs.Int("block", 0, "first logical block to read")
		count  = fs.Int("count", 0, "blocks to read (0 = to end of volume)")
		nbytes = fs.Int("bytes", 0, "trim output to this many bytes (0 = full blocks)")
	)
	fs.Parse(args)
	if *dir == "" || *out == "" {
		return errors.New("get: -dir and -out required")
	}
	s, meta, err := openVolume(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeVolume(*dir, s, meta); cerr != nil && err == nil {
			err = cerr
		}
	}()
	c := *count
	if *nbytes > 0 {
		bs := s.BlockSize()
		need := (*nbytes + bs - 1) / bs
		if c == 0 || c > need {
			c = need
		}
	}
	if c == 0 {
		c = s.Blocks() - *block
	}
	if *block < 0 || *block+c > s.Blocks() {
		return fmt.Errorf("get: %d blocks at %d exceed volume capacity %d", c, *block, s.Blocks())
	}
	var data []byte
	for i := 0; i < c; i++ {
		blk, err := s.ReadBlock(ctx, *block+i)
		if err != nil {
			return fmt.Errorf("get: %w", err)
		}
		data = append(data, blk...)
	}
	if *nbytes > 0 && *nbytes < len(data) {
		data = data[:*nbytes]
	}
	if *out == "-" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		return err
	}
	st := s.Stats()
	fmt.Fprintf(os.Stderr, "read %d bytes (%d blocks, %d degraded)\n", len(data), c, st.DegradedReads)
	if st.ChecksumMismatches > 0 {
		fmt.Fprintf(os.Stderr, "detected %d checksum mismatches (silent corruption repaired as located erasures)\n",
			st.ChecksumMismatches)
	}
	return nil
}

func cmdFailDevice(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("fail-device", flag.ExitOnError)
	var (
		dir = fs.String("dir", "", "volume directory")
		dev = fs.Int("device", -1, "device to fail")
	)
	fs.Parse(args)
	if *dir == "" || *dev < 0 {
		return errors.New("fail-device: -dir and -device required")
	}
	s, meta, err := openVolume(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeVolume(*dir, s, meta); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := s.FailDevice(*dev); err != nil {
		return err
	}
	fmt.Printf("device %d failed; reads are served degraded\n", *dev)
	return nil
}

func cmdCorrupt(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("corrupt", flag.ExitOnError)
	var (
		dir    = fs.String("dir", "", "volume directory")
		dev    = fs.Int("device", -1, "device to corrupt")
		sector = fs.Int("sector", -1, "single sector to mark as a latent error")
		burst  = fs.String("burst", "", "start:len burst of latent errors")
		silent = fs.Bool("silent", false, "flip a payload bit WITHOUT registering a fault (silent corruption; requires -sector)")
	)
	fs.Parse(args)
	if *dir == "" || *dev < 0 {
		return errors.New("corrupt: -dir and -device required")
	}
	s, meta, err := openVolume(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeVolume(*dir, s, meta); cerr != nil && err == nil {
			err = cerr
		}
	}()
	switch {
	case *silent:
		if *sector < 0 {
			return errors.New("corrupt: -silent requires -sector")
		}
		if err := s.CorruptSectorSilently(*dev, *sector); err != nil {
			return err
		}
		fmt.Printf("silently flipped a bit at device %d sector %d (no fault registered; reads will serve it)\n",
			*dev, *sector)
	case *burst != "":
		parts := strings.SplitN(*burst, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("corrupt: bad -burst %q, want start:len", *burst)
		}
		start, err1 := strconv.Atoi(parts[0])
		length, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || length < 1 {
			return fmt.Errorf("corrupt: bad -burst %q, want start:len", *burst)
		}
		if err := s.InjectBurst(*dev, start, length); err != nil {
			return err
		}
		fmt.Printf("injected %d-sector burst at device %d sector %d\n", length, *dev, start)
	case *sector >= 0:
		if err := s.InjectSectorError(*dev, *sector); err != nil {
			return err
		}
		fmt.Printf("injected latent error at device %d sector %d\n", *dev, *sector)
	default:
		return errors.New("corrupt: one of -sector or -burst required")
	}
	return nil
}

func cmdReplace(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("replace", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "volume directory")
		dev     = fs.Int("device", -1, "device to replace")
		rebuild = fs.Bool("rebuild", true, "rebuild the replacement synchronously")
	)
	fs.Parse(args)
	if *dir == "" || *dev < 0 {
		return errors.New("replace: -dir and -device required")
	}
	s, meta, err := openVolume(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeVolume(*dir, s, meta); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := s.ReplaceDevice(*dev); err != nil {
		return err
	}
	if *rebuild {
		if err := s.RebuildDevice(ctx, *dev); err != nil {
			return err
		}
		st := s.Stats()
		fmt.Printf("device %d replaced and rebuilt (%d sectors reconstructed)\n", *dev, st.RepairedSectors)
		if n := len(s.UnrecoverableStripes()); n > 0 {
			fmt.Printf("warning: %d stripes remain unrecoverable\n", n)
		}
		return nil
	}
	fmt.Printf("device %d replaced; run 'stairstore scrub' (or reads) to rebuild it\n", *dev)
	return nil
}

func cmdScrub(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	var (
		dir    = fs.String("dir", "", "volume directory")
		passes = fs.Int("passes", 8, "maximum scrub passes")
	)
	fs.Parse(args)
	if *dir == "" {
		return errors.New("scrub: -dir required")
	}
	s, meta, err := openVolume(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeVolume(*dir, s, meta); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var mismatches, inconsistent int
	for pass := 1; pass <= *passes; pass++ {
		before := s.TotalBadSectors()
		rep, err := s.Scrub(ctx)
		if err != nil {
			return err
		}
		s.Quiesce()
		after := s.TotalBadSectors()
		mismatches += rep.ChecksumMismatches
		inconsistent += rep.StripesInconsistent
		fmt.Printf("pass %d: %d stripes checked, %d damaged, %d sectors lost, %d checksum mismatches; %d bad sectors remain\n",
			pass, rep.StripesChecked, rep.StripesDamaged, rep.SectorsLost, rep.ChecksumMismatches, after)
		if rep.StripesInconsistent > 0 {
			fmt.Printf("  %d stripes INCONSISTENT with nothing located (unlocatable lie) — marked unrecoverable\n",
				rep.StripesInconsistent)
		}
		if rep.RecordsRefreshed > 0 {
			fmt.Printf("  refreshed %d absent integrity records\n", rep.RecordsRefreshed)
		}
		// Keep sweeping while anything heals between passes: bad sectors
		// shrinking, or checksum-located damage found this pass (the
		// repair it queued lands before the next pass re-checks).
		if after == 0 && rep.ChecksumMismatches == 0 {
			break
		}
		if after == before && rep.ChecksumMismatches == 0 {
			break
		}
	}
	if mismatches > 0 {
		fmt.Printf("checksum-located silent corruption: %d sectors (repaired as located erasures)\n", mismatches)
	}
	if inconsistent > 0 {
		fmt.Printf("unlocatable inconsistencies: %d stripes (beyond what checksums cover)\n", inconsistent)
	}
	st := s.Stats()
	fmt.Printf("repaired %d sectors in %d stripes", st.RepairedSectors, st.RepairedStripes)
	if n := len(s.UnrecoverableStripes()); n > 0 {
		fmt.Printf("; %d stripes UNRECOVERABLE", n)
	}
	if devs := s.FailedDevices(); len(devs) > 0 {
		fmt.Printf("; failed devices %v still need replacement", devs)
	}
	fmt.Println()
	return nil
}

func cmdRecover(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	dir := fs.String("dir", "", "volume directory")
	fs.Parse(args)
	if *dir == "" {
		return errors.New("recover: -dir required")
	}
	// Mounting runs the journal replay; this command exists to report
	// what it did.
	s, meta, err := openVolume(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeVolume(*dir, s, meta); cerr != nil && err == nil {
			err = cerr
		}
	}()
	rep := s.Recovery()
	if !rep.Replayed() {
		fmt.Println("journal clean: nothing to replay")
		return nil
	}
	fmt.Printf("replayed %d pending intents covering %d stripes:\n", rep.Intents, rep.Stripes)
	fmt.Printf("  %d already parity-consistent (%d with the intended data fully landed)\n",
		rep.Consistent, rep.DataComplete)
	fmt.Printf("  %d rolled forward (parity re-encoded from on-device data)\n", rep.RolledForward)
	if rep.Unrecoverable > 0 {
		fmt.Printf("  %d UNRECOVERABLE (outside coverage; journal retained — replace devices and re-run)\n",
			rep.Unrecoverable)
	}
	return nil
}

func cmdStats(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := fs.String("dir", "", "volume directory")
	url := fs.String("url", "", "fetch /v1/metrics from a remote staird or device server instead")
	fs.Parse(args)
	if *url != "" {
		return remoteStats(ctx, *url)
	}
	if *dir == "" {
		return errors.New("stats: -dir or -url required")
	}
	s, meta, err := openVolume(*dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeVolume(*dir, s, meta); cerr != nil && err == nil {
			err = cerr
		}
	}()
	n, stripes, r, sector := s.Geometry()
	pi := s.Code().PlanInfo()
	fmt.Printf("volume:   %s\n", s.Code().Config())
	fmt.Printf("gf:       w=%d, region kernel %s\n", s.Code().Field().W(), s.Code().KernelName())
	fmt.Printf("plan:     tile %d B, %d stages, %d kernel ops of up to %d destinations per encode tile\n",
		pi.TileBytes, pi.Stages, pi.FusedCalls, pi.MaxFanout)
	fmt.Printf("geometry: %d devices × %d stripes × %d sectors × %d B (%d blocks)\n",
		n, stripes, r, sector, s.Blocks())
	fmt.Printf("health:   failed devices %v, %d bad sectors, %d unrecoverable stripes\n",
		s.FailedDevices(), s.TotalBadSectors(), len(s.UnrecoverableStripes()))
	t := meta.Stats.Add(s.Stats())
	fmt.Printf("lifetime: reads=%d (degraded=%d, %d refused beyond coverage) writes=%d flushes=%d/%d (full/sub, %d sub of a stripe beyond coverage)\n",
		t.Reads, t.DegradedReads, t.DegradedReadFallbacks, t.Writes, t.FullStripeFlushes, t.SubStripeFlushes, t.SubStripeFallbacks)
	fmt.Printf("          scrubbed=%d hits=%d repaired=%d sectors (%d stripes) drops=%d unrecoverable=%d\n",
		t.ScrubbedStripes, t.ScrubHits, t.RepairedSectors, t.RepairedStripes, t.RepairDrops, t.UnrecoverableStripes)
	fmt.Printf("          journaled flushes=%d crash-recovered stripes=%d\n",
		t.JournaledFlushes, t.RecoveredStripes)
	mode := "off"
	if s.IntegrityEnabled() {
		mode = "on"
	}
	fmt.Printf("integrity: %s; verified sectors=%d checksum mismatches=%d\n",
		mode, t.VerifiedSectors, t.ChecksumMismatches)
	return nil
}

// remoteStats fetches and pretty-prints a /v1/metrics endpoint — a
// staird volume daemon's (store + cluster counters) or a single device
// server's (request counters).
func remoteStats(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(base, "/")+"/v1/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats: %s answered %s", base, resp.Status)
	}
	var metrics any
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		return fmt.Errorf("stats: bad metrics from %s: %w", base, err)
	}
	out, err := json.MarshalIndent(metrics, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

func metaPath(dir string) string { return filepath.Join(dir, "volume.json") }

func devicePath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("dev_%02d.img", i))
}
