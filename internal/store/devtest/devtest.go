// Package devtest is the shared conformance suite for store.Device
// backends. Every backend — local, wrapped, or remote — must present
// identical vectored I/O, fault-injection and context semantics to the
// store, and this suite is the contract's executable form: point Run at
// a factory and it exercises geometry, vectored round trips,
// partial-failure reporting, fail-stop behaviour, replace-comes-back-bad
// semantics, healing writes and context cancellation.
//
// New backends should add a one-line test:
//
//	func TestDeviceConformanceFoo(t *testing.T) {
//		devtest.Run(t, func(t *testing.T, sectors, sectorSize int) store.FaultDevice {
//			return newFooDevice(t, sectors, sectorSize)
//		})
//	}
//
// A backend whose Sync reaches stable storage uses RunDurable instead,
// which also holds a failed device's Sync to ErrDeviceFailed.
package devtest

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"stair/internal/store"
)

// Factory builds a fresh, empty fault-injectable device of the given
// geometry. Cleanup should be registered on t (the suite does not call
// Close for factories that need teardown ordering, but it does close
// devices it is done with).
type Factory func(t *testing.T, sectors, sectorSize int) store.FaultDevice

// Suite geometry: small enough that remote backends stay fast, large
// enough that extents, offsets and partial failures are non-trivial.
const (
	sectors    = 12
	sectorSize = 64
)

// payload is a deterministic, sector-specific pattern.
func payload(idx int) []byte {
	out := make([]byte, sectorSize)
	for i := range out {
		out[i] = byte((idx*37 + i*11 + 3) % 256)
	}
	return out
}

// fillAll writes every sector in one vectored call.
func fillAll(t *testing.T, d store.FaultDevice) {
	t.Helper()
	data := make([][]byte, sectors)
	for i := range data {
		data[i] = payload(i)
	}
	if err := d.WriteSectors(context.Background(), 0, data); err != nil {
		t.Fatalf("vectored fill: %v", err)
	}
}

// Run drives the conformance suite against devices built by factory.
func Run(t *testing.T, factory Factory) {
	ctx := context.Background()

	t.Run("Geometry", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		if d.Sectors() != sectors || d.SectorSize() != sectorSize {
			t.Fatalf("geometry %d×%d, want %d×%d", d.Sectors(), d.SectorSize(), sectors, sectorSize)
		}
		if d.Failed() {
			t.Fatal("fresh device reports Failed")
		}
		if got := d.BadSectors(); got != 0 {
			t.Fatalf("fresh device reports %d bad sectors", got)
		}
	})

	t.Run("VectoredRoundTrip", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		fillAll(t, d)
		// Full extent, then an interior extent, through one call each.
		for _, ext := range []struct{ start, count int }{{0, sectors}, {3, 5}, {sectors - 1, 1}} {
			bufs := make([][]byte, ext.count)
			for i := range bufs {
				bufs[i] = make([]byte, sectorSize)
			}
			if err := d.ReadSectors(ctx, ext.start, bufs); err != nil {
				t.Fatalf("read [%d,%d): %v", ext.start, ext.start+ext.count, err)
			}
			for i, buf := range bufs {
				if !bytes.Equal(buf, payload(ext.start+i)) {
					t.Fatalf("sector %d corrupt after vectored round trip", ext.start+i)
				}
			}
		}
		// Empty extents are no-ops.
		if err := d.ReadSectors(ctx, 0, nil); err != nil {
			t.Fatalf("empty read: %v", err)
		}
		if err := d.WriteSectors(ctx, 0, nil); err != nil {
			t.Fatalf("empty write: %v", err)
		}
	})

	t.Run("SingleSectorHelpers", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		if err := store.WriteSector(ctx, d, 7, payload(70)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, sectorSize)
		if err := store.ReadSector(ctx, d, 7, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload(70)) {
			t.Fatal("single-sector round trip corrupt")
		}
	})

	t.Run("OutOfRange", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		bufs := [][]byte{make([]byte, sectorSize), make([]byte, sectorSize)}
		if err := d.ReadSectors(ctx, sectors-1, bufs); err == nil {
			t.Error("read past the end accepted")
		}
		if err := d.WriteSectors(ctx, -1, bufs); err == nil {
			t.Error("negative start accepted")
		}
	})

	t.Run("PartialFailure", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		fillAll(t, d)
		// Two latent errors inside the extent: the vectored read must
		// name exactly those sectors and still fill every readable one.
		for _, idx := range []int{4, 6} {
			if err := d.InjectSectorError(idx); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.BadSectors(); got != 2 {
			t.Fatalf("BadSectors=%d after 2 injections, want 2", got)
		}
		bufs := make([][]byte, 6) // extent [2,8)
		for i := range bufs {
			bufs[i] = make([]byte, sectorSize)
		}
		err := d.ReadSectors(ctx, 2, bufs)
		se, ok := store.AsSectorErrors(err)
		if !ok {
			t.Fatalf("read through bad sectors: %v, want SectorErrors", err)
		}
		if !errors.Is(err, store.ErrBadSector) {
			t.Fatalf("SectorErrors %v does not wrap ErrBadSector", err)
		}
		lost := map[int]bool{}
		for _, e := range se {
			lost[e.Index] = true
		}
		if len(lost) != 2 || !lost[4] || !lost[6] {
			t.Fatalf("lost sectors %v, want exactly {4, 6}", lost)
		}
		for i, buf := range bufs {
			idx := 2 + i
			if lost[idx] {
				continue
			}
			if !bytes.Equal(buf, payload(idx)) {
				t.Fatalf("readable sector %d not filled on partial failure", idx)
			}
		}
	})

	t.Run("Holes", func(t *testing.T) {
		// A nil read buffer is a hole: the device neither writes it nor
		// reports it lost. Both shapes run: carved out of one backing
		// (holes leave it untouched) and scattered.
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		fillAll(t, d)
		for _, idx := range []int{4, 7} {
			if err := d.InjectSectorError(idx); err != nil {
				t.Fatal(err)
			}
		}
		const sentinel = 0xEE
		read := func(shape string, start int, holes ...int) ([][]byte, []byte, error) {
			t.Helper()
			flat := make([]byte, 8*sectorSize)
			for i := range flat {
				flat[i] = sentinel
			}
			bufs := make([][]byte, 8)
			for i := range bufs {
				if shape == "contiguous" {
					bufs[i] = flat[i*sectorSize : (i+1)*sectorSize]
				} else {
					bufs[i] = make([]byte, sectorSize)
				}
			}
			for _, h := range holes {
				bufs[h-start] = nil
			}
			return bufs, flat, d.ReadSectors(ctx, start, bufs)
		}
		for _, shape := range []string{"contiguous", "scattered"} {
			// Extent [2,10): a leading hole (2), a bad sector under a hole
			// (4), a good one (6) and a trailing hole (9); bad sector 7 is
			// present.
			holes := []int{2, 4, 6, 9}
			bufs, flat, err := read(shape, 2, holes...)
			se, ok := store.AsSectorErrors(err)
			if !ok || len(se) != 1 || se[0].Index != 7 {
				t.Fatalf("%s: read with holes: %v, want exactly sector 7 lost", shape, err)
			}
			for i, buf := range bufs {
				if idx := 2 + i; buf != nil && idx != 7 && !bytes.Equal(buf, payload(idx)) {
					t.Fatalf("%s: present sector %d not filled beside holes", shape, idx)
				}
			}
			untouched := bytes.Repeat([]byte{sentinel}, sectorSize)
			for _, h := range holes {
				if shape == "contiguous" && !bytes.Equal(flat[(h-2)*sectorSize:(h-1)*sectorSize], untouched) {
					t.Fatalf("hole at sector %d was written", h)
				}
			}
			// The only bad sectors of [3,11) but 7 sit under holes.
			if _, _, err := read(shape, 3, 4, 7); err != nil {
				t.Fatalf("%s: read whose bad sectors are all holes: %v, want nil", shape, err)
			}
		}
		// Writes take no holes.
		if err := d.WriteSectors(ctx, 0, [][]byte{payload(100), nil}); err == nil {
			t.Fatal("write with a nil buffer accepted")
		}
		buf := make([]byte, sectorSize)
		if err := store.ReadSector(ctx, d, 0, buf); err != nil || !bytes.Equal(buf, payload(0)) {
			t.Fatalf("sector 0 after a refused write: %v", err)
		}
		// A wholly failed device fails the call, holes or not.
		if err := d.Fail(); err != nil {
			t.Fatal(err)
		}
		_, _, err := read("scattered", 2, 2, 4)
		if !errors.Is(err, store.ErrDeviceFailed) {
			t.Fatalf("read with holes on a failed device: %v, want ErrDeviceFailed", err)
		}
		if _, ok := store.AsSectorErrors(err); ok {
			t.Fatal("whole-device failure reported as per-sector SectorErrors")
		}
	})

	t.Run("HealOnWrite", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		fillAll(t, d)
		if err := d.InjectSectorError(5); err != nil {
			t.Fatal(err)
		}
		// A vectored write covering the bad sector heals it.
		if err := d.WriteSectors(ctx, 4, [][]byte{payload(40), payload(50), payload(60)}); err != nil {
			t.Fatalf("healing write: %v", err)
		}
		if got := d.BadSectors(); got != 0 {
			t.Fatalf("BadSectors=%d after healing write, want 0", got)
		}
		buf := make([]byte, sectorSize)
		if err := store.ReadSector(ctx, d, 5, buf); err != nil {
			t.Fatalf("read after heal: %v", err)
		}
		if !bytes.Equal(buf, payload(50)) {
			t.Fatal("healed sector holds stale data")
		}
	})

	t.Run("FailStop", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		fillAll(t, d)
		if err := d.Fail(); err != nil {
			t.Fatal(err)
		}
		if !d.Failed() {
			t.Fatal("Failed() false after Fail")
		}
		bufs := [][]byte{make([]byte, sectorSize)}
		err := d.ReadSectors(ctx, 0, bufs)
		if !errors.Is(err, store.ErrDeviceFailed) {
			t.Fatalf("read on failed device: %v, want ErrDeviceFailed", err)
		}
		if _, ok := store.AsSectorErrors(err); ok {
			t.Fatal("whole-device failure reported as per-sector SectorErrors")
		}
		if err := d.WriteSectors(ctx, 0, [][]byte{payload(0)}); !errors.Is(err, store.ErrDeviceFailed) {
			t.Fatalf("write on failed device: %v, want ErrDeviceFailed", err)
		}
		// The store's Sync barrier skips a device on exactly this answer;
		// any other error would fail the caller's Sync over a device it
		// has already given up on.
		if sy, ok := d.(store.Syncer); ok {
			if err := sy.Sync(ctx); err != nil && !errors.Is(err, store.ErrDeviceFailed) {
				t.Fatalf("sync on failed device: %v, want ErrDeviceFailed (or nil, for a backend with no durability)", err)
			}
		}
	})

	t.Run("ReplaceComesBackBad", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		fillAll(t, d)
		if err := d.Fail(); err != nil {
			t.Fatal(err)
		}
		if err := d.Replace(); err != nil {
			t.Fatal(err)
		}
		if d.Failed() {
			t.Fatal("Failed() true after Replace")
		}
		// The replacement holds no data: every sector must read bad
		// until something is written back.
		if got := d.BadSectors(); got != sectors {
			t.Fatalf("BadSectors=%d after Replace, want all %d", got, sectors)
		}
		bufs := make([][]byte, sectors)
		for i := range bufs {
			bufs[i] = make([]byte, sectorSize)
		}
		err := d.ReadSectors(ctx, 0, bufs)
		se, ok := store.AsSectorErrors(err)
		if !ok {
			t.Fatalf("read of unwritten replacement: %v, want SectorErrors", err)
		}
		if len(se) != sectors {
			t.Fatalf("%d sectors lost on fresh replacement, want all %d", len(se), sectors)
		}
		// A rebuild write restores exactly what it covers.
		if err := store.WriteSector(ctx, d, 3, payload(30)); err != nil {
			t.Fatal(err)
		}
		if got := d.BadSectors(); got != sectors-1 {
			t.Fatalf("BadSectors=%d after one rebuild write, want %d", got, sectors-1)
		}
		buf := make([]byte, sectorSize)
		if err := store.ReadSector(ctx, d, 3, buf); err != nil {
			t.Fatalf("read of rebuilt sector: %v", err)
		}
		if !bytes.Equal(buf, payload(30)) {
			t.Fatal("rebuilt sector corrupt")
		}
	})

	t.Run("Sync", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		sy, ok := d.(store.Syncer)
		if !ok {
			t.Skip("backend has no Syncer capability")
		}
		fillAll(t, d)
		// A healthy device syncs cleanly, and the barrier must not
		// disturb the payload.
		if err := sy.Sync(ctx); err != nil {
			t.Fatalf("sync on healthy device: %v", err)
		}
		buf := make([]byte, sectorSize)
		if err := store.ReadSector(ctx, d, 2, buf); err != nil {
			t.Fatalf("read after sync: %v", err)
		}
		if !bytes.Equal(buf, payload(2)) {
			t.Fatal("sector corrupt after sync")
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := sy.Sync(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("sync with cancelled ctx: %v, want context.Canceled", err)
		}
	})

	// contiguousBufs carves count sector buffers out of one flat backing
	// without capacity caps — the shape a stripe slab extent has, which
	// is what triggers the zero-copy fast paths in backends that have
	// them. The ownership subtests run both shapes so a backend cannot
	// pass with a retention bug hiding in either path.
	contiguousBufs := func(count int) ([][]byte, []byte) {
		flat := make([]byte, count*sectorSize)
		bufs := make([][]byte, count)
		for i := range bufs {
			bufs[i] = flat[i*sectorSize : (i+1)*sectorSize]
		}
		return bufs, flat
	}

	t.Run("WriteBufferOwnership", func(t *testing.T) {
		// Once WriteSectors returns (without a cancellation error), the
		// caller owns its buffers again: the device must have taken a
		// copy (or completed the I/O), so mutating them afterwards must
		// not change what the device stores.
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		fillAll(t, d)
		check := func(start int, data [][]byte, label string) {
			t.Helper()
			if err := d.WriteSectors(ctx, start, data); err != nil {
				t.Fatalf("%s write: %v", label, err)
			}
			for _, buf := range data {
				for i := range buf {
					buf[i] = 0xFF
				}
			}
			got := make([][]byte, len(data))
			for i := range got {
				got[i] = make([]byte, sectorSize)
			}
			if err := d.ReadSectors(ctx, start, got); err != nil {
				t.Fatalf("%s read-back: %v", label, err)
			}
			for i, buf := range got {
				if !bytes.Equal(buf, payload(100+start+i)) {
					t.Fatalf("%s: sector %d changed after the caller mutated its write buffer", label, start+i)
				}
			}
		}
		scattered := make([][]byte, 4)
		for i := range scattered {
			scattered[i] = payload(100 + 2 + i)
		}
		check(2, scattered, "scattered")
		cbufs, _ := contiguousBufs(4)
		for i := range cbufs {
			copy(cbufs[i], payload(100+6+i))
		}
		check(6, cbufs, "contiguous")
	})

	t.Run("ReadBufferOwnership", func(t *testing.T) {
		// Symmetrically for reads: after ReadSectors returns, the
		// buffers are the caller's to scribble on — the device must not
		// have aliased them into its own state, so mutating them must
		// not corrupt later reads.
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		fillAll(t, d)
		for _, shape := range []string{"contiguous", "scattered"} {
			var bufs [][]byte
			if shape == "contiguous" {
				bufs, _ = contiguousBufs(sectors)
			} else {
				bufs = make([][]byte, sectors)
				for i := range bufs {
					bufs[i] = make([]byte, sectorSize)
				}
			}
			if err := d.ReadSectors(ctx, 0, bufs); err != nil {
				t.Fatalf("%s read: %v", shape, err)
			}
			for _, buf := range bufs {
				for i := range buf {
					buf[i] = 0xAA
				}
			}
			got := make([][]byte, sectors)
			for i := range got {
				got[i] = make([]byte, sectorSize)
			}
			if err := d.ReadSectors(ctx, 0, got); err != nil {
				t.Fatalf("%s re-read: %v", shape, err)
			}
			for i, buf := range got {
				if !bytes.Equal(buf, payload(i)) {
					t.Fatalf("%s: sector %d corrupt after the caller mutated its read buffers", shape, i)
				}
			}
		}
	})

	t.Run("ContextCancelled", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		fillAll(t, d)
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		bufs := [][]byte{make([]byte, sectorSize)}
		err := d.ReadSectors(cancelled, 0, bufs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("read with cancelled ctx: %v, want context.Canceled", err)
		}
		if _, ok := store.AsSectorErrors(err); ok {
			t.Fatal("cancellation reported as per-sector SectorErrors")
		}
		if err := d.WriteSectors(cancelled, 0, [][]byte{payload(0)}); !errors.Is(err, context.Canceled) {
			t.Fatalf("write with cancelled ctx: %v, want context.Canceled", err)
		}
		// The device must remain usable with a live context.
		if err := d.ReadSectors(ctx, 0, bufs); err != nil {
			t.Fatalf("read after cancelled call: %v", err)
		}
	})
}

// RunDurable is Run for backends whose Sync reaches stable storage — a
// FileDevice, and whatever forwards to one, over the wire included. On
// top of Run it holds them to the answer the store's Sync barrier relies
// on: a wholly failed device answers Sync with ErrDeviceFailed, as it
// does reads and writes, and a replaced one syncs cleanly again.
func RunDurable(t *testing.T, factory Factory) {
	Run(t, factory)
	t.Run("SyncFailed", func(t *testing.T) {
		d := factory(t, sectors, sectorSize)
		defer d.Close()
		sy, ok := d.(store.Syncer)
		if !ok {
			t.Fatalf("%T has no Syncer capability", d)
		}
		ctx := context.Background()
		fillAll(t, d)
		if err := d.Fail(); err != nil {
			t.Fatal(err)
		}
		if err := sy.Sync(ctx); !errors.Is(err, store.ErrDeviceFailed) {
			t.Fatalf("sync on failed device: %v, want ErrDeviceFailed", err)
		}
		if err := d.Replace(); err != nil {
			t.Fatal(err)
		}
		if err := sy.Sync(ctx); err != nil {
			t.Fatalf("sync on replaced device: %v", err)
		}
	})
}
