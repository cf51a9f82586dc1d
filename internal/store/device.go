package store

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Sector-level device errors. The store treats any lost sector as
// degraded state and serves the request through the degraded-read path;
// these two are what the built-in backends report.
var (
	// ErrDeviceFailed reports I/O against a device marked wholly failed.
	ErrDeviceFailed = errors.New("store: device failed")
	// ErrBadSector reports a latent sector error: the device's internal
	// ECC rejected the sector (the paper's fail-stop sector model, §2).
	ErrBadSector = errors.New("store: bad sector")
)

// isDown reports whether a device call's error says the device is wholly
// failed (see FaultDevice.Failed). SectorErrors never does, and skips
// errors.Is, whose walk of its Unwrap allocates.
func isDown(err error) bool {
	_, partial := err.(SectorErrors)
	return !partial && errors.Is(err, ErrDeviceFailed)
}

// SectorError identifies one lost sector within a vectored operation:
// Index is the absolute sector index on the device, Err the per-sector
// cause (typically wrapping ErrBadSector).
type SectorError struct {
	Index int
	Err   error
}

func (e SectorError) Error() string { return fmt.Sprintf("sector %d: %v", e.Index, e.Err) }

// Unwrap exposes the per-sector cause to errors.Is/As.
func (e SectorError) Unwrap() error { return e.Err }

// SectorErrors is the partial-failure result of a vectored call: the
// operation completed for every sector not listed, and each listed
// sector failed individually. A vectored read that returns SectorErrors
// has filled every readable buffer — the caller learns exactly which
// sectors were lost without losing the rest of the extent, which is
// what the store's degraded-read path consumes directly.
//
// Whole-call failures (cancelled context, wholly failed device,
// transport errors) are returned as ordinary errors instead, and say
// nothing about individual sectors.
type SectorErrors []SectorError

func (e SectorErrors) Error() string {
	if len(e) == 1 {
		return e[0].Error()
	}
	idx := make([]string, len(e))
	for i, se := range e {
		idx[i] = strconv.Itoa(se.Index)
	}
	return fmt.Sprintf("%d lost sectors (%s)", len(e), strings.Join(idx, ","))
}

// has reports whether the device sector idx is among the failed ones —
// a scan, for the handful of sectors a partial failure lists.
func (e SectorErrors) has(idx int) bool {
	for _, se := range e {
		if se.Index == idx {
			return true
		}
	}
	return false
}

// Unwrap exposes the per-sector errors to errors.Is/As (Go 1.20
// multi-error matching: errors.Is(errs, ErrBadSector) holds when any
// listed sector wraps it).
func (e SectorErrors) Unwrap() []error {
	out := make([]error, len(e))
	for i, se := range e {
		out[i] = se
	}
	return out
}

// AsSectorErrors unpacks an error returned by a vectored device call:
// ok reports whether it is a per-sector partial failure (as opposed to
// a whole-call failure or nil). nil and an unwrapped SectorErrors — what
// every built-in backend returns — are answered without errors.As, whose
// target variable is heap-allocated even when there is nothing to find.
func AsSectorErrors(err error) (SectorErrors, bool) {
	if err == nil {
		return nil, false
	}
	if se, ok := err.(SectorErrors); ok {
		return se, true
	}
	var se SectorErrors
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

// Device is a sector-addressed storage backend: Sectors() fixed-size
// sectors of SectorSize() bytes each, accessed through vectored,
// context-aware calls over contiguous extents — one call per device per
// stripe on the store's hot paths, which is what makes remote backends
// (one round trip per extent, not per sector) viable. Its optional
// capabilities are Syncer, Remoter, Corrupter and FaultDevice.
//
// Contract, shared by every implementation and enforced by the devtest
// conformance suite:
//
//   - ReadSectors fills bufs[i] (each SectorSize bytes) with sector
//     start+i. A nil bufs[i] is a hole: the caller does not want sector
//     start+i, and the device neither writes it nor reports it lost, so
//     one call can land a column's scattered rows. Individually lost
//     sectors are reported as SectorErrors while every readable buffer
//     is still filled; whole-call failures (ctx cancelled, device wholly
//     failed, transport down) return any other error, holes or not, and
//     leave the buffers unspecified.
//   - WriteSectors stores data[i] at sector start+i; no entry may be nil.
//     A successful write heals a previously bad sector. Sectors that
//     individually fail to land are reported as SectorErrors; the rest
//     are durably written.
//   - Both honor ctx cancellation and deadlines: a cancelled context
//     aborts the call promptly with ctx.Err() (possibly wrapped).
//   - Implementations must be safe for concurrent use: the store's
//     scrubber and repair workers run in background goroutines, and
//     fault injection can race with reads.
type Device interface {
	// Sectors returns the device capacity in sectors.
	Sectors() int
	// SectorSize returns the sector payload size in bytes.
	SectorSize() int
	// ReadSectors fills bufs with the extent [start, start+len(bufs)).
	ReadSectors(ctx context.Context, start int, bufs [][]byte) error
	// WriteSectors stores data at the extent [start, start+len(data)).
	WriteSectors(ctx context.Context, start int, data [][]byte) error
	// Close releases backing resources and ends the device's calls: one
	// in flight or made after it returns without waiting on a peer that
	// stalls. The store's Close closes its devices and then waits out the
	// primaries its hedged reads left on them.
	Close() error
}

// Syncer is an optional Device capability: Sync makes every previously
// acknowledged write durable — fsync for file-backed devices, a sync
// round trip for remote ones. The store's Sync durability barrier calls
// it on every device that implements it; devices that do not (e.g. the
// in-memory backend, which has no durability to offer) are skipped.
// Wrapper backends forward Sync to the wrapped device. A wholly failed
// device answers Sync with ErrDeviceFailed, as it does reads and writes,
// and the barrier skips it on that answer; a backend with no durability
// to offer may answer nil instead, having nothing to lose.
type Syncer interface {
	Sync(ctx context.Context) error
}

// Remoter is an optional Device capability: Remote reports true when the
// device's calls wait on a round trip, as a network client's do. Open
// asks it once; the store overlaps a stripe phase's calls to such devices
// (see wave.go) and runs others inline. A wrapper answers for itself.
type Remoter interface {
	Remote() bool
}

// SyncDevice syncs d when it implements Syncer, and is a no-op
// otherwise (bar the context check, so wrappers forwarding Sync keep
// uniform cancellation semantics over non-Syncer inners).
func SyncDevice(ctx context.Context, d Device) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if sy, ok := d.(Syncer); ok {
		return sy.Sync(ctx)
	}
	return nil
}

// ReadSector reads one sector through a device's vectored interface. A
// lost sector surfaces as SectorErrors of length one.
func ReadSector(ctx context.Context, d Device, idx int, buf []byte) error {
	return d.ReadSectors(ctx, idx, [][]byte{buf})
}

// WriteSector writes one sector through a device's vectored interface.
func WriteSector(ctx context.Context, d Device, idx int, data []byte) error {
	return d.WriteSectors(ctx, idx, [][]byte{data})
}

// FaultDevice extends Device with the fault-injection hooks the store's
// failure handling and the tests drive.
type FaultDevice interface {
	Device
	// Fail marks the whole device failed: every read and write errors
	// with ErrDeviceFailed until Replace. The failure mark is durable
	// (for persistent backends) before the payload is destroyed.
	Fail() error
	// Failed reports whether the device is wholly failed. It is a status
	// query for admin paths (Store.FailedDevices, TotalBadSectors, a
	// device server's metrics), and on a remote backend a round trip of
	// its own. Data paths never ask it: a wholly failed device answers
	// every read, write and sync with ErrDeviceFailed, and the store
	// learns device state from those answers to the I/O it does anyway.
	Failed() bool
	// Replace swaps in a fresh, zeroed device in place of a failed one.
	// Every sector comes back *bad* (unwritten), so reads keep erroring
	// until the rebuild path writes reconstructed content back — a
	// replacement disk holds no data yet.
	Replace() error
	// InjectSectorError marks one sector as a latent sector error and
	// destroys its payload.
	InjectSectorError(idx int) error
	// BadSectors returns the number of latent sector errors present.
	BadSectors() int
}

// checkExtent validates a vectored call's extent against the device
// capacity.
func checkExtent(sectors, start, count int) error {
	if count == 0 {
		return nil
	}
	// Phrased to avoid start+count overflowing int on hostile inputs
	// (a NetDevice server validates remote-supplied extents with this).
	if start < 0 || count < 0 || start >= sectors || count > sectors-start {
		return fmt.Errorf("store: extent of %d sectors at %d out of range [0,%d)", count, start, sectors)
	}
	return nil
}

// checkBufs validates that every buffer of a vectored call holds
// exactly one sector; with holes (a read's), a nil buffer passes too.
func checkBufs(sectorSize int, bufs [][]byte, holes bool) error {
	for i, b := range bufs {
		if len(b) != sectorSize && !(holes && b == nil) {
			return fmt.Errorf("store: buffer %d is %d bytes, want sector size %d", i, len(b), sectorSize)
		}
	}
	return nil
}

// faultState is the failure metadata shared by the built-in backends.
// Its mutex also guards the embedding device's payload, so fault
// injection can never race a payload copy into torn data.
type faultState struct {
	mu     sync.Mutex
	failed bool
	bad    []bool
	nbad   int
}

func newFaultState(sectors int) *faultState {
	return &faultState{bad: make([]bool, sectors)}
}

// lostLocked collects the bad sectors a vectored read of bufs at start
// reports, holes skipped, as SectorErrors allocated once: nil when there
// are none. Callers hold mu.
func (f *faultState) lostLocked(start int, bufs [][]byte) SectorErrors {
	n := 0
	for i, b := range bufs {
		if f.bad[start+i] && b != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	lost := make(SectorErrors, 0, n)
	for i, b := range bufs {
		if f.bad[start+i] && b != nil {
			lost = append(lost, SectorError{Index: start + i, Err: ErrBadSector})
		}
	}
	return lost
}

// healLocked clears a bad mark before a write, reporting whether it did.
// Callers hold mu.
func (f *faultState) healLocked(idx int) bool {
	if f.bad[idx] {
		f.bad[idx] = false
		f.nbad--
		return true
	}
	return false
}

// replaceLocked resets to a fresh device where every sector is unwritten
// (bad). Callers hold mu.
func (f *faultState) replaceLocked() {
	f.failed = false
	for i := range f.bad {
		f.bad[i] = true
	}
	f.nbad = len(f.bad)
}

// injectLocked marks one sector bad. Callers hold mu.
func (f *faultState) injectLocked(idx int) error {
	if idx < 0 || idx >= len(f.bad) {
		return fmt.Errorf("store: sector %d out of range [0,%d)", idx, len(f.bad))
	}
	if !f.bad[idx] {
		f.bad[idx] = true
		f.nbad++
	}
	return nil
}

func (f *faultState) isFailed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed
}

func (f *faultState) badCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nbad
}

// badListLocked lists bad sectors ascending. Callers hold mu.
func (f *faultState) badListLocked() []int {
	var out []int
	for i, b := range f.bad {
		if b {
			out = append(out, i)
		}
	}
	return out
}
