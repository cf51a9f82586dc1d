package store

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stair/internal/store/mem"
)

// The NetDevice wire protocol. Geometry, metrics and fault control are
// HTTP requests:
//
//	GET  /v1/geometry            → {"sectors":N,"sector_size":S}
//	GET  /v1/metrics             → DeviceServerMetrics
//	POST /v1/fault/{fail,replace,inject?sector=N}
//	GET  /v1/fault               → {"failed":bool,"bad_sectors":N}
//
// Reads, writes and syncs are binary frames. A client opens a frame
// connection with GET /v1/frames carrying Connection: Upgrade and
// Upgrade: stair-frames/1; the server answers 101 Switching Protocols
// and from then on the connection carries one call at a time, a request
// frame and then its response frame, integers big-endian:
//
//	request:  op u8 | 0 u8×3 | count u32 | start u64 | body u64 | body
//	response: status u8 | 0 u8×3 | n u32 | list | body
//
// op is read (1), write (2) or sync (3). A write's body is its count×S
// bytes; reads and syncs carry none, and a sync's extent is 0, 0. The
// response status is ok (0); sectors (1), whose list is the n absolute
// u64 indexes of the sectors lost (a read) or not landed (a write); or
// device-failed (2), bad-request (3) or server-error (4), whose list is
// an n-byte message. A read answered ok or sectors carries count×S
// bytes of body, lost sectors zeroed; no other response has a body. A
// malformed request is answered bad-request before its body is read or
// anything is allocated for it, and the server then closes the
// connection. A client that closes a connection mid-call cancels the
// context of the device call serving it once that call has run for one
// to two ticks of the server's watchdog (watchTick).

type netGeometry struct {
	Sectors    int `json:"sectors"`
	SectorSize int `json:"sector_size"`
}

type netFaultStatus struct {
	Failed     bool `json:"failed"`
	BadSectors int  `json:"bad_sectors"`
}

// retryPolicy bounds the NetDevice client's retries of transient
// failures: transport errors (connection reset, refused, EOF, a
// malformed frame), server-error frames and 5xx control-plane
// responses. Bad requests (the request itself is wrong),
// ErrDeviceFailed (a state, not a blip) and context cancellation are
// never retried. Sector reads and writes are idempotent, so re-issuing
// a request whose response was lost is safe.
type retryPolicy struct {
	// MaxAttempts is the total number of tries (first call included);
	// values < 1 mean one attempt, i.e. no retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay, with ±50% jitter so a fleet
	// of clients recovering together does not stampede the server.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. 0 means uncapped.
	MaxDelay time.Duration
}

// defaultRetryPolicy is every NetDevice's policy: three attempts, 5 ms
// base backoff, capped at 100 ms.
var defaultRetryPolicy = retryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}

// delay computes the backoff before retry attempt (1-based), with
// jitter.
func (p retryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	// ±50% jitter.
	return d/2 + time.Duration(rand.Int63n(int64(d)+1))
}

// NetDevice is the client of a DeviceServer: a Device (and FaultDevice)
// whose every vectored call is one frame round trip on an upgraded
// connection. It is the remote-backend existence proof for the vectored
// API — with the old one-sector-at-a-time interface, a full-stripe
// flush against it would cost R round trips per device instead of one.
//
// A connection carries one call at a time. Idle connections wait on a
// LIFO stack, and a call upgrades another only when every one is busy,
// so the pool follows the caller's concurrency. A call whose context
// ends closes its connection and returns the context's error. A
// connection goes back on the stack only after a whole, well-formed
// answer of ok, lost sectors or device failed; any other outcome
// closes it, so no late or partial response can reach a later call. A
// call reads into and writes from the caller's buffers in place, and
// nothing touches them after it returns.
//
// Transport errors and server-error answers are retried on a fresh
// connection with exponential backoff per defaultRetryPolicy.
type NetDevice struct {
	base       string
	hc         *http.Client
	sectors    int
	sectorSize int
	retry      retryPolicy   // defaultRetryPolicy; tests shorten it
	retries    atomic.Uint64 // retry attempts issued, first tries excluded
	upgrades   atomic.Uint64 // frame connections opened, the dial's included
	// scratchFlats counts calls that fell back to a gather copy because
	// the caller's buffers were not one contiguous region — the
	// copy-elision tests assert it stays zero for slab-backed extents.
	// Reads never stage: a response body lands in the caller's buffers.
	scratchFlats atomic.Uint64

	mu    sync.Mutex
	idle  []*frameConn            // LIFO
	conns map[*frameConn]struct{} // every open connection, idle or busy
	live  context.Context         // ends at Close, and so do upgrades in flight
	end   context.CancelFunc
}

// errNetClosed answers a frame call that Close ended or that came after it.
var errNetClosed = fmt.Errorf("%w: NetDevice closed", ErrDeviceFailed)

// frameConn is one upgraded connection.
type frameConn struct {
	rwc  io.ReadWriteCloser
	br   *bufio.Reader
	req  [reqHeaderLen]byte
	resp [respHeaderLen]byte
	size int    // the device's sector size, a read body's unit
	kill func() // closes rwc; run by a call whose context ends
}

// roundTrip sends one request frame and reads its response.
func (c *frameConn) roundTrip(op byte, start, count int, body []byte, bufs [][]byte, cause error) (byte, error) {
	putRequest(&c.req, op, start, count, len(body))
	if _, err := c.rwc.Write(c.req[:]); err != nil {
		return statusBroken, err
	}
	if len(body) > 0 {
		if _, err := c.rwc.Write(body); err != nil {
			return statusBroken, err
		}
	}
	return c.readResponse(start, count, bufs, cause)
}

// ScratchFlats reports how many vectored calls fell back to an
// intermediate flat copy instead of using the caller's contiguous
// memory directly.
func (d *NetDevice) ScratchFlats() uint64 { return d.scratchFlats.Load() }

// DialNetDevice connects to a DeviceServer at baseURL (no trailing
// slash needed), fetches its geometry and opens a first frame
// connection. A nil client selects http.DefaultClient. Frame
// connections are upgraded through client, so it must hand a 101
// response's body over as an io.ReadWriteCloser: a client with Timeout
// set does not, and DialNetDevice refuses it. Bound calls with their
// contexts instead.
func DialNetDevice(ctx context.Context, baseURL string, client *http.Client) (*NetDevice, error) {
	if client == nil {
		client = http.DefaultClient
	}
	d := &NetDevice{base: strings.TrimSuffix(baseURL, "/"), hc: client, retry: defaultRetryPolicy,
		conns: map[*frameConn]struct{}{}}
	d.live, d.end = context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/geometry", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.do(req)
	if err != nil {
		return nil, fmt.Errorf("store: dialing device server %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	var geo netGeometry
	if err := json.NewDecoder(resp.Body).Decode(&geo); err != nil {
		return nil, fmt.Errorf("store: device server %s: bad geometry: %w", baseURL, err)
	}
	if geo.Sectors < 1 || geo.SectorSize < 1 {
		return nil, fmt.Errorf("store: device server %s: bad geometry %d×%d", baseURL, geo.Sectors, geo.SectorSize)
	}
	d.sectors, d.sectorSize = geo.Sectors, geo.SectorSize
	c, err, _ := d.get(ctx, true)
	if err != nil {
		return nil, fmt.Errorf("store: dialing device server %s: %w", baseURL, err)
	}
	d.put(c)
	return d, nil
}

// Remote reports true: every call is a round trip (see Remoter).
func (d *NetDevice) Remote() bool { return true }

// Sectors returns the remote device's capacity.
func (d *NetDevice) Sectors() int { return d.sectors }

// SectorSize returns the remote device's sector size.
func (d *NetDevice) SectorSize() int { return d.sectorSize }

// backoff waits out the delay before retry attempt+1, counting the
// retry; a caller cancelling mid-wait ends it at once.
func (d *NetDevice) backoff(ctx context.Context, attempt int) error {
	d.retries.Add(1)
	wait := d.retry.delay(attempt)
	if wait <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// get takes the most recently idle connection, or upgrades a new one
// when all are busy or fresh is set; transient reports whether a failed
// upgrade is worth retrying. Past Close it fails with errNetClosed.
func (d *NetDevice) get(ctx context.Context, fresh bool) (c *frameConn, err error, transient bool) {
	d.mu.Lock()
	if n := len(d.idle); n > 0 && !fresh {
		c = d.idle[n-1]
		d.idle[n-1] = nil
		d.idle = d.idle[:n-1]
		d.mu.Unlock()
		return c, nil, false
	}
	d.mu.Unlock()
	c, err, transient = d.upgrade(ctx)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.live.Err() != nil { // Close ended the upgrade or came after it
		if c != nil {
			c.rwc.Close()
		}
		return nil, errNetClosed, false
	}
	if err == nil {
		d.conns[c] = struct{}{}
	}
	return c, err, transient
}

// put returns a connection to the idle stack, unless Close closed it
// during its call.
func (d *NetDevice) put(c *frameConn) {
	d.mu.Lock()
	if _, open := d.conns[c]; open {
		d.idle = append(d.idle, c)
	}
	d.mu.Unlock()
}

// drop closes a connection for good.
func (d *NetDevice) drop(c *frameConn) {
	c.rwc.Close()
	d.mu.Lock()
	delete(d.conns, c)
	d.mu.Unlock()
}

// upgrade opens a frame connection through the device's HTTP client,
// ending with ctx or at Close.
func (d *NetDevice) upgrade(ctx context.Context) (c *frameConn, err error, transient bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(d.live, cancel)()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+framePath, nil)
	if err != nil {
		return nil, err, false
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", frameProtocol)
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err, true
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("store: device server answered the frame upgrade with %s: %s", resp.Status, strings.TrimSpace(string(msg))), resp.StatusCode >= 500
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok {
		resp.Body.Close()
		return nil, fmt.Errorf("store: the HTTP client hands the upgraded connection over as %T, not an io.ReadWriteCloser (an http.Client with Timeout set does this; leave Timeout zero and bound calls with their contexts)", resp.Body), false
	}
	d.upgrades.Add(1)
	c = &frameConn{rwc: rwc, br: bufio.NewReader(rwc), size: d.sectorSize}
	c.kill = func() { rwc.Close() }
	return c, nil, false
}

// call runs one frame round trip, retrying transient failures on a
// fresh connection per the device's retry policy: idle connections to a
// server that went away are as dead as the one that failed. body is a
// write's payload; bufs receives a read's.
func (d *NetDevice) call(ctx context.Context, op byte, start, count int, body []byte, bufs [][]byte, cause error) error {
	for attempt := 1; ; attempt++ {
		err, transient := d.callOnce(ctx, attempt > 1, op, start, count, body, bufs, cause)
		if !transient || attempt >= d.retry.MaxAttempts {
			return err
		}
		if err := d.backoff(ctx, attempt); err != nil {
			return err
		}
	}
}

// callOnce makes one attempt; transient reports whether a retry on a
// fresh connection could help.
func (d *NetDevice) callOnce(ctx context.Context, fresh bool, op byte, start, count int, body []byte, bufs [][]byte, cause error) (err error, transient bool) {
	if err := ctx.Err(); err != nil {
		return err, false
	}
	c, err, transient := d.get(ctx, fresh)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr, false
		}
		return err, transient
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.kill)
	}
	status, err := c.roundTrip(op, start, count, body, bufs, cause)
	if stop != nil && !stop() {
		// The context ended during the call and closed the connection.
		d.drop(c)
		return ctx.Err(), false
	}
	switch status {
	case statusOK, statusSectors, statusDeviceFailed:
		d.put(c)
		return err, false
	case statusBadRequest:
		d.drop(c)
		return err, false
	}
	d.drop(c)
	if d.live.Err() != nil {
		return errNetClosed, false // Close broke the connection
	}
	return err, true
}

// ReadSectors fetches the extent in one round trip. The body lands in
// the caller's buffers in place, holes' sectors dropped; remotely lost
// sectors come back as SectorErrors wrapping ErrBadSector, those under
// holes dropped, with every readable buffer filled.
func (d *NetDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	if err := checkExtent(d.sectors, start, len(bufs)); err != nil {
		return err
	}
	if err := checkBufs(d.sectorSize, bufs, true); err != nil {
		return err
	}
	if len(bufs) == 0 {
		return ctx.Err()
	}
	return d.call(ctx, opRead, start, len(bufs), nil, bufs, ErrBadSector)
}

// errRemoteWrite is the cause of a sector a remote write did not land.
var errRemoteWrite = errors.New("store: remote write failed")

// WriteSectors stores the extent in one round trip. Sectors the remote
// device could not land come back as SectorErrors.
func (d *NetDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	if err := checkExtent(d.sectors, start, len(data)); err != nil {
		return err
	}
	if err := checkBufs(d.sectorSize, data, false); err != nil {
		return err
	}
	if len(data) == 0 {
		return ctx.Err()
	}
	// A contiguous buffer vector is sent in place; a scattered one is
	// gathered into a pooled flat.
	flat, contiguous := flatSpan(data)
	if !contiguous {
		d.scratchFlats.Add(1)
		flat = mem.Acquire(len(data) * d.sectorSize)
		defer mem.Release(flat)
		off := 0
		for _, buf := range data {
			off += copy(flat[off:], buf)
		}
	}
	return d.call(ctx, opWrite, start, len(data), flat, nil, errRemoteWrite)
}

// Sync asks the server to flush the remote device to stable storage —
// one round trip, implementing the optional Syncer capability for the
// remote backend. A server whose device has no Syncer capability
// answers it at once.
func (d *NetDevice) Sync(ctx context.Context) error {
	return d.call(ctx, opSync, 0, 0, nil, nil, nil)
}

// do runs one control-plane request, retrying transient failures per
// the device's retry policy.
func (d *NetDevice) do(req *http.Request) (*http.Response, error) {
	for attempt := 1; ; attempt++ {
		resp, err, transient := d.doOnce(req)
		if err == nil {
			return resp, nil
		}
		if !transient || attempt >= d.retry.MaxAttempts {
			return nil, err
		}
		if err := d.backoff(req.Context(), attempt); err != nil {
			return nil, err
		}
	}
}

// doOnce issues one attempt; transient reports whether a retry could
// help (transport errors and 5xx).
func (d *NetDevice) doOnce(req *http.Request) (resp *http.Response, err error, transient bool) {
	resp, err = d.hc.Do(req)
	if err != nil {
		// Transport failure. Context cancellation is the caller's
		// decision, not a blip.
		if cerr := req.Context().Err(); cerr != nil {
			return nil, cerr, false
		}
		return nil, err, true
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil, false
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	err = fmt.Errorf("store: device server: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	return nil, err, resp.StatusCode >= 500
}

// Ping probes the server's liveness with one unretried round trip (a
// health check that silently retried would hide exactly the flakiness a
// failure detector exists to count). Any response at all — even an
// error status — proves the process is alive; only transport failure
// (or cancellation) reports it down.
func (d *NetDevice) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/geometry", nil)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	return nil
}

// faultPost issues one control-plane request (no caller context: the
// FaultDevice interface is context-free).
func (d *NetDevice) faultPost(path string) error {
	req, err := http.NewRequest(http.MethodPost, d.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Fail marks the remote device wholly failed.
func (d *NetDevice) Fail() error { return d.faultPost("/v1/fault/fail") }

// Replace swaps in a fresh remote device whose sectors are all bad.
func (d *NetDevice) Replace() error { return d.faultPost("/v1/fault/replace") }

// InjectSectorError marks one remote sector as a latent error.
func (d *NetDevice) InjectSectorError(idx int) error {
	return d.faultPost(fmt.Sprintf("/v1/fault/inject?sector=%d", idx))
}

// faultStatus fetches the remote fault state; transport errors read as
// a healthy device (the FaultDevice interface has no error channel for
// status queries).
func (d *NetDevice) faultStatus() netFaultStatus {
	req, err := http.NewRequest(http.MethodGet, d.base+"/v1/fault", nil)
	if err != nil {
		return netFaultStatus{}
	}
	resp, err := d.do(req)
	if err != nil {
		return netFaultStatus{}
	}
	defer resp.Body.Close()
	var st netFaultStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return netFaultStatus{}
	}
	return st
}

// Failed reports whether the remote device is wholly failed.
func (d *NetDevice) Failed() bool { return d.faultStatus().Failed }

// BadSectors returns the remote latent-sector-error count.
func (d *NetDevice) BadSectors() int { return d.faultStatus().BadSectors }

// Close closes every frame connection, busy ones included, ends the
// upgrades in flight and closes the client's idle HTTP connections. A
// frame call it broke, or made after it, fails with ErrDeviceFailed;
// the control plane (Ping, the fault calls) still answers.
func (d *NetDevice) Close() error {
	d.mu.Lock()
	d.end()
	for c := range d.conns {
		c.rwc.Close()
	}
	clear(d.conns)
	clear(d.idle)
	d.idle = d.idle[:0]
	d.mu.Unlock()
	d.hc.CloseIdleConnections()
	return nil
}
