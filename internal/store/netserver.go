package store

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stair/internal/store/mem"
)

// DeviceServerMetrics is the JSON shape of a device server's
// /v1/metrics endpoint: cumulative request counters since process
// start, plus the device's current fault state.
type DeviceServerMetrics struct {
	Reads          uint64 `json:"reads"`
	Writes         uint64 `json:"writes"`
	Syncs          uint64 `json:"syncs"`
	ReadSectors    uint64 `json:"read_sectors"`
	WrittenSectors uint64 `json:"written_sectors"`
	ReadErrors     uint64 `json:"read_errors"`
	WriteErrors    uint64 `json:"write_errors"`
	LostSectors    uint64 `json:"lost_sectors"`
	Failed         bool   `json:"failed"`
	BadSectors     int    `json:"bad_sectors"`
}

// DeviceServer exports a Device to NetDevice clients: geometry, metrics
// and fault control over HTTP, reads, writes and syncs as frames on
// upgraded connections (the protocol is described in netdev.go). Fault
// endpoints work when the wrapped device implements FaultDevice.
type DeviceServer struct {
	dev Device
	mux *http.ServeMux

	reads, writes, syncs        atomic.Uint64
	readSectors, writtenSectors atomic.Uint64
	readErrors, writeErrors     atomic.Uint64
	lostSectors                 atomic.Uint64

	// Open frame sessions, whether the watchdog runs, and whether
	// Shutdown has begun. wg counts the sessions' goroutines and the
	// watchdog.
	mu       sync.Mutex
	sessions map[*frameSession]struct{}
	watching bool
	closed   bool
	wg       sync.WaitGroup
}

// NewDeviceServer builds the HTTP handler exporting dev. Frame
// connections are hijacked, so net/http neither closes nor waits for
// them: Shutdown does.
func NewDeviceServer(dev Device) *DeviceServer {
	s := &DeviceServer{dev: dev, mux: http.NewServeMux(), sessions: map[*frameSession]struct{}{}}
	s.mux.HandleFunc("GET /v1/geometry", s.handleGeometry)
	s.mux.HandleFunc("GET "+framePath, s.handleFrames)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/fault/fail", s.handleFaultOp)
	s.mux.HandleFunc("POST /v1/fault/replace", s.handleFaultOp)
	s.mux.HandleFunc("POST /v1/fault/inject", s.handleFaultOp)
	s.mux.HandleFunc("GET /v1/fault", s.handleFaultStatus)
	return s
}

// Metrics snapshots the server's request counters and fault state.
func (s *DeviceServer) Metrics() DeviceServerMetrics {
	m := DeviceServerMetrics{
		Reads:          s.reads.Load(),
		Writes:         s.writes.Load(),
		Syncs:          s.syncs.Load(),
		ReadSectors:    s.readSectors.Load(),
		WrittenSectors: s.writtenSectors.Load(),
		ReadErrors:     s.readErrors.Load(),
		WriteErrors:    s.writeErrors.Load(),
		LostSectors:    s.lostSectors.Load(),
	}
	if fd, ok := s.dev.(FaultDevice); ok {
		m.Failed = fd.Failed()
		m.BadSectors = fd.BadSectors()
	}
	return m
}

func (s *DeviceServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Metrics())
}

// ServeHTTP implements http.Handler.
func (s *DeviceServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *DeviceServer) handleGeometry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, netGeometry{Sectors: s.dev.Sectors(), SectorSize: s.dev.SectorSize()})
}

// handleFrames upgrades the connection to frames and serves it until
// the client closes it, sends a malformed request, or the DeviceServer
// shuts down.
func (s *DeviceServer) handleFrames(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), frameProtocol) {
		w.Header().Set("Upgrade", frameProtocol)
		http.Error(w, "frames need Upgrade: "+frameProtocol, http.StatusUpgradeRequired)
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer conn.Close()
	// Hijack leaves the server's read and write deadlines in place.
	if conn.SetDeadline(time.Time{}) != nil {
		return
	}
	brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + frameProtocol + "\r\n\r\n")
	if brw.Flush() != nil {
		return
	}
	s.serveFrames(r.Context(), conn, brw.Reader)
}

// frameSession is the server side of one frame connection.
type frameSession struct {
	conn   net.Conn
	cancel context.CancelFunc
	// state is a call counter << 2 | watched << 1 | in a call. The
	// watchdog starts a watch by a compare-and-swap on the state of the
	// call it saw running, so no watch starts once that call is over.
	state atomic.Uint64
	seen  uint64     // state at the watchdog's previous tick; the watchdog's own
	done  chan error // the watch's read ended; nil when stopWatch ended it
	next  [1]byte    // a byte the watch read: the start of the next request
	got   bool
}

// track registers a frame session, counted in wg until untrack, and
// starts the server's watchdog if it is not running. It reports false,
// and the caller drops the connection, once Shutdown has begun.
func (s *DeviceServer) track(fs *frameSession) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.sessions[fs] = struct{}{}
	s.wg.Add(1)
	if !s.watching {
		s.watching = true
		s.wg.Add(1)
		go s.watchdog()
	}
	return true
}

func (s *DeviceServer) untrack(fs *frameSession) {
	s.mu.Lock()
	delete(s.sessions, fs)
	s.mu.Unlock()
	s.wg.Done()
}

// Shutdown refuses new frame upgrades, closes every frame connection and
// cancels its device call, and returns once the sessions' goroutines and
// the watchdog have exited, or with ctx's error. Call it after the
// http.Server's own Shutdown, which neither closes nor waits for the
// connections it hijacked for frames.
func (s *DeviceServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for fs := range s.sessions {
		fs.cancel()
		fs.conn.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// watchTick is the watchdog's tick: a device call it sees running at two
// ticks in a row gets a watch.
const watchTick = 10 * time.Millisecond

// watchdog runs while the server has frame sessions. A watch is a read
// on the connection beside the device call, which cancels the session's
// context if the client goes away. Watching every call would cost each
// round trip a goroutine hand-off or a timer, most of what a round trip
// to a fast device costs, so only calls that outlive a tick are
// watched.
func (s *DeviceServer) watchdog() {
	defer s.wg.Done()
	t := time.NewTicker(watchTick)
	defer t.Stop()
	for range t.C {
		s.mu.Lock()
		if len(s.sessions) == 0 {
			s.watching = false
			s.mu.Unlock()
			return
		}
		for fs := range s.sessions {
			st := fs.state.Load()
			if st&3 == 1 && st == fs.seen && fs.state.CompareAndSwap(st, st|2) {
				go fs.watch()
			}
			fs.seen = st
		}
		s.mu.Unlock()
	}
}

func (fs *frameSession) watch() {
	n, err := fs.conn.Read(fs.next[:])
	switch {
	case n == 1:
		fs.got, err = true, nil
	case errors.Is(err, os.ErrDeadlineExceeded):
		err = nil
	default:
		fs.cancel()
	}
	fs.done <- err
}

// stopWatch ends the watch of a call that returned. An error means the
// client went away.
func (fs *frameSession) stopWatch() error {
	fs.conn.SetReadDeadline(time.Unix(1, 0))
	err := <-fs.done
	if derr := fs.conn.SetReadDeadline(time.Time{}); err == nil {
		err = derr
	}
	return err
}

// serveFrames serves one frame connection, a call at a time, until the
// client closes it or sends a malformed request. The device calls run
// under one context, cancelled when the connection ends.
func (s *DeviceServer) serveFrames(ctx context.Context, conn net.Conn, br *bufio.Reader) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fs := &frameSession{conn: conn, cancel: cancel, done: make(chan error, 1)}
	if !s.track(fs) {
		return
	}
	defer s.untrack(fs)
	fw := frameWriter{conn: conn}
	var vec [][]byte
	var h [reqHeaderLen]byte
	for call := uint64(4); ; call += 4 {
		off := 0
		if fs.got {
			h[0], off, fs.got = fs.next[0], 1, false
		}
		if _, err := io.ReadFull(br, h[off:]); err != nil {
			return
		}
		req, err := parseRequest(&h, s.dev.Sectors(), s.dev.SectorSize())
		if err != nil {
			fw.sendError(statusBadRequest, err)
			return
		}
		var body []byte
		if req.op == opWrite {
			body = mem.Acquire(req.count * s.dev.SectorSize())
			if _, err := io.ReadFull(br, body); err != nil {
				mem.Release(body)
				return
			}
		}
		// A watch reads the connection itself, so it may run only while
		// nothing of the stream waits in br.
		if br.Buffered() == 0 {
			fs.state.Store(call | 1)
		}
		err = s.exec(ctx, &fw, req, body, &vec)
		if fs.state.Swap(call)&2 != 0 {
			if werr := fs.stopWatch(); err == nil {
				err = werr
			}
		}
		if err != nil {
			return
		}
	}
}

// exec runs one call against the device and writes its response. A
// pooled flat goes back to the pool unless the call was cancelled
// mid-device-call: an abandoned inner operation may still reference it.
func (s *DeviceServer) exec(ctx context.Context, fw *frameWriter, req frameRequest, body []byte, vec *[][]byte) error {
	size := s.dev.SectorSize()
	switch req.op {
	case opSync:
		s.syncs.Add(1)
		return fw.answer(SyncDevice(ctx, s.dev), nil)
	case opWrite:
		defer func() {
			if ctx.Err() == nil {
				mem.Release(body)
			}
		}()
		s.writes.Add(1)
		s.writtenSectors.Add(uint64(req.count))
		err := s.dev.WriteSectors(ctx, req.start, splitFlat(vec, body, size))
		if failed, ok := AsSectorErrors(err); ok {
			s.lostSectors.Add(uint64(len(failed)))
		} else if err != nil {
			s.writeErrors.Add(1)
		}
		return fw.answer(err, nil)
	}
	// The flat is zeroed because the protocol promises lost sectors come
	// back as zeros; the device leaves their buffers untouched.
	flat := mem.Acquire(req.count * size)
	clear(flat)
	defer func() {
		if ctx.Err() == nil {
			mem.Release(flat)
		}
	}()
	s.reads.Add(1)
	s.readSectors.Add(uint64(req.count))
	err := s.dev.ReadSectors(ctx, req.start, splitFlat(vec, flat, size))
	if lost, ok := AsSectorErrors(err); ok {
		s.lostSectors.Add(uint64(len(lost)))
		return fw.answer(err, flat)
	}
	if err != nil {
		s.readErrors.Add(1)
		return fw.answer(err, nil)
	}
	return fw.answer(nil, flat)
}

// splitFlat cuts flat into sector buffers, reusing *vec's backing array.
func splitFlat(vec *[][]byte, flat []byte, size int) [][]byte {
	v := (*vec)[:0]
	for off := 0; off < len(flat); off += size {
		v = append(v, flat[off:off+size])
	}
	*vec = v
	return v
}

func (s *DeviceServer) handleFaultOp(w http.ResponseWriter, r *http.Request) {
	fd, ok := s.dev.(FaultDevice)
	if !ok {
		http.Error(w, "device does not support fault injection", http.StatusNotImplemented)
		return
	}
	var err error
	switch {
	case strings.HasSuffix(r.URL.Path, "/fail"):
		err = fd.Fail()
	case strings.HasSuffix(r.URL.Path, "/replace"):
		err = fd.Replace()
	default:
		var sector int
		if sector, err = strconv.Atoi(r.URL.Query().Get("sector")); err != nil {
			http.Error(w, "bad sector", http.StatusBadRequest)
			return
		}
		err = fd.InjectSectorError(sector)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *DeviceServer) handleFaultStatus(w http.ResponseWriter, r *http.Request) {
	fd, ok := s.dev.(FaultDevice)
	if !ok {
		http.Error(w, "device does not support fault injection", http.StatusNotImplemented)
		return
	}
	writeJSON(w, netFaultStatus{Failed: fd.Failed(), BadSectors: fd.BadSectors()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
