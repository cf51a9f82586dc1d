package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"stair/internal/store/mem"
)

// The frame format of the NetDevice data plane; the protocol comment in
// netdev.go describes it.
const (
	frameProtocol = "stair-frames/1"
	framePath     = "/v1/frames"
	reqHeaderLen  = 24
	respHeaderLen = 8
	// maxFrameMsg caps an error frame's message, so a response header
	// cannot make the client allocate more than this for one.
	maxFrameMsg = 512
)

// Request ops.
const (
	opRead byte = iota + 1
	opWrite
	opSync
)

// Response statuses. statusBroken never goes on the wire: it is what
// the client reports for a connection that failed or sent a malformed
// frame.
const (
	statusOK byte = iota
	statusSectors
	statusDeviceFailed
	statusBadRequest
	statusServerError
	statusBroken byte = 0xff
)

// frameRequest is a request header the server accepted.
type frameRequest struct {
	op           byte
	start, count int
}

// putRequest encodes a request header; body is the length of the
// payload that follows it.
func putRequest(h *[reqHeaderLen]byte, op byte, start, count, body int) {
	*h = [reqHeaderLen]byte{op}
	binary.BigEndian.PutUint32(h[4:], uint32(count))
	binary.BigEndian.PutUint64(h[8:], uint64(start))
	binary.BigEndian.PutUint64(h[16:], uint64(body))
}

// parseRequest validates a request header against a device of the given
// geometry. What it accepts is a read or write of an in-range, non-empty
// extent whose body length matches, or a bare sync, so the server
// allocates nothing for a frame before it passes.
func parseRequest(h *[reqHeaderLen]byte, sectors, size int) (frameRequest, error) {
	op := h[0]
	count := uint64(binary.BigEndian.Uint32(h[4:]))
	start := binary.BigEndian.Uint64(h[8:])
	body := binary.BigEndian.Uint64(h[16:])
	if h[1]|h[2]|h[3] != 0 {
		return frameRequest{}, errors.New("reserved header bytes are not zero")
	}
	switch op {
	case opSync:
		if start|count|body != 0 {
			return frameRequest{}, errors.New("sync frame carries an extent or a body")
		}
		return frameRequest{op: op}, nil
	case opRead, opWrite:
	default:
		return frameRequest{}, fmt.Errorf("unknown op %d", op)
	}
	// Phrased so that no hostile start or count can overflow.
	if count == 0 || start >= uint64(sectors) || count > uint64(sectors)-start {
		return frameRequest{}, fmt.Errorf("extent of %d sectors at %d out of range [0,%d)", count, start, sectors)
	}
	var want uint64
	if op == opWrite {
		want = count * uint64(size)
	}
	if body != want {
		return frameRequest{}, fmt.Errorf("body of %d bytes, want %d", body, want)
	}
	return frameRequest{op: op, start: int(start), count: int(count)}, nil
}

// readResponse reads the response frame of a call on the extent
// [start, start+count); a read's body of count sectors lands in bufs
// (see readBody), which is nil for writes and syncs. A sectors frame
// comes back as SectorErrors wrapping cause, and only after every index
// is checked against the extent: a server cannot report a loss outside
// the call. A read's lost sectors under holes are dropped, and a frame
// that lists only those reads as ok. Any malformed frame or read failure
// is statusBroken.
func (c *frameConn) readResponse(start, count int, bufs [][]byte, cause error) (byte, error) {
	br, h := c.br, &c.resp
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return statusBroken, err
	}
	status, n := h[0], binary.BigEndian.Uint32(h[4:])
	if h[1]|h[2]|h[3] != 0 {
		return statusBroken, errors.New("store: malformed response frame from device server")
	}
	var lost SectorErrors
	switch status {
	case statusOK:
		if n != 0 {
			return statusBroken, fmt.Errorf("store: ok frame from device server carries %d bytes of list", n)
		}
	case statusSectors:
		if n == 0 || uint64(n) > uint64(count) {
			return statusBroken, fmt.Errorf("store: device server listed %d sectors for a %d-sector call", n, count)
		}
		var b [8]byte
		for i := range int(n) {
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return statusBroken, err
			}
			idx := binary.BigEndian.Uint64(b[:])
			if idx < uint64(start) || idx-uint64(start) >= uint64(count) {
				return statusBroken, fmt.Errorf("store: device server listed sector %d outside the call's extent [%d,%d)", idx, start, start+count)
			}
			if bufs != nil && bufs[idx-uint64(start)] == nil {
				continue
			}
			if lost == nil {
				lost = make(SectorErrors, 0, int(n)-i)
			}
			lost = append(lost, SectorError{Index: int(idx), Err: cause})
		}
	case statusDeviceFailed, statusBadRequest, statusServerError:
		if n > maxFrameMsg {
			return statusBroken, fmt.Errorf("store: device server error message of %d bytes", n)
		}
		msg := make([]byte, n)
		if _, err := io.ReadFull(br, msg); err != nil {
			return statusBroken, err
		}
		switch status {
		case statusDeviceFailed:
			// A wholly failed device is a state the control plane must
			// change; the caller never retries it.
			return status, ErrDeviceFailed
		case statusBadRequest:
			return status, fmt.Errorf("store: device server refused the request: %s", msg)
		}
		return status, fmt.Errorf("store: device server: %s", msg)
	default:
		return statusBroken, fmt.Errorf("store: unknown status %d from device server", status)
	}
	if err := c.readBody(bufs); err != nil {
		return statusBroken, fmt.Errorf("store: short read from device server: %w", err)
	}
	if lost != nil {
		return statusSectors, lost
	}
	return statusOK, nil
}

// readBody reads a read's body, every sector of the extent, into bufs in
// place: a run of buffers that tile one region in one read, a scattered
// buffer on its own. A run of holes is read into a pooled sink and
// dropped.
func (c *frameConn) readBody(bufs [][]byte) error {
	var sink []byte
	defer func() { mem.Release(sink) }()
	for i := 0; i < len(bufs); {
		j := i + 1
		for j < len(bufs) && (bufs[j] == nil) == (bufs[i] == nil) {
			j++
		}
		run := bufs[i:j]
		var err error
		if run[0] == nil {
			n := len(run) * c.size
			if cap(sink) < n {
				mem.Release(sink)
				sink = mem.Acquire(n)
			}
			_, err = io.ReadFull(c.br, sink[:n])
		} else if flat, ok := flatSpan(run); ok {
			_, err = io.ReadFull(c.br, flat)
		} else {
			for _, b := range run {
				if _, err = io.ReadFull(c.br, b); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
		i = j
	}
	return nil
}

// frameWriter writes a server connection's response frames, each as one
// vectored write, reusing its header and index buffers across calls.
type frameWriter struct {
	conn net.Conn
	hdr  [respHeaderLen]byte
	list []byte
	bufs [3][]byte
	vec  net.Buffers
}

// send writes one frame: n counts the indexes of a sectors frame, or
// the bytes of an error frame's message, both carried in list.
func (fw *frameWriter) send(status byte, n int, list, body []byte) error {
	fw.hdr = [respHeaderLen]byte{status}
	binary.BigEndian.PutUint32(fw.hdr[4:], uint32(n))
	fw.bufs = [3][]byte{fw.hdr[:], list, body}
	fw.vec = fw.bufs[:]
	_, err := fw.vec.WriteTo(fw.conn)
	return err
}

// sendError answers a call that failed as a whole.
func (fw *frameWriter) sendError(status byte, err error) error {
	msg := err.Error()
	if len(msg) > maxFrameMsg {
		msg = msg[:maxFrameMsg]
	}
	return fw.send(status, len(msg), []byte(msg), nil)
}

// answer writes the response to a device call's outcome; body is a
// read's payload, sent whenever the read delivered data.
func (fw *frameWriter) answer(err error, body []byte) error {
	if err == nil {
		return fw.send(statusOK, 0, nil, body)
	}
	if lost, ok := AsSectorErrors(err); ok {
		fw.list = fw.list[:0]
		for _, se := range lost {
			fw.list = binary.BigEndian.AppendUint64(fw.list, uint64(se.Index))
		}
		return fw.send(statusSectors, len(lost), fw.list, body)
	}
	if errors.Is(err, ErrDeviceFailed) {
		return fw.sendError(statusDeviceFailed, err)
	}
	return fw.sendError(statusServerError, err)
}
