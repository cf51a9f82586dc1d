package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

// rawFrameConn opens a frame connection to srv for a test to write
// arbitrary request frames on.
func rawFrameConn(t *testing.T, srv *httptest.Server) *frameConn {
	t.Helper()
	d, err := DialNetDevice(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	c, err, _ := d.upgrade(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.rwc.Close(); d.Close() })
	return c
}

// rawRequest encodes a request header from wire-level fields, which can
// say what putRequest's ints cannot: a negative start or count.
func rawRequest(op byte, start uint64, count uint32, body uint64) []byte {
	h := make([]byte, reqHeaderLen)
	h[0] = op
	binary.BigEndian.PutUint32(h[4:], count)
	binary.BigEndian.PutUint64(h[8:], start)
	binary.BigEndian.PutUint64(h[16:], body)
	return h
}

// TestDeviceServerHostileExtents: remote-supplied extents are validated
// before any allocation — a hostile count (or an overflowing start)
// must come back a bad request, not OOM or panic the exporting process.
func TestDeviceServerHostileExtents(t *testing.T) {
	srv := httptest.NewServer(NewDeviceServer(NewMemDevice(8, 64)))
	t.Cleanup(srv.Close)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"count 1<<30", rawRequest(opRead, 0, 1<<30, 0)},
		{"start MaxInt64", rawRequest(opRead, math.MaxInt64, 1, 0)},
		{"start -1", rawRequest(opRead, math.MaxUint64, 2, 0)},
		{"count -3", rawRequest(opRead, 0, math.MaxUint32-2, 0)},
		// An oversized write is refused without its body being read.
		{"oversized write", rawRequest(opWrite, 0, 9, 9*64)},
		{"body longer than count", rawRequest(opWrite, 0, 1, 1<<40)},
	} {
		c := rawFrameConn(t, srv)
		if _, err := c.rwc.Write(tc.frame); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		status, err := c.readResponse(0, 1, nil, nil)
		if status != statusBadRequest {
			t.Errorf("%s: status %d (%v), want bad request", tc.name, status, err)
		}
		// A refused request ends its connection.
		if _, err := c.br.ReadByte(); err != io.EOF {
			t.Errorf("%s: connection still open after a bad request (%v)", tc.name, err)
		}
	}
}

// TestReadResponseHoles: a read body lands in the caller's buffers in
// place, a run of holes read into the pooled sink and dropped — leading,
// inside and trailing holes, runs of them, and scattered present buffers
// alike, with sectors larger than the connection's read buffer. Holes
// stay untouched; a lost sector under a hole is dropped, and one in a
// present buffer is reported. The whole frame is consumed either way.
func TestReadResponseHoles(t *testing.T) {
	const size, count, start = 32 << 10, 4, 10
	frame := func(lost ...uint64) []byte {
		b := []byte{statusOK, 0, 0, 0, 0, 0, 0, 0}
		if len(lost) > 0 {
			b[0] = statusSectors
			binary.BigEndian.PutUint32(b[4:], uint32(len(lost)))
		}
		for _, idx := range lost {
			b = binary.BigEndian.AppendUint64(b, idx)
		}
		for i := range count {
			b = append(b, bytes.Repeat([]byte{byte(i + 1)}, size)...)
		}
		return b
	}
	const sentinel = 0xEE
	read := func(r *bytes.Reader, c *frameConn, scattered bool, holes []int) ([][]byte, []byte, byte, error) {
		flat := bytes.Repeat([]byte{sentinel}, count*size)
		bufs := make([][]byte, count)
		for i := range bufs {
			if bufs[i] = flat[i*size : (i+1)*size]; scattered {
				bufs[i] = bytes.Clone(bufs[i])
			}
		}
		for _, h := range holes {
			bufs[h] = nil
		}
		c.br.Reset(r)
		status, err := c.readResponse(start, count, bufs, ErrBadSector)
		return bufs, flat, status, err
	}
	for _, tc := range []struct {
		holes []int
		lost  []uint64
		want  []int
	}{
		{[]int{0}, nil, nil},
		{[]int{1}, []uint64{start + 1}, nil},
		{[]int{1, 2}, []uint64{start + 1, start + 3}, []int{start + 3}},
		{[]int{3}, []uint64{start + 3}, nil},
		{[]int{0, 3}, []uint64{start, start + 2}, []int{start + 2}},
	} {
		for _, scattered := range []bool{false, true} {
			r := bytes.NewReader(frame(tc.lost...))
			c := &frameConn{br: bufio.NewReader(r), size: size}
			bufs, flat, status, err := read(r, c, scattered, tc.holes)
			var got []int
			if se, ok := AsSectorErrors(err); ok {
				for _, e := range se {
					got = append(got, e.Index)
				}
			} else if err != nil {
				t.Fatalf("holes %v, lost %v: %v", tc.holes, tc.lost, err)
			}
			if !slices.Equal(got, tc.want) || (status == statusSectors) != (len(tc.want) > 0) {
				t.Fatalf("holes %v, lost %v: status %d, reported %v, want %v", tc.holes, tc.lost, status, got, tc.want)
			}
			for i, b := range bufs {
				if b != nil && !bytes.Equal(b, bytes.Repeat([]byte{byte(i + 1)}, size)) {
					t.Fatalf("holes %v, scattered %t: sector %d not read in place", tc.holes, scattered, i)
				}
			}
			for _, h := range tc.holes {
				if !scattered && !bytes.Equal(flat[h*size:(h+1)*size], bytes.Repeat([]byte{sentinel}, size)) {
					t.Fatalf("holes %v: hole %d was written", tc.holes, h)
				}
			}
			if _, err := c.br.ReadByte(); err != io.EOF {
				t.Fatalf("holes %v, lost %v: frame not consumed whole (%v)", tc.holes, tc.lost, err)
			}
		}
	}
}

// holedFrameReadAllocs is how many allocations a read of a frame whose
// buffers have a run of holes makes: the sink comes from the mem pool.
func holedFrameReadAllocs(t *testing.T) float64 {
	const size, count = 32 << 10, 4
	body := append([]byte{statusOK, 0, 0, 0, 0, 0, 0, 0}, make([]byte, count*size)...)
	r := bytes.NewReader(body)
	c := &frameConn{br: bufio.NewReader(r), size: size}
	bufs := make([][]byte, count)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	bufs[1], bufs[2] = nil, nil
	return testing.AllocsPerRun(20, func() {
		r.Reset(body)
		c.br.Reset(r)
		if _, err := c.readResponse(0, count, bufs, ErrBadSector); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzConn is a server-side connection whose client sent in and then
// closed its end; responses are discarded.
type fuzzConn struct {
	net.Conn
	in io.Reader
}

func (c *fuzzConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *fuzzConn) Close() error                { return nil }

func (c *fuzzConn) SetReadDeadline(time.Time) error { return nil }

// FuzzFrameRequest feeds arbitrary client bytes to the server. A header
// parseRequest accepts is an in-range extent of a known op whose body
// length matches — the only requests the server allocates for — and
// serving any byte stream, valid frames or not, never panics and ends
// when the stream does.
func FuzzFrameRequest(f *testing.F) {
	const sectors, size = 8, 64
	f.Add(rawRequest(opRead, 2, 3, 0))
	f.Add(append(rawRequest(opWrite, 7, 1, size), make([]byte, size)...))
	f.Add(append(rawRequest(opSync, 0, 0, 0), rawRequest(opRead, 0, 8, 0)...))
	f.Add(rawRequest(opRead, 0, 1<<30, 0))
	f.Add(rawRequest(opRead, math.MaxUint64, 2, 0))
	f.Add(rawRequest(opWrite, 0, 1, 1<<40))
	f.Add(rawRequest(9, 0, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= reqHeaderLen {
			var h [reqHeaderLen]byte
			copy(h[:], data)
			if req, err := parseRequest(&h, sectors, size); err == nil {
				body := 0
				switch req.op {
				case opSync:
					if req.start != 0 || req.count != 0 {
						t.Fatalf("sync accepted with extent %d+%d", req.start, req.count)
					}
				case opWrite:
					body = req.count * size
					fallthrough
				case opRead:
					if req.start < 0 || req.count < 1 || req.start+req.count > sectors {
						t.Fatalf("accepted extent %d+%d outside [0,%d)", req.start, req.count, sectors)
					}
				default:
					t.Fatalf("accepted unknown op %d", req.op)
				}
				var back [reqHeaderLen]byte
				putRequest(&back, req.op, req.start, req.count, body)
				if back != h {
					t.Fatalf("accepted header %x reads back as %x", h, back)
				}
			}
		}
		s := NewDeviceServer(NewMemDevice(sectors, size))
		conn := &fuzzConn{in: bytes.NewReader(data)}
		s.serveFrames(context.Background(), conn, bufio.NewReader(conn))
	})
}

// FuzzFrameResponse feeds arbitrary server bytes to the client's
// response reader. SectorErrors come back only from a well-formed
// sectors frame, never more than the call's count of them, never
// outside its extent and never under a read's hole (holes has bit i set
// when sector start+i is one); anything else a hostile server can send
// is a whole-call error.
func FuzzFrameResponse(f *testing.F) {
	resp := func(status byte, n uint32, rest ...uint64) []byte {
		b := []byte{status, 0, 0, 0}
		b = binary.BigEndian.AppendUint32(b, n)
		for _, v := range rest {
			b = binary.BigEndian.AppendUint64(b, v)
		}
		return b
	}
	f.Add(resp(statusOK, 0), uint16(0), uint16(1), false, uint64(0))
	f.Add(append(resp(statusOK, 0), make([]byte, 16)...), uint16(3), uint16(2), true, uint64(0))
	f.Add(append(resp(statusSectors, 1, 4), make([]byte, 16)...), uint16(3), uint16(2), true, uint64(0))
	f.Add(append(resp(statusSectors, 1, 4), make([]byte, 16)...), uint16(3), uint16(2), true, uint64(2))
	f.Add(append(resp(statusSectors, 2, 3, 5), make([]byte, 24)...), uint16(3), uint16(3), true, uint64(5))
	f.Add(resp(statusSectors, 2, 3, 3), uint16(3), uint16(1), false, uint64(0))
	f.Add(resp(statusSectors, 1, 9), uint16(3), uint16(2), false, uint64(0))
	f.Add(resp(statusSectors, 1, math.MaxUint64), uint16(3), uint16(2), false, uint64(0))
	f.Add(append(resp(statusServerError, 4), "boom"...), uint16(0), uint16(1), false, uint64(0))
	f.Add(resp(statusDeviceFailed, 1<<31), uint16(0), uint16(1), false, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, start, count uint16, read bool, holes uint64) {
		const size = 8
		hole := func(i int) bool { return i < 64 && holes&(1<<i) != 0 }
		var bufs [][]byte
		if read {
			bufs = make([][]byte, count)
			for i := range bufs {
				if !hole(i) {
					bufs[i] = make([]byte, size)
				}
			}
		}
		c := &frameConn{br: bufio.NewReader(bytes.NewReader(data)), size: size}
		status, err := c.readResponse(int(start), int(count), bufs, ErrBadSector)
		lost, isLost := AsSectorErrors(err)
		switch status {
		case statusOK:
			if err != nil {
				t.Fatalf("ok frame with error %v", err)
			}
		case statusSectors:
			if !isLost || len(lost) == 0 || len(lost) > int(count) {
				t.Fatalf("sectors frame returned %v for a %d-sector call", err, count)
			}
			for _, se := range lost {
				if se.Index < int(start) || se.Index >= int(start)+int(count) || !errors.Is(se, ErrBadSector) {
					t.Fatalf("sector error %v outside the call's extent [%d,%d)", se, start, int(start)+int(count))
				}
				if read && hole(se.Index-int(start)) {
					t.Fatalf("sector error %v under a hole", se)
				}
			}
		case statusDeviceFailed:
			if !errors.Is(err, ErrDeviceFailed) {
				t.Fatalf("device-failed frame returned %v", err)
			}
		case statusBadRequest, statusServerError, statusBroken:
			if err == nil || isLost {
				t.Fatalf("status %d returned %v, want a whole-call error", status, err)
			}
		default:
			t.Fatalf("reader returned unknown status %d", status)
		}
		// A sectors frame listing more sectors than the call has, or one
		// outside its extent, is malformed.
		if len(data) >= respHeaderLen && data[0] == statusSectors {
			n := binary.BigEndian.Uint32(data[4:])
			bad := n > uint32(count)
			for i := 0; !bad && i < int(n) && respHeaderLen+8*(i+1) <= len(data); i++ {
				idx := binary.BigEndian.Uint64(data[respHeaderLen+8*i:])
				bad = idx < uint64(start) || idx >= uint64(start)+uint64(count)
			}
			if bad && status != statusBroken {
				t.Fatalf("hostile sector list %x read as status %d: %v", data, status, err)
			}
		}
	})
}
