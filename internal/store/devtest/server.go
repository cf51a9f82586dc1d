package devtest

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// Server is an httptest.Server that can die the way a device server
// process does. httptest.Server.Close and CloseClientConnections leave
// hijacked connections open, and a NetDevice's frame connections are
// hijacked, so a test that closes a server that way still reaches its
// device. Kill closes every connection the server accepted first.
type Server struct {
	*httptest.Server

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	killed bool
}

// NewServer starts a Server for h and kills it when the test ends.
func NewServer(t testing.TB, h http.Handler) *Server {
	s := &Server{Server: httptest.NewUnstartedServer(h), conns: map[net.Conn]struct{}{}}
	s.Config.ConnState = func(c net.Conn, st http.ConnState) {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch st {
		case http.StateNew:
			if s.killed {
				c.Close()
				return
			}
			s.conns[c] = struct{}{}
		case http.StateClosed:
			delete(s.conns, c)
		}
	}
	s.Start()
	t.Cleanup(s.Kill)
	return s
}

// Kill closes every connection the server accepted, upgraded ones
// included, and then the server.
func (s *Server) Kill() {
	s.mu.Lock()
	s.killed = true
	for c := range s.conns {
		c.Close()
	}
	clear(s.conns)
	s.mu.Unlock()
	s.Close()
}
