package main

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Every connection in the benchmark is loopback TCP. The benchmark
// counts what crosses the sockets without changing how the program
// writes to them: a wrapper around *net.TCPConn would hide the
// unexported writev fast path that net.Buffers uses, so writes and
// bytes come from the kernel's own per-socket counters (TCP_INFO), and
// only reads are counted by a wrapper, which embeds the *net.TCPConn
// so its writev path stays promoted.

// tcpCounters is one socket's TCP_INFO counters.
type tcpCounters struct {
	acked    uint64 // bytes sent and acknowledged by the peer
	received uint64 // bytes received
	dataSegs uint64 // data segments sent: one per write syscall on loopback
}

func (a tcpCounters) add(b tcpCounters) tcpCounters {
	return tcpCounters{a.acked + b.acked, a.received + b.received, a.dataSegs + b.dataSegs}
}

func (a tcpCounters) sub(b tcpCounters) tcpCounters {
	return tcpCounters{a.acked - b.acked, a.received - b.received, a.dataSegs - b.dataSegs}
}

// Offsets into Linux's struct tcp_info.
const (
	tcpiBytesAcked    = 120
	tcpiBytesReceived = 128
	tcpiDataSegsOut   = 156
	tcpiMinLen        = 160
)

// readTCPInfo reads c's counters with getsockopt(TCP_INFO).
func readTCPInfo(c *net.TCPConn) (tcpCounters, error) {
	raw, err := c.SyscallConn()
	if err != nil {
		return tcpCounters{}, err
	}
	var buf [256]byte
	n := uint32(len(buf))
	var errno syscall.Errno
	err = raw.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&n)), 0)
	})
	if err != nil {
		return tcpCounters{}, err
	}
	if errno != 0 {
		return tcpCounters{}, errno
	}
	if n < tcpiMinLen {
		return tcpCounters{}, errors.New("TCP_INFO too short: kernel lacks data_segs_out")
	}
	le := binary.LittleEndian
	return tcpCounters{
		acked:    le.Uint64(buf[tcpiBytesAcked:]),
		received: le.Uint64(buf[tcpiBytesReceived:]),
		dataSegs: uint64(le.Uint32(buf[tcpiDataSegsOut:])),
	}, nil
}

// A socketSet is a group of sockets counted together: the client ends
// of the load connections, or the server ends they were accepted on.
// Load connections stay open for a rig's whole life; a socket that the
// program closed (a set-up connection) no longer counts.
type socketSet struct {
	reads atomic.Int64 // Read calls on wrapped sockets

	mu    sync.Mutex
	conns []*net.TCPConn
}

func (s *socketSet) add(c *net.TCPConn) {
	s.mu.Lock()
	s.conns = append(s.conns, c)
	s.mu.Unlock()
}

// counters sums TCP_INFO over the set's open sockets.
func (s *socketSet) counters() (tcpCounters, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t tcpCounters
	for _, c := range s.conns {
		ci, err := readTCPInfo(c)
		if errors.Is(err, net.ErrClosed) {
			continue
		}
		if err != nil {
			return tcpCounters{}, err
		}
		t = t.add(ci)
	}
	return t, nil
}

// closeAll closes every socket in the set.
func (s *socketSet) closeAll() {
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// readCounter counts Read calls on a server-side socket. Embedding the
// *net.TCPConn keeps its writev fast path visible to net.Buffers.
type readCounter struct {
	*net.TCPConn
	reads *atomic.Int64
}

func (c readCounter) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.TCPConn.Read(p)
}

// countingListener hands out accepted sockets wrapped in readCounter
// and records them in set.
type countingListener struct {
	net.Listener
	set *socketSet
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc, ok := c.(*net.TCPConn)
	if !ok {
		c.Close()
		return nil, errors.New("accepted a non-TCP connection")
	}
	l.set.add(tc)
	return readCounter{TCPConn: tc, reads: &l.set.reads}, nil
}

// listenLoopback opens a TCP listener on an ephemeral loopback port.
func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// dialLoopback connects to addr and records the client end in set
// (nil: not counted).
func dialLoopback(addr string, set *socketSet) (*net.TCPConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tc := c.(*net.TCPConn)
	if set != nil {
		set.add(tc)
	}
	return tc, nil
}
