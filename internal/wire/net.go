package wire

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"
)

// Address notation shared by the daemon and its clients: "unix:/path/to.sock"
// or "tcp:host:port". A bare path (contains "/" or no ":") is shorthand for
// a Unix socket, preserving the seed CLI's plain-path flags.

// SplitAddr parses the address notation into a net network and address.
func SplitAddr(addr string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", addr[len("unix:"):], nil
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", addr[len("tcp:"):], nil
	case !strings.Contains(addr, ":") || strings.Contains(addr, "/"):
		return "unix", addr, nil
	default:
		return "", "", fmt.Errorf("wire: address %q: want unix:/path or tcp:host:port", addr)
	}
}

// Listen opens a listener for the address notation above.
func Listen(addr string) (net.Listener, error) {
	network, address, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	return ln, nil
}

// Dial connects to the address notation above and performs the client-side
// Hello exchange (see Conn.Handshake): the returned connection speaks the
// accepted codec, and the reply carries what the server granted.
func Dial(addr string, hello Message) (*Conn, Message, error) {
	network, address, err := SplitAddr(addr)
	if err != nil {
		return nil, Message{}, err
	}
	nc, err := net.Dial(network, address)
	if err != nil {
		return nil, Message{}, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := NewConn(nc)
	reply, err := c.Handshake(hello)
	if err != nil {
		nc.Close()
		return nil, Message{}, err
	}
	return c, reply, nil
}

// SendTimeout bounds every frame a daemon writes to a peer. Error and
// control pushes run on goroutines that serve other peers too (shards), and
// the aggregator's adoption directive on its failover timer, so a peer that
// stops reading until its socket buffer fills must stall only itself: the
// timed-out write closes it.
const SendTimeout = 10 * time.Second

// Peer is the daemon's end of one accepted connection. Every write — Send,
// and the Hello reply or rejection through the embedded Conn — arms a fresh
// SendTimeout deadline first, so no frame can block on a stalled peer
// forever.
type Peer struct {
	*Conn
	nc net.Conn
	// closed latches once the connection is being torn down — by a failed
	// Send or by Shut. Sends racing the teardown (controller pushes, a
	// draining daemon's CtrlStop broadcast) then fail fast with
	// net.ErrClosed instead of writing into a socket another goroutine is
	// closing.
	closed atomic.Bool
}

// deadlineConn arms the write deadline ahead of every Write; the Encoder
// writes each frame in one Write, so that is once per frame.
type deadlineConn struct{ net.Conn }

func (d deadlineConn) Write(b []byte) (int, error) {
	_ = d.SetWriteDeadline(time.Now().Add(SendTimeout))
	return d.Conn.Write(b)
}

// NewPeer wraps an accepted connection.
func NewPeer(nc net.Conn) *Peer {
	return &Peer{Conn: NewConn(deadlineConn{nc}), nc: nc}
}

// Send writes one frame. It is safe for concurrent use; a send that fails
// shuts the peer, which unwinds whoever is reading it — a stalled or broken
// peer must not stall its writers twice.
func (p *Peer) Send(m Message) error {
	if p.closed.Load() {
		return fmt.Errorf("wire: send: %w", net.ErrClosed)
	}
	err := p.Encode(m)
	if err != nil {
		p.Shut()
	}
	return err
}

// Shut latches the peer closed and closes its socket.
func (p *Peer) Shut() error {
	p.closed.Store(true)
	return p.nc.Close()
}
