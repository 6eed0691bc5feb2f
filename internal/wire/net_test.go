package wire

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// stalledConn is a peer that has stopped reading with its socket buffer
// full. A real write then blocks until its deadline passes; this one fails
// with os.ErrDeadlineExceeded at once when a deadline is armed, so the
// timeout path runs without waiting out SendTimeout.
type stalledConn struct {
	net.Conn // nil: only the methods below are called
	deadline time.Time
	writes   int
	closed   bool
}

var errNoDeadline = errors.New("write without a deadline: a stalled peer blocks it forever")

func (c *stalledConn) SetWriteDeadline(t time.Time) error {
	c.deadline = t
	return nil
}

func (c *stalledConn) Write([]byte) (int, error) {
	c.writes++
	if c.deadline.IsZero() {
		return 0, errNoDeadline
	}
	return 0, os.ErrDeadlineExceeded
}

func (c *stalledConn) Close() error {
	c.closed = true
	return nil
}

// A Send to a stalled peer gives up at the write deadline it armed
// SendTimeout ahead, shuts the peer so whoever reads it unwinds, and every
// later Send fails fast with net.ErrClosed without touching the socket.
func TestPeerSendToStalledPeerTimesOutAndShuts(t *testing.T) {
	c := &stalledConn{}
	p := NewPeer(c)
	m := Message{Type: TypeHeartbeat, SUO: "edge-1", At: 1}

	armed := time.Now()
	if err := p.Send(m); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Send to a stalled peer = %v, want a deadline error", err)
	}
	if ahead := c.deadline.Sub(armed); ahead < SendTimeout-time.Second || ahead > SendTimeout+time.Second {
		t.Fatalf("write deadline armed %s ahead, want about SendTimeout (%s)", ahead, SendTimeout)
	}
	if !c.closed {
		t.Fatal("a failed Send left the peer open")
	}
	if err := p.Send(m); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Send after a failed Send = %v, want net.ErrClosed", err)
	}
	if c.writes != 1 {
		t.Fatalf("%d writes reached the socket, want 1: a shut peer must fail before writing", c.writes)
	}
}
