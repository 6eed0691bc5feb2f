// Package device is the compliant device half of the wire protocol
// (ARCHITECTURE.md §2.8 and §4.1): the one client a simulated SUO streams
// through. Its Client dials and handshakes, spends one frame credit per
// observation and solicits a grant with a heartbeat when the window runs
// dry, treats the heartbeat echo as a flush barrier, and honours the
// recovery controller's pushes — reset is acked, restart re-dials and acks,
// quarantine acks and latches the device down for good. Every ack echoes
// the push's trace context. The product plugs in only what it owns: the
// coverage snapshot and spectrum deltas of its flight recorder, and what it
// does with error reports.
//
// The package names no product and links no daemon plane; TestImportGraph
// at the module root pins that.
package device

import (
	"errors"
	"sync"
	"time"

	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/wire"
)

const (
	// The restart re-dial schedule: the daemon may still be tearing the
	// old registration down, and the ID frees up within a removal round
	// trip, so a restarting device tries for one second in all. The short
	// step keeps the downtime a restart costs close to that round trip.
	redials     = 100
	redialEvery = 10 * time.Millisecond

	// How long a heartbeat waits for its answer before it is sent again: a
	// grant solicit on an empty window, and a flush. Near saturation the
	// daemon sheds heartbeats (tier 2) without a word; the silence is the
	// backpressure, and a re-send is the retry. A solicit is cheap to
	// repeat and a stalled device idles until it lands; a flush waits
	// behind its shard's backlog, so it is given longer before it counts
	// as shed.
	solicitEvery = 50 * time.Millisecond
	flushEvery   = 500 * time.Millisecond
)

// errDown reports a frame the device could not send: it is restarting,
// quarantined, closed or lost its connection. Callers count the frame as
// lost — a down SUO produces no observable output.
var errDown = errors.New("device: down")

// Stats counts what one device did and saw over its client's life.
type Stats struct {
	Sent        uint64 // observation frames put on the wire
	Stalls      uint64 // heartbeats soliciting a grant for an empty window
	Reports     uint64 // error frames received
	Controls    uint64 // control pushes received
	Restarts    uint64 // restarts honoured: re-dialed, acked and streaming
	Quarantines uint64 // quarantines honoured
	Snapshots   uint64 // snapshot pulls received
}

// Client is one device's connection to an ingestion daemon. Set the
// callbacks, then Dial. Send, Heartbeat and Close are safe for concurrent
// use; the callbacks run on the connection's reader goroutine, except Delta,
// which runs inside Heartbeat.
type Client struct {
	// Snapshot, when set, answers the daemon's snapshot pulls with the
	// device's coverage evidence.
	Snapshot func() *wire.Snapshot
	// Delta, when set, is asked for the closing coverage window as each
	// Heartbeat begins; the delta goes out just ahead of the heartbeat.
	Delta func(at sim.Time) *wire.SpectrumDelta
	// OnError, when set, receives every error frame.
	OnError func(wire.Message)

	addr  string
	hello wire.Message

	mu sync.Mutex
	// hb is held from numbering a heartbeat until it is written, so
	// heartbeats go on the wire in sequence order. It is taken before mu.
	hb sync.Mutex
	// wc is the live connection, nil while the device is down.
	wc *wire.Conn
	// latched is set by quarantine, Close, a lost connection and a failed
	// re-dial: the device is down for good, and a restart re-dial still in
	// flight must not resurrect it. Down but not latched means a restart
	// is re-dialing.
	latched bool
	// window is the credit window the live connection's Hello reply
	// granted (0: no flow control), credits the local balance.
	window  uint32
	credits int64
	// Heartbeats are numbered from 1 in the order they go on the wire,
	// across connections; sent is the last number. pending holds the times
	// of those sent on the live connection whose echo has not come, oldest
	// first, so the last is number sent. echoed is the number of the latest
	// one echoed: the flush-barrier watermark, which the reader only
	// raises, never blocks on. The daemon echoes in order and sheds without
	// a word, so an echo answers the oldest pending heartbeat with its
	// time, and those ahead of it were shed.
	pending []sim.Time
	sent    uint64
	echoed  uint64
	// lastAt is the latest virtual time the device put on the wire; acks
	// and snapshot answers carry it.
	lastAt sim.Time
	// wake is closed and replaced on every change a waiter cares about:
	// an echo, a grant, the device going down or coming back up.
	wake  chan struct{}
	stats Stats
}

// Dial connects to the daemon at addr and performs the Hello exchange;
// hello names the device and requests its codec and durability class, and
// a restart re-dials with the same hello. It returns the daemon's reply:
// the granted durability and credit window.
func (c *Client) Dial(addr string, hello wire.Message) (wire.Message, error) {
	c.addr, c.hello, c.wake = addr, hello, make(chan struct{})
	wc, reply, err := wire.Dial(addr, hello)
	if err != nil {
		c.latched = true // never connected: down for good
		return reply, err
	}
	c.wc, c.window, c.credits = wc, reply.Credits, int64(reply.Credits)
	go c.read(wc)
	return reply, nil
}

// Send streams one observation, spending one credit under flow control.
// On an empty window it solicits a grant with a heartbeat and blocks until
// one arrives. The solicit carries the time of the last frame already on
// the wire, so its echo vouches for no frame still unsent. While the device
// is down it returns an error at once.
func (c *Client) Send(e event.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for resend := true; c.wc != nil && c.window > 0 && c.credits <= 0; {
		wake := c.wake
		if resend {
			c.stats.Stalls++
			c.write(wire.Message{Type: wire.TypeHeartbeat, SUO: c.hello.SUO, At: c.lastAt})
		}
		resend = c.wait(wake, solicitEvery)
	}
	wc := c.wc
	if wc == nil {
		return errDown
	}
	c.lastAt = max(c.lastAt, e.At)
	c.credits-- // the balance only binds under a window
	c.mu.Unlock()
	err := wc.SendEvent(c.hello.SUO, e)
	c.mu.Lock()
	if err == nil {
		c.stats.Sent++
	}
	return err
}

// Heartbeat sends a heartbeat at virtual time at — preceded by the Delta
// callback's spectrum delta, when set — and returns once the daemon has
// echoed it, or echoed one sent after it: every frame sent before it has
// then been monitored, and the error frames it raised have arrived. An echo
// of an earlier heartbeat with the same time does not count. A heartbeat
// the daemon shed is sent again, and so is one a restart overtook, on the
// re-dialed connection. It returns an error once the device is down for
// good.
func (c *Client) Heartbeat(at sim.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wc != nil && c.Delta != nil {
		// A delta lost with the connection only thins the evidence; the
		// heartbeat below reports the connection.
		c.write(wire.Message{Type: wire.TypeSpectrumDelta, SUO: c.hello.SUO, At: at, Delta: c.Delta(at)})
	}
	var sentOn *wire.Conn
	var first uint64 // this call's first heartbeat on sentOn
	for resend := true; sentOn == nil || c.echoed < first; {
		if c.latched {
			return errDown
		}
		wake := c.wake
		// Send it again when shed or when a restart re-dialed since, and
		// wait out a re-dial in flight. A failed write leaves the reader
		// to take the device down.
		if c.wc != nil && (resend || c.wc != sentOn) {
			if wc, seq := c.write(wire.Message{Type: wire.TypeHeartbeat, SUO: c.hello.SUO, At: at}); wc != sentOn {
				sentOn, first = wc, seq
			}
		}
		resend = c.wait(wake, flushEvery)
	}
	return nil
}

// Stats returns the device's counters so far.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close ends the session: the device goes down for good, and every Send and
// Heartbeat blocked on it returns.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wc != nil {
		c.wc.Close()
	}
	c.wc, c.latched = nil, true
	c.signal()
}

// signal wakes every waiter. mu is held.
func (c *Client) signal() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// wait parks until wake, taken from c.wake before the caller last let go
// of mu, is signalled or until d passes, and reports whether it timed out.
// mu is held on entry and on return.
func (c *Client) wait(wake chan struct{}, d time.Duration) bool {
	c.mu.Unlock()
	defer c.mu.Lock()
	select {
	case <-wake:
		return false
	case <-time.After(d):
		return true
	}
}

// write sends m on the live connection and returns that connection, nil
// when the device is down, and the number of the last heartbeat sent: m's
// own when m is one. A heartbeat is pending before it is written, so its
// echo cannot outrun the booking. mu is held on entry and on return but
// not across the write, so the reader keeps booking grants meanwhile.
func (c *Client) write(m wire.Message) (*wire.Conn, uint64) {
	c.mu.Unlock()
	c.hb.Lock()
	defer c.hb.Unlock()
	c.mu.Lock()
	wc := c.wc
	if wc == nil {
		return nil, 0
	}
	if m.Type == wire.TypeHeartbeat {
		c.sent++
		c.pending = append(c.pending, m.At)
	}
	seq := c.sent
	c.lastAt = max(c.lastAt, m.At)
	c.mu.Unlock()
	defer c.mu.Lock()
	_ = wc.Encode(m)
	return wc, seq
}

// answer sends m on wc, stamped with the device's ID and latest time.
func (c *Client) answer(wc *wire.Conn, m wire.Message) {
	c.mu.Lock()
	m.SUO, m.At = c.hello.SUO, c.lastAt
	c.mu.Unlock()
	_ = wc.Encode(m)
}

// drop takes the device down if wc is still its live connection (nil
// while a restart re-dials), for good when latch is set, and closes wc. It
// reports whether wc was live.
func (c *Client) drop(wc *wire.Conn, latch bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := c.wc == wc
	if live && wc != nil {
		c.wc = nil
		wc.Close()
	}
	c.latched = c.latched || latch && live
	c.signal()
	return live
}

// count bumps one counter under mu.
func (c *Client) count(n *uint64) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

// read consumes one connection's downstream frames until it ends. A
// connection that ends while it is still the live one takes the device
// down.
func (c *Client) read(wc *wire.Conn) {
	for {
		m, err := wc.Decode()
		if err != nil {
			c.drop(wc, true)
			return
		}
		switch m.Type {
		case wire.TypeError:
			c.count(&c.stats.Reports)
			if c.OnError != nil {
				c.OnError(m)
			}
		case wire.TypeHeartbeat, wire.TypeCredit:
			// Echoes and credit frames both carry a delta grant; a grant
			// for a connection that is no longer live is void. An echo
			// answers the oldest pending heartbeat with its time.
			c.mu.Lock()
			if c.wc == wc {
				c.credits += int64(m.Credits)
				for i, at := range c.pending {
					if m.Type == wire.TypeHeartbeat && at == m.At {
						c.echoed = c.sent - uint64(len(c.pending)-1-i)
						c.pending = c.pending[i+1:]
						break
					}
				}
			}
			c.signal()
			c.mu.Unlock()
		case wire.TypeSnapshotReq:
			c.count(&c.stats.Snapshots)
			if c.Snapshot != nil {
				c.answer(wc, wire.Message{Type: wire.TypeSnapshot, Snapshot: c.Snapshot()})
			}
		case wire.TypeControl:
			c.count(&c.stats.Controls)
			switch m.Control {
			case wire.CtrlReset:
				c.answer(wc, wire.Message{Type: wire.TypeAck, Control: m.Control, Trace: m.Trace})
			case wire.CtrlRestart:
				// Honoured on this goroutine: the old connection is closed
				// here, and a push still buffered on it is lost with it
				// (the daemon re-delivers a quarantine on the re-dial).
				c.restart(wc, m)
				return
			case wire.CtrlQuarantine:
				c.answer(wc, wire.Message{Type: wire.TypeAck, Control: m.Control, Trace: m.Trace})
				c.drop(wc, true)
				c.count(&c.stats.Quarantines)
				return
			}
		}
	}
}

// restart honours CtrlRestart: drop the connection, re-dial with the same
// hello, ack on the new connection, then resume streaming. The fresh credit
// window is installed and the ack sent before the connection is published,
// so no observation precedes the ack and no credit of the dead connection
// is spent on the new one.
func (c *Client) restart(old *wire.Conn, push wire.Message) {
	if !c.drop(old, false) { // quarantined or closed meanwhile
		return
	}
	wc, reply, err := wire.Dial(c.addr, c.hello)
	for try := 1; err != nil && try < redials; try++ {
		time.Sleep(redialEvery)
		wc, reply, err = wire.Dial(c.addr, c.hello)
	}
	if err != nil {
		c.drop(nil, true) // the device stays down
		return
	}
	c.answer(wc, wire.Message{Type: wire.TypeAck, Control: push.Control, Trace: push.Trace})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latched { // closed while re-dialing: stay down
		wc.Close()
		return
	}
	c.wc, c.window, c.credits = wc, reply.Credits, int64(reply.Credits)
	c.pending = nil // the dead connection's heartbeats will never be echoed
	c.stats.Restarts++
	c.signal()
	go c.read(wc)
}
