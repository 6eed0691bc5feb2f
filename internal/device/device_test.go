package device

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/wire"
)

// peer is the scripted daemon end of one device connection.
type peer struct {
	t  *testing.T
	nc net.Conn
	*wire.Conn
}

// listen serves a unix socket under t.TempDir() and hands every accepted
// connection to the test before its Hello is read, so a test can hold the
// handshake back.
func listen(t *testing.T) (string, <-chan *peer) {
	t.Helper()
	addr := "unix:" + filepath.Join(t.TempDir(), "d.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan *peer, 4)
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			ch <- &peer{t: t, nc: nc, Conn: wire.NewConn(nc)}
		}
	}()
	return addr, ch
}

// next waits for the next accepted connection.
func next(t *testing.T, ch <-chan *peer) *peer {
	t.Helper()
	select {
	case p := <-ch:
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("no connection")
		return nil
	}
}

// noDial fails when another connection arrives within a short while.
func noDial(t *testing.T, ch <-chan *peer) {
	t.Helper()
	select {
	case <-ch:
		t.Fatal("the device dialed again")
	case <-time.After(200 * time.Millisecond):
	}
}

// accept reads the Hello and grants a credit window of window frames.
func (p *peer) accept(window uint32) {
	hello, err := p.ReadHello()
	if err != nil {
		p.t.Fatal(err)
	}
	hello.Credits = window
	if _, err := p.ReplyHello(hello); err != nil {
		p.t.Fatal(err)
	}
}

// recv reads one frame, failing after five quiet seconds.
func (p *peer) recv() (wire.Message, error) {
	_ = p.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	return p.Decode()
}

// must reads one frame and fails the test on a read error.
func (p *peer) must() wire.Message {
	m, err := p.recv()
	if err != nil {
		p.t.Fatal(err)
	}
	return m
}

// push sends a control command carrying trace context tc.
func (p *peer) push(cmd wire.ControlCommand, tc *wire.TraceContext) {
	if err := p.Encode(wire.Message{Type: wire.TypeControl, SUO: "dev", Control: cmd, Trace: tc}); err != nil {
		p.t.Fatal(err)
	}
}

// wantAck reads the next frame and requires it to ack cmd with tc echoed.
func (p *peer) wantAck(cmd wire.ControlCommand, tc *wire.TraceContext) {
	p.t.Helper()
	m := p.must()
	if m.Type != wire.TypeAck || m.Control != cmd {
		p.t.Fatalf("got %s %q, want the %s ack", m.Type, m.Control, cmd)
	}
	if (m.Trace == nil) != (tc == nil) || (tc != nil && *m.Trace != *tc) {
		p.t.Fatalf("%s ack carries trace %+v, want %+v", cmd, m.Trace, tc)
	}
}

// serve plays a compliant daemon: it books every observation against the
// window, echoes heartbeats with the spent credits, and reports a frame
// beyond the granted credits, or an observation ahead of the first ack
// when ackFirst is set. It returns when the connection ends.
func (p *peer) serve(window int, ackFirst bool) (obs int) {
	balance, acked := window, !ackFirst
	for {
		m, err := p.recv()
		if err != nil {
			return obs
		}
		switch m.Type {
		case wire.TypeAck:
			acked = true
		case wire.TypeOutput:
			obs++
			if balance--; balance < 0 {
				p.t.Errorf("observation %d spent a credit the daemon never granted", obs)
			}
			if !acked {
				p.t.Errorf("observation %d arrived ahead of the restart ack", obs)
			}
		case wire.TypeHeartbeat:
			_ = p.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: m.SUO, At: m.At, Credits: uint32(window - balance)})
			balance = window
		}
	}
}

func obsAt(ms int) event.Event {
	return event.Event{Kind: event.Output, Name: "out", Source: "dev", At: sim.Time(ms) * sim.Millisecond}.With("x", 0)
}

// dialed dials c while the scripted end grants window credits.
func dialed(t *testing.T, c *Client, addr string, ch <-chan *peer, window uint32) *peer {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Dial(addr, wire.Message{SUO: "dev", Codec: wire.CodecBinary})
		errc <- err
	}()
	p := next(t, ch)
	p.accept(window)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return p
}

func TestSendBlocksOnEmptyWindowAndResumesOnGrant(t *testing.T) {
	addr, ch := listen(t)
	c := &Client{}
	p := dialed(t, c, addr, ch, 2)
	for ms := 1; ms <= 2; ms++ {
		if err := c.Send(obsAt(ms)); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- c.Send(obsAt(3)) }()
	for i := 0; i < 2; i++ {
		if m := p.must(); m.Type != wire.TypeOutput {
			t.Fatalf("frame %d is %s, want an observation", i, m.Type)
		}
	}
	// The third observation has no credit: the device solicits a grant
	// with a heartbeat at the last time it sent, and waits for it,
	// soliciting again while none comes.
	for i := 0; i < 2; i++ {
		if m := p.must(); m.Type != wire.TypeHeartbeat || m.At != 2*sim.Millisecond {
			t.Fatalf("got %s at %s, want the soliciting heartbeat at 2ms", m.Type, m.At)
		}
	}
	select {
	case err := <-sent:
		t.Fatalf("Send returned %v on an empty window", err)
	default:
	}
	if err := p.Encode(wire.Message{Type: wire.TypeCredit, SUO: "dev", Credits: 2}); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	m := p.must()
	for m.Type == wire.TypeHeartbeat { // solicits sent before the grant landed
		m = p.must()
	}
	if m.Type != wire.TypeOutput || m.At != 3*sim.Millisecond {
		t.Fatalf("got %s at %s, want the third observation", m.Type, m.At)
	}
	if st := c.Stats(); st.Sent != 3 || st.Stalls < 2 {
		t.Fatalf("stats %+v, want 3 sent after at least 2 solicits", st)
	}
}

// TestHeartbeatWaitsForItsOwnEcho stalls an observation at the time of the
// one before it, so the soliciting heartbeat and the flush after the
// observation carry the same time: the solicit's late echo, and a credit
// frame with it, must not release the flush.
func TestHeartbeatWaitsForItsOwnEcho(t *testing.T) {
	addr, ch := listen(t)
	c := &Client{}
	p := dialed(t, c, addr, ch, 1)
	if err := c.Send(obsAt(1)); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- c.Send(obsAt(1)) }() // no credit left
	if m := p.must(); m.Type != wire.TypeOutput {
		t.Fatalf("got %s, want the first observation", m.Type)
	}
	solicit := p.must()
	if solicit.Type != wire.TypeHeartbeat || solicit.At != sim.Millisecond {
		t.Fatalf("got %s at %s, want the soliciting heartbeat at 1ms", solicit.Type, solicit.At)
	}
	if err := p.Encode(wire.Message{Type: wire.TypeCredit, SUO: "dev", Credits: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Heartbeat(sim.Millisecond) }()
	m := p.must()
	for m.Type == wire.TypeHeartbeat { // solicits sent before the grant landed
		m = p.must()
	}
	if m.Type != wire.TypeOutput {
		t.Fatalf("got %s, want the second observation", m.Type)
	}
	if m = p.must(); m.Type != wire.TypeHeartbeat || m.At != sim.Millisecond {
		t.Fatalf("got %s at %s, want the flush at 1ms", m.Type, m.At)
	}
	// The daemon answers the solicit late, then tops the window up.
	for _, f := range []wire.Message{
		{Type: wire.TypeHeartbeat, SUO: "dev", At: solicit.At},
		{Type: wire.TypeCredit, SUO: "dev", Credits: 1},
	} {
		if err := p.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("Heartbeat returned %v on the echo of a solicit sent before its observation", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := p.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "dev", At: sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatIsResentWhenShedOrRestarted(t *testing.T) {
	addr, ch := listen(t)
	c := &Client{}
	p := dialed(t, c, addr, ch, 0)
	done := make(chan error, 1)
	go func() { done <- c.Heartbeat(7 * sim.Millisecond) }()
	first := p.must() // shed: no echo
	second := p.must()
	if first.Type != wire.TypeHeartbeat || second != first {
		t.Fatalf("got %+v then %+v, want one heartbeat sent twice", first, second)
	}
	if err := p.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "dev", At: second.At}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Heartbeat after a re-send: %v", err)
	}

	// A restart overtakes the next heartbeat: it waits out the re-dial and
	// goes again on the new connection, right behind the restart ack.
	go func() { done <- c.Heartbeat(9 * sim.Millisecond) }()
	if m := p.must(); m.Type != wire.TypeHeartbeat {
		t.Fatalf("got %s, want the heartbeat", m.Type)
	}
	p.push(wire.CtrlRestart, nil)
	p2 := next(t, ch)
	p2.accept(0)
	p2.wantAck(wire.CtrlRestart, nil)
	if m := p2.must(); m.Type != wire.TypeHeartbeat || m.At != 9*sim.Millisecond {
		t.Fatalf("got %s at %s on the re-dialed connection, want the heartbeat again", m.Type, m.At)
	}
	if err := p2.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "dev", At: 9 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Heartbeat across a restart: %v", err)
	}
}

func TestCloseUnblocksSendAndHeartbeat(t *testing.T) {
	addr, ch := listen(t)
	c := &Client{}
	p := dialed(t, c, addr, ch, 1)
	if err := c.Send(obsAt(1)); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- c.Send(obsAt(2)) }()            // no credit left
	go func() { errs <- c.Heartbeat(5 * sim.Second) }() // never echoed
	for heartbeats := 0; heartbeats < 2; {              // the solicit and the flush
		if p.must().Type == wire.TypeHeartbeat {
			heartbeats++
		}
	}
	c.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a blocked call succeeded on a closed device")
			}
		case <-time.After(time.Second):
			t.Fatal("Close left a Send or Heartbeat blocked")
		}
	}
	if c.Send(obsAt(3)) == nil || c.Heartbeat(6*sim.Second) == nil {
		t.Fatal("a closed device still sends")
	}
}

func TestEveryPushIsAckedWithItsTraceContext(t *testing.T) {
	addr, ch := listen(t)
	c := &Client{}
	p := dialed(t, c, addr, ch, 0)
	reset, restart, quarantine := &wire.TraceContext{TraceID: 1, Parent: 2}, &wire.TraceContext{TraceID: 3, Parent: 4}, &wire.TraceContext{TraceID: 5}

	p.push(wire.CtrlReset, reset)
	p.wantAck(wire.CtrlReset, reset)
	p.push(wire.CtrlReset, nil) // untraced push, untraced ack
	p.wantAck(wire.CtrlReset, nil)

	p.push(wire.CtrlRestart, restart)
	p2 := next(t, ch)
	p2.accept(0)
	p2.wantAck(wire.CtrlRestart, restart)
	if _, err := p.recv(); err == nil {
		t.Fatal("the restart kept the old connection open")
	}

	p2.push(wire.CtrlQuarantine, quarantine)
	p2.wantAck(wire.CtrlQuarantine, quarantine)
	if _, err := p2.recv(); err == nil {
		t.Fatal("the quarantined device kept its connection open")
	}
	if st := c.Stats(); st.Controls != 4 || st.Restarts != 1 || st.Quarantines != 1 {
		t.Fatalf("stats %+v, want 4 controls, 1 restart, 1 quarantine", st)
	}
	if c.Send(obsAt(1)) == nil {
		t.Fatal("a quarantined device still sends")
	}
}

func TestRestartRacingQuarantineStaysDown(t *testing.T) {
	t.Run("quarantine behind the restart", func(t *testing.T) {
		addr, ch := listen(t)
		c := &Client{}
		p := dialed(t, c, addr, ch, 0)
		// The quarantine right behind the restart is lost with the old
		// connection; the daemon re-delivers it as the re-dial's first
		// frame, as fleet.Server does for a quarantined device.
		p.push(wire.CtrlRestart, nil)
		_ = p.Encode(wire.Message{Type: wire.TypeControl, SUO: "dev", Control: wire.CtrlQuarantine})
		p2 := next(t, ch)
		p2.accept(0)
		p2.push(wire.CtrlQuarantine, nil)
		p2.wantAck(wire.CtrlRestart, nil)
		p2.wantAck(wire.CtrlQuarantine, nil)
		noDial(t, ch)
		if c.Send(obsAt(1)) == nil || c.Heartbeat(sim.Second) == nil {
			t.Fatal("the quarantined device was resurrected")
		}
		if st := c.Stats(); st.Quarantines != 1 {
			t.Fatalf("stats %+v, want 1 quarantine", st)
		}
	})
	t.Run("close during the re-dial", func(t *testing.T) {
		addr, ch := listen(t)
		c := &Client{}
		p := dialed(t, c, addr, ch, 0)
		p.push(wire.CtrlRestart, nil)
		p2 := next(t, ch) // the re-dial, its Hello not yet answered
		c.Close()
		p2.accept(0)
		for {
			if _, err := p2.recv(); err != nil {
				break // the device hung up the re-dialed connection
			}
		}
		noDial(t, ch)
		if c.Send(obsAt(1)) == nil {
			t.Fatal("the closed device was resurrected by its restart")
		}
		if st := c.Stats(); st.Restarts != 0 {
			t.Fatalf("stats %+v, want the restart left unfinished", st)
		}
	})
}

// TestRestartKeepsCreditsAndAckOrder pushes a restart while the device
// streams under a window of 4: on the new connection the ack comes first,
// and no observation spends a credit the new connection never granted.
func TestRestartKeepsCreditsAndAckOrder(t *testing.T) {
	addr, ch := listen(t)
	c := &Client{}
	p := dialed(t, c, addr, ch, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ms := 1; ; ms++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.Send(obsAt(ms)) // lost while the device restarts
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.serve(4, false)
	}()
	time.Sleep(5 * time.Millisecond)
	p.push(wire.CtrlRestart, nil)
	p2 := next(t, ch)
	p2.accept(4)
	got := make(chan int)
	go func() { got <- p2.serve(4, true) }()
	// Stream on until the new connection has carried two windows, so a
	// grant cycle on it is checked too.
	until := func(cond func(Stats) bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(c.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the device never resumed streaming after the restart: %+v", c.Stats())
			}
		}
	}
	until(func(st Stats) bool { return st.Restarts > 0 })
	sent := c.Stats().Sent
	until(func(st Stats) bool { return st.Sent >= sent+8 })
	close(stop)
	c.Close()
	wg.Wait()
	<-got
}

// TestCompliantAgainstServerWindow streams well past a small window through
// a real fleet.Server: the device never trips a credit violation, and every
// observation is dispatched.
func TestCompliantAgainstServerWindow(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	srv := &fleet.Server{Pool: pool, Factory: fleet.LightMonitorFactory(), HelloTimeout: 5 * time.Second, CreditWindow: 4}
	defer srv.Close()
	addr := "unix:" + filepath.Join(t.TempDir(), "srv.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)
	c := &Client{}
	if _, err := c.Dial(addr, wire.Message{SUO: "dev", Codec: wire.CodecBinary}); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const frames = 200
	for ms := 1; ms <= frames; ms++ {
		if err := c.Send(obsAt(ms)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Heartbeat(sim.Time(frames+1) * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.CreditViolations != 0 || st.Frames != frames {
		t.Fatalf("server stats %+v, want %d frames and no violation", st, frames)
	}
	if st := c.Stats(); st.Sent != frames || st.Reports != 0 {
		t.Fatalf("client stats %+v", st)
	}
}
