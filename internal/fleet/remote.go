package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trader/internal/core"
	"trader/internal/sim"
	"trader/internal/trace"
	"trader/internal/wire"
)

// This file is the networked half of the fleet: where device.go builds
// devices whose SUO is simulated in-process, here the SUO is a remote
// process on the other end of a socket (paper Fig. 2, multiplied by the
// fleet). A Server accepts many concurrent SUO connections, performs the
// wire Hello handshake (negotiating the JSON or binary codec per
// connection), registers each connection as a device in the sharded Pool,
// routes decoded observation frames through the same FNV shard dispatch as
// local traffic, and pushes control and error frames back down the
// connection. A disconnect — clean or not — removes the device and frees
// its shard slot while the rest of the fleet keeps streaming.

// MonitorFactory builds the monitor-side state for one remote SUO: a fresh
// virtual clock and a monitor executing the specification model the device
// is judged against. It runs on the owning shard's goroutine. The returned
// monitor must already be started.
type MonitorFactory func(id string, seed int64) (*sim.Kernel, *core.Monitor, error)

// LightMonitorFactory is the remote counterpart of LightFactory: the same
// one-state spec model tracking the commanded level "x", with no simulated
// SUO attached — the real SUO is on the other end of the connection. Cheap
// enough that one daemon hosts very large fleets.
func LightMonitorFactory() MonitorFactory {
	return func(id string, seed int64) (*sim.Kernel, *core.Monitor, error) {
		k := sim.NewKernel(seed)
		mon, err := lightMonitor(k)
		if err != nil {
			return nil, nil, err
		}
		return k, mon, nil
	}
}

// RemoteDevice builds a connection-backed Device: events fed to it advance
// the device's virtual clock and are routed into the monitor's observers
// (Device.Feed), and error reports the monitor raises are pushed down the
// connection as TypeError frames. send is called from shard goroutines and
// must be safe for concurrent use (wire.Encoder is); it must not keep the
// message past its return (wire.Peer.Send encodes it at once).
func RemoteDevice(id string, k *sim.Kernel, mon *core.Monitor, send func(wire.Message) error) *Device {
	d := &Device{ID: id, Kernel: k, Monitor: mon, send: send}
	mon.OnError(d.push)
	return d
}

// ServerStats counts connection lifecycle events. All fields are cumulative.
type ServerStats struct {
	Accepted     uint64 // connections that completed the Hello handshake
	Rejected     uint64 // connections dropped before registration (bad hello, duplicate ID, ...)
	Disconnected uint64 // registered devices whose connection ended (clean or not)
	Frames       uint64 // observation frames dispatched into the pool
	// CreditViolations counts connections disconnected for streaming past
	// an exhausted credit window — hostile or badly broken peers; a
	// compliant client can never trip it (the server's balance is always
	// at least the client's).
	CreditViolations uint64
	// CreditGrants counts mid-stream TypeCredit replenishment frames sent
	// (heartbeat-echo grants are not counted — every echo is one).
	CreditGrants uint64
}

// Server turns a Pool into a network ingestion daemon. Configure the
// exported fields before calling Serve; they must not change afterwards.
type Server struct {
	// Pool receives one device per accepted connection. Required.
	Pool *Pool
	// Factory builds each remote device's monitor-side state. Required.
	Factory MonitorFactory
	// HelloTimeout bounds how long a new connection may take to complete
	// the handshake before it is dropped (0: no limit). Connected devices
	// are never timed out for read silence — silence detection is the
	// monitor's job (Observable.MaxSilence), not the transport's.
	HelloTimeout time.Duration
	// MaxAdvance bounds how far a single frame — an observation's event
	// time or a heartbeat's At — may move its device's virtual clock
	// forward (default DefaultMaxAdvance). Virtual time is client-supplied
	// and advancing a clock replays every periodic monitor timer (silence
	// sweeps, comparison windows, ~10ms period) along the way, so an
	// unbounded advance — one hostile or buggy frame carrying At =
	// MaxInt64 — would wedge the device's whole shard stepping timers
	// through years of virtual time. A frame further than MaxAdvance ahead
	// of the device's clock is a protocol violation: the connection is
	// closed and the device removed, like any other malformed traffic.
	MaxAdvance sim.Time
	// OnAck, when non-nil, receives every TypeAck frame a device sends back
	// after honoring a control command, tagged with the handshaken device ID
	// (not the spoofable SUO field). The recovery controller hooks here to
	// learn that its pushes were actuated. It runs on the connection's read
	// goroutine and must not block.
	OnAck func(id string, m wire.Message)
	// OnSnapshot, when non-nil, receives every TypeSnapshot frame a device
	// sends — its coverage evidence answering a RequestSnapshot pull —
	// tagged with the handshaken device ID. The fleet diagnosis plane
	// (internal/diagnose) hooks here. Like OnAck it runs on the
	// connection's read goroutine and must not block; snapshot frames are
	// not journaled by the server — the diagnosis engine journals the
	// evidence it accepts, labeled, write-ahead of folding it.
	OnSnapshot func(id string, m wire.Message)
	// OnSpectrumDelta, when non-nil, receives every TypeSpectrumDelta frame
	// a device sends — the continuous coverage window it piggybacks on its
	// heartbeat cadence — tagged with the handshaken device ID. The
	// continuous diagnosis plane hooks here. Like OnSnapshot it runs on the
	// connection's read goroutine and must not block; delta frames are not
	// journaled by the server — the diagnosis engine journals the deltas it
	// accepts, labeled, write-ahead of folding them. Deltas shed with the
	// observations tier (ShedObservationsAt): one lost delta costs the
	// diagnosis plane a coverage window, never control.
	OnSpectrumDelta func(id string, m wire.Message)
	// Journal, when non-nil, receives every accepted frame — observations
	// and heartbeats, after validation and the MaxAdvance vetting — tagged
	// with the registered device ID and the frame's virtual time.
	// Appends are write-ahead: a frame reaches the pool (and a heartbeat is
	// echoed) only after its journal record is durable, so a journal-backed
	// pool can be rebuilt losslessly after a crash (Pool.Replay) and a
	// heartbeat echo now also acknowledges durability. A failed append
	// closes the connection — frames that cannot be made durable are not
	// ingested. Journaling also changes disconnect semantics: the device
	// stays in the pool (with its error sink detached) instead of being
	// removed, matching the continuous per-device lifetime its journal
	// records, and the next connection for the ID adopts it.
	// *journal.Writer and *journal.Sharded implement this interface.
	Journal TieredJournal
	// GrantDurability, when non-nil, vets each connection's requested ack
	// class (hello.Durability, already normalised) and returns the class to
	// grant — e.g. fsync for critical device classes, dispatch for the long
	// tail. Nil grants whatever the client asked for. A granted dispatch
	// class only changes behaviour on a journaling server; without a Journal
	// there is nothing to sync.
	GrantDurability func(hello wire.Message) wire.Durability
	// CreditWindow, when positive, enables credit-based flow control: the
	// Hello reply grants each connection this many frame credits, every
	// observation frame consumes one, and the server replenishes consumed
	// credits with delta grants — always on the heartbeat echo, and
	// mid-stream (a TypeCredit frame) once the window is half spent while
	// the device's shard queue is shallow. Under pressure no mid-stream
	// grant is sent, so a compliant flooder degrades into heartbeat-paced
	// request/response instead of swamping the shard; a peer that streams
	// past an exhausted window is disconnected with an error frame. All
	// accounting runs on the connection's read goroutine — grants are
	// deltas, not absolute resets, so in-flight frames cannot desynchronise
	// the two sides (server balance ≥ client balance, always). Zero
	// disables flow control: no credits are granted and none are checked.
	CreditWindow int
	// ShedObservationsAt and ShedHeartbeatsAt, when positive, enable the
	// load-shedding tiers: a frame arriving while the fill fraction of its
	// device's shard queue is at or above the threshold is dropped before
	// dispatch, counted in the pool's Stats and journaled as an aggregated
	// shed-marker record (so replay stays exact without the refused
	// frames). Observations shed first — one lost sample costs the monitor
	// little — so ShedObservationsAt is the lower threshold (0.75 and 0.95
	// are the traderd defaults); a shed heartbeat skips advance, flush and
	// echo, pausing a compliant client entirely, and is reserved for
	// near-saturation. Control, ack and snapshot traffic — the recovery and
	// diagnosis planes — is never shed: it is the traffic that gets a
	// degraded fleet healthy again, and it bypasses the dispatch queue's
	// pressure anyway. Zero disables the tier.
	ShedObservationsAt float64
	ShedHeartbeatsAt   float64
	// Tracer, when non-nil, enables the frame-lifecycle tracing plane
	// (§6.2): one in Tracer's SampleN observation frames is traced from
	// decode through monitor step (give the Pool the same tracer so the
	// dispatch side records its half), every control push is traced forced
	// and carries its context on the wire, and a device's ack — echoing
	// that context back — closes the exchange as a forced ack span.
	Tracer *trace.Tracer
	// Logf, when non-nil, receives connection lifecycle log lines.
	Logf func(format string, args ...any)

	mu      sync.Mutex
	conns   map[string]*remoteConn // registered devices, by ID
	pending map[net.Conn]struct{}  // accepted, not yet registered
	closed  bool

	accepted         atomic.Uint64
	rejected         atomic.Uint64
	disconnected     atomic.Uint64
	frames           atomic.Uint64
	creditViolations atomic.Uint64
	creditGrants     atomic.Uint64
}

// replenishPressure gates mid-stream credit grants: below this shard-queue
// fill fraction the server tops a half-spent window back up without waiting
// for the next heartbeat; at or above it the client must earn replenishment
// through a heartbeat (whose flush barrier drains its own backlog first).
const replenishPressure = 0.5

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("fleet: server closed")

// FrameJournal is the append-only journal surface the planes write their
// records through (control actions, diagnosis evidence, ownership changes).
// Append must be safe for concurrent use and must not retain the message.
type FrameJournal interface {
	Append(wire.Message) error
}

// TieredJournal is the ingestion server's journal: on top of FrameJournal,
// AppendThen accepts a record without waiting
// for its fsync when sync is false (the ack-on-dispatch class), and runs
// then() under the record's stream lock — the server enqueues the frame's
// pool effect there, so a checkpoint freezing the stream observes either
// both the record and its effect or neither, never a truncated record whose
// effect is missing from the snapshot. Both *journal.Writer and
// *journal.Sharded implement it.
type TieredJournal interface {
	FrameJournal
	AppendThen(m wire.Message, sync bool, then func()) error
}

// DefaultMaxAdvance is the per-frame virtual-time advance window when
// Server.MaxAdvance is zero: generous next to real heartbeat cadences
// (seconds), but small enough that replaying the window's periodic monitor
// timers stays a bounded, sub-second amount of shard work.
const DefaultMaxAdvance = 300 * sim.Second

// remoteConn is one client connection: a wire.Peer — writes happen from
// shard goroutines (error pushes) and the connection's handler (echoes,
// control), each under a fresh write deadline, and a send that fails poisons
// the connection, which unwinds the read loop and removes the device — plus
// the handshake latch.
type remoteConn struct {
	*wire.Peer
	// ready flips once the Hello reply is on the wire and the negotiated
	// codec is in effect. The connection is visible in Server.conns from
	// reservation — before the reply — so cross-goroutine pushes (Control,
	// Close's CtrlStop) must check ready first: a frame written ahead of
	// the Hello reply, or between the reply and the codec switch, would
	// corrupt the client's handshake.
	ready atomic.Bool
	// admitted flips once admit is done with the connection, just before
	// its last look at the device's quarantine flag; see Disconnect.
	admitted atomic.Bool
}

// Stats snapshots the connection counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Accepted:         s.accepted.Load(),
		Rejected:         s.rejected.Load(),
		Disconnected:     s.disconnected.Load(),
		Frames:           s.frames.Load(),
		CreditViolations: s.creditViolations.Load(),
		CreditGrants:     s.creditGrants.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts SUO connections on ln until ln fails or Close is called,
// handling each connection on its own goroutine. Multiple Serve calls (one
// per listener — e.g. a Unix socket and a TCP port) may run concurrently
// against the same Server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.conns == nil {
		s.conns = make(map[string]*remoteConn)
		s.pending = make(map[net.Conn]struct{})
	}
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrServerClosed
	}
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			// A transient failure under load (EMFILE, ECONNABORTED) must
			// not take down the daemon and every connected device: back
			// off and retry, net/http style. Only persistent listener
			// failures end Serve.
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				s.logf("fleet: accept: %v; retrying in %v", err, backoff)
				time.Sleep(backoff)
				continue
			}
			return fmt.Errorf("fleet: accept: %w", err)
		}
		backoff = 0
		go s.handle(conn)
	}
}

// Close stops accepting registrations and closes every connection; in-flight
// handlers then unwind, removing their devices from the pool. The listeners
// passed to Serve are the caller's to close (Serve returns once they are).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]*remoteConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	pending := make([]net.Conn, 0, len(s.pending))
	for c := range s.pending {
		pending = append(pending, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		// Best-effort stop: tell the SUO the monitor is going away.
		// Mid-handshake connections just get closed — their client is
		// still expecting the Hello reply, not a control frame.
		if c.ready.Load() {
			_ = c.Send(wire.Message{Type: wire.TypeControl, Control: wire.CtrlStop})
		}
		_ = c.Shut()
	}
	for _, c := range pending {
		_ = c.Close()
	}
}

// Control pushes a control command down one registered device's connection.
// With a Tracer attached the push is traced forced — never sampled away —
// and the frame carries the trace context, so the device's ack echoes it
// back and the round trip closes as control span → ack span.
func (s *Server) Control(id string, cmd wire.ControlCommand) error {
	s.mu.Lock()
	c := s.conns[id]
	s.mu.Unlock()
	if c == nil || !c.ready.Load() {
		return fmt.Errorf("fleet: no connected device %q", id)
	}
	m := wire.Message{Type: wire.TypeControl, SUO: id, Control: cmd}
	if s.Tracer != nil {
		// The control span marks the push instant (the ack span carries the
		// round trip's duration); its child context rides the wire so the
		// ack parents under it.
		ctx := s.Tracer.Span(s.Tracer.Force(), trace.KindControl, -1, id, time.Now(), 0, true)
		m.Trace = ctx.Wire()
	}
	return c.Send(m)
}

// RequestSnapshot asks one registered device for its coverage spectrum: a
// TypeSnapshotReq push down the device's connection. The device answers
// with a TypeSnapshot frame, delivered through OnSnapshot. Like any control
// push, delivery is not guaranteed — the diagnosis plane tolerates devices
// that never answer.
func (s *Server) RequestSnapshot(id string) error {
	s.mu.Lock()
	c := s.conns[id]
	s.mu.Unlock()
	if c == nil || !c.ready.Load() {
		return fmt.Errorf("fleet: no connected device %q", id)
	}
	return c.Send(wire.Message{Type: wire.TypeSnapshotReq, SUO: id})
}

// Disconnect closes one registered device's connection — the quarantine
// escalation's final act. The connection's read loop unwinds exactly as for
// a client-initiated disconnect: the device is removed from the pool (or, in
// journal mode, kept with its error sink detached).
//
// On a journaling server a connection still inside admit — a device
// re-dialling after a restart — is left alone: the controller quarantined
// the device in the pool before calling Disconnect, so admit's own check
// finds the flag, delivers the verdict as the connection's first frame and
// closes it. Shutting it here instead would end the handshake with an EOF
// and lose the verdict. A journal-less server removes the device, flag and
// all, on disconnect, so there the connection is shut as before.
func (s *Server) Disconnect(id string) error {
	s.mu.Lock()
	c := s.conns[id]
	s.mu.Unlock()
	if c == nil {
		return fmt.Errorf("fleet: no connected device %q", id)
	}
	if s.Journal != nil && !c.admitted.Load() {
		return nil
	}
	return c.Shut()
}

// SeedOf derives a deterministic per-device seed from the device ID, so a
// reconnecting device gets the same monitor behaviour each time — and so a
// journal replay (which sees only device IDs) rebuilds each monitor with
// exactly the seed the live server gave it.
func SeedOf(id string) int64 {
	h := fnv.New64a()
	io.WriteString(h, id)
	return int64(h.Sum64()&(1<<63-1)) + 1
}

// reserve claims the device ID for rc, or explains why not (server
// draining, ID already connected). It runs before the Hello reply is sent,
// so a refusal reaches the client as the handshake reply. release undoes
// the claim.
func (s *Server) reserve(id string, rc *remoteConn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if _, dup := s.conns[id]; dup {
		return fmt.Errorf("fleet: device %q already connected", id)
	}
	s.conns[id] = rc
	return nil
}

func (s *Server) release(id string) {
	s.mu.Lock()
	delete(s.conns, id)
	s.mu.Unlock()
}

// handle owns one connection: admission, then the read loop, which looks
// each frame's type up in frameHandlers. Any protocol violation — garbage
// bytes, an oversized frame, an unknown codec construct — ends this
// connection and removes this device only; the daemon and every other
// connection keep running.
func (s *Server) handle(conn net.Conn) {
	ss, ok := s.admit(conn)
	if !ok {
		return
	}
	defer ss.close()
	for {
		msg, err := ss.rc.Decode()
		if err == io.EOF {
			return
		}
		if err != nil {
			s.logf("fleet: device %q: %v", ss.id, err)
			return
		}
		// The handler's time argument is the frame's decode instant, the
		// start of the interval the latency SLO is stated over (DispatchAt
		// records its end). A type outside the table — JSON decodes any type
		// string — is ignored, like the table's ignored entries.
		if h := frameHandlers[msg.Type]; h != nil && !h(ss, msg, time.Now()) {
			return
		}
	}
}

// admit takes a new connection through everything that precedes the read
// loop: the Hello is read and vetted, the ID reserved, the durability class
// and credit window negotiated, the reply sent, and the device admitted to —
// or adopted from — the pool. ok is false when the connection was refused;
// it is closed by then.
func (s *Server) admit(conn net.Conn) (ss *session, ok bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return nil, false
	}
	s.pending[conn] = struct{}{}
	s.mu.Unlock()
	unpend := func() {
		s.mu.Lock()
		delete(s.pending, conn)
		s.mu.Unlock()
	}
	rc := &remoteConn{Peer: wire.NewPeer(conn)}
	if s.HelloTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.HelloTimeout))
	}
	hello, err := rc.ReadHello()
	if err != nil {
		unpend()
		s.rejected.Add(1)
		s.logf("fleet: %s: handshake failed: %v", conn.RemoteAddr(), err)
		conn.Close()
		return nil, false
	}
	_ = conn.SetReadDeadline(time.Time{})
	id := hello.SUO

	// Vet the registration BEFORE replying: a refused client must see the
	// rejection as its handshake reply (a TypeError frame, still JSON — no
	// codec switch has happened), so its Dial fails synchronously instead
	// of reporting success for a connection the server is about to drop.
	// The count comes first: a client that reads the rejection may look at
	// Stats next.
	reject := func(detail string) (*session, bool) {
		unpend()
		s.rejected.Add(1)
		_ = rc.RejectHello(id, detail)
		s.logf("fleet: %s: rejected %q: %s", conn.RemoteAddr(), id, detail)
		conn.Close()
		return nil, false
	}
	if id == "" {
		return reject("hello frame carries no SUO device ID")
	}
	if err := s.reserve(id, rc); err != nil {
		return reject(err.Error())
	}
	// Durability negotiation: normalise the request (unknown classes vet
	// back to fsync), let the operator's policy override it, and echo the
	// granted class in the Hello reply so the client knows what a heartbeat
	// echo will mean on this connection.
	granted, _ := wire.DurabilityByName(string(hello.Durability))
	if s.GrantDurability != nil {
		hello.Durability = granted
		granted, _ = wire.DurabilityByName(string(s.GrantDurability(hello)))
	}
	hello.Durability = granted
	// Flow-control negotiation: the window is the server's to grant, never
	// the client's to request, so whatever the client put in the field is
	// overwritten before the reply echoes it.
	window := max(s.CreditWindow, 0)
	hello.Credits = uint32(window)
	codec, err := rc.ReplyHello(hello)
	if err != nil {
		s.release(id)
		unpend()
		s.rejected.Add(1)
		s.logf("fleet: %s: hello reply to %q failed: %v", conn.RemoteAddr(), id, err)
		conn.Close()
		return nil, false
	}
	rc.ready.Store(true)

	// Pool admission can still fail after the reply (factory error, pool
	// stopping) — a server-side condition the client learns about through
	// a post-handshake error frame and a close.
	resumeAt, adopted, err := s.enroll(id, rc)
	if err != nil {
		s.release(id)
		return reject(err.Error())
	}
	unpend()
	s.accepted.Add(1)
	how := "connected"
	if adopted {
		how = "reconnected to recovered device"
	}
	s.logf("fleet: %s: device %q %s (codec %s, durability %s), fleet size %d",
		conn.RemoteAddr(), id, how, codec.Name(), granted, s.Pool.Size())
	// An adopted connection anchors the advance window at the recovered
	// device's virtual time, not zero: the client resumes with timestamps
	// at or beyond its last acknowledged heartbeat, which on a fleet older
	// than MaxAdvance would otherwise read as a runaway jump and get the
	// reconnect refused forever.
	ss = &session{s: s, id: id, rc: rc, clock: resumeAt, maxAdv: s.MaxAdvance,
		window: window, credits: window,
		relaxed: granted == wire.DurDispatch && s.Journal != nil}
	if ss.maxAdv <= 0 {
		ss.maxAdv = DefaultMaxAdvance
	}
	// A quarantined device's reconnect must not resurrect its service: the
	// recovery controller retired it, and the CtrlQuarantine push that told
	// it so can be lost when quarantine races the device's own restart
	// re-handshake (the client is between connections). Re-deliver the
	// verdict as the first frame of the new connection and end it — the
	// quarantine flag on the adopted device is the durable truth. admitted
	// flips first: a Disconnect that still reads it unset came after the
	// controller set the flag, so the check below finds it and delivers the
	// verdict that Disconnect left to it.
	rc.admitted.Store(true)
	if adopted {
		if q, err := s.Pool.Quarantined(id); err == nil && q {
			s.logf("fleet: device %q reconnected while quarantined; refusing service", id)
			_ = rc.Send(wire.Message{Type: wire.TypeControl, SUO: id, Control: wire.CtrlQuarantine})
			ss.close()
			return nil, false
		}
	}
	return ss, true
}

// enroll gives the connection its device: a fresh one in the pool, or —
// when the pool holds the ID but no connection does (a genuine duplicate
// connection was refused at reserve, before the Hello reply) — the device
// journal recovery rebuilt, whose monitor state — clocks, counters, fault
// history — must survive the reconnect. Adoption points its error pushes at
// this connection and resumes from its virtual time.
func (s *Server) enroll(id string, rc *remoteConn) (resumeAt sim.Time, adopted bool, err error) {
	err = s.Pool.AddRemoteDevice(id, s.Factory, rc.Send)
	if errors.Is(err, ErrDuplicateDevice) {
		if resumeAt, adopted, err = s.Pool.AttachDevice(id, rc.Send); err == nil && !adopted {
			err = fmt.Errorf("fleet: device %q exists but cannot be adopted", id)
		}
	}
	return resumeAt, adopted, err
}

// session is one admitted connection's protocol state. Everything here is
// owned by the connection's read goroutine, which calls the frame handlers
// below one frame at a time; they need a remoteConn (a net.Pipe end does)
// and a Server, not a listener.
type session struct {
	s  *Server
	id string // the handshaken device ID: frames route by it, never by their spoofable SUO field
	rc *remoteConn
	// clock shadows the device's virtual time as driven by this connection
	// — the only source of time for a remote device — so client-supplied
	// timestamps are vetted here, before they reach the shard (advance).
	clock, maxAdv sim.Time
	// Flow control: credits is the server-side balance of the connection's
	// window (0: flow control off). The client decrements its copy when it
	// sends, the server when it receives, and every grant is a delta — so
	// server balance − client balance always equals the frames and grants
	// in flight, a non-negative number, and only a peer that ignores an
	// exhausted window can drive the server below zero.
	window, credits int
	// relaxed: a dispatch-class connection on a journaling server — appends
	// do not wait for their fsync.
	relaxed bool
	// pendingShed accumulates this connection's shed frames until the next
	// marker flush (heartbeat or teardown); one aggregated journal record
	// per window keeps shedding from writing the journal it is shedding to
	// protect.
	pendingShed wire.ShedRecord
}

// frameHandlers is what the daemon does with each frame type a device
// connection can deliver: one entry per type the codec knows (the fleet
// tests hold the key set equal to wire.MsgTypes() and ARCHITECTURE.md §2.9's
// daemon column equal to the handler names). A handler returning false ends
// the connection.
var frameHandlers = map[wire.MsgType]func(*session, wire.Message, time.Time) bool{
	wire.TypeInput:         (*session).observe,
	wire.TypeOutput:        (*session).observe,
	wire.TypeState:         (*session).observe,
	wire.TypeHeartbeat:     (*session).heartbeat,
	wire.TypeAck:           (*session).ack,
	wire.TypeSnapshot:      (*session).evidence,
	wire.TypeSpectrumDelta: (*session).evidence,
	// Identification repeats and client-side chatter — including the types
	// that only ever travel server → client, server → journal or edge ⇄
	// aggregator.
	wire.TypeHello:       (*session).ignored,
	wire.TypeControl:     (*session).ignored,
	wire.TypeError:       (*session).ignored,
	wire.TypeSpecInfo:    (*session).ignored,
	wire.TypeSnapshotReq: (*session).ignored,
	wire.TypeCheckpoint:  (*session).ignored,
	wire.TypeCredit:      (*session).ignored,
	wire.TypeShed:        (*session).ignored,
	wire.TypeRollup:      (*session).ignored,
	wire.TypeHandoff:     (*session).ignored,
}

func (ss *session) ignored(wire.Message, time.Time) bool { return true }

// observe admits one observation frame (input, output, state): credit
// check, shed tier 1, clock vetting, then journal-then-dispatch.
func (ss *session) observe(m wire.Message, ingest time.Time) bool {
	ev := m.Event
	if ev == nil {
		return true
	}
	s, id := ss.s, ss.id
	// The ingest sampling gate (§6.2): one in SampleN admitted observations
	// opens a trace here; everything below threads tctx through
	// unconditionally because a dead context makes every tracer call a
	// no-op.
	tctx := s.Tracer.Sample()
	if ss.window > 0 {
		if ss.credits == 0 {
			// Only a peer ignoring its exhausted window gets here: a
			// compliant client blocks and heartbeats for replenishment
			// instead. Disconnect, like any other protocol violation.
			rep := wire.ErrorReport{Detector: "ingest", At: ss.clock, Detail: fmt.Sprintf(
				"credit window violated: observation sent with the %d-frame window exhausted", ss.window)}
			// Count before sending: a client that reads the error frame may
			// look at Stats next.
			s.creditViolations.Add(1)
			_ = ss.rc.Send(wire.Message{Type: wire.TypeError, SUO: id, Error: &rep, At: ss.clock})
			s.logf("fleet: device %q: %s", id, rep.Detail)
			return false
		}
		ss.credits--
	}
	pressure := -1.0
	if ss.window > 0 || s.ShedObservationsAt > 0 {
		pressure = s.Pool.Pressure(id)
	}
	if s.ShedObservationsAt > 0 && pressure >= s.ShedObservationsAt {
		// Shed tier 1: under queue pressure observations drop first — one
		// lost sample costs a monitor a comparison, not its state. The frame
		// is refused before the journal and the pool ever see it; the credit
		// it spent stays spent, and no mid-stream grant follows under
		// pressure, so a flooder exhausts its window and degrades into
		// heartbeat pacing.
		ss.shed(wire.ShedRecord{Observations: 1})
		if tctx.Live() {
			// A sampled-then-shed frame still leaves a span: the shed
			// decision is exactly the kind of tail-latency explanation
			// exemplars exist to surface.
			s.Tracer.Span(tctx, trace.KindShed, s.Pool.ShardOf(id), id, ingest, time.Since(ingest), false)
		}
		return true
	}
	if !ss.advance(ev.At) {
		return false
	}
	if tctx.Live() {
		// The ingest span closes at admission: decode, credit and shed
		// vetting are behind the frame, the journal and shard are ahead. It
		// is the chain's root — the exemplar a /metrics scrape surfaces
		// resolves back to it.
		tctx = s.Tracer.Span(tctx, trace.KindIngest, s.Pool.ShardOf(id), id, ingest, time.Since(ingest), false)
	}
	// Write-ahead: the frame must be in the journal before the pool sees
	// it, tagged with the handshaken ID so replay routes it exactly as live
	// dispatch did (see journaled).
	var dispatchErr error
	dispatch := func() { dispatchErr = s.Pool.DispatchAt(id, *ev, ingest, tctx) }
	jspan := tctx.Live() && s.Journal != nil
	var jstart time.Time
	if jspan {
		jstart = time.Now()
	}
	if !ss.journaled(wire.Message{Type: m.Type, SUO: id, Event: ev, At: ev.At}, dispatch) {
		return false
	}
	if jspan {
		// The journal span covers the append and this frame's share of the
		// fsync batch (a dispatch-class connection's append returns without
		// waiting, and its short span says so). Parented on ingest, as a
		// sibling of the dispatch span the shard records — the dispatch was
		// enqueued under the stream lock, before the fsync resolved.
		s.Tracer.Span(tctx, trace.KindJournal, s.Pool.ShardOf(id), id, jstart, time.Since(jstart), false)
	}
	if dispatchErr != nil {
		return false // pool stopped — nothing left to ingest into
	}
	s.frames.Add(1)
	if ss.window > 0 && ss.credits <= ss.window/2 && pressure < replenishPressure {
		// Mid-stream replenishment: the window is half spent and the shard
		// is keeping up, so top it back up without forcing the client to
		// stall into its next heartbeat. The grant is the delta consumed,
		// never an absolute reset (see CreditWindow).
		g := uint32(ss.window - ss.credits)
		if ss.rc.Send(wire.Message{Type: wire.TypeCredit, SUO: id, Credits: g}) != nil {
			return false
		}
		s.creditGrants.Add(1)
		ss.credits = ss.window
		if tctx.Live() {
			// The credit span marks a flow-control decision made on this
			// frame's account: the half-spent window was topped back up
			// mid-stream.
			s.Tracer.Span(tctx, trace.KindCredit, s.Pool.ShardOf(id), id, ingest, time.Since(ingest), false)
		}
	}
	return true
}

// heartbeat carries time and acts as a flush barrier. The carried At
// advances the device's virtual clock, so a quiet-but-alive SUO still gets
// silence sweeps and periodic comparison; the echo is only written after
// every earlier observation on this connection has been through the
// device's monitor, so any error frames they raised are already on the
// wire. Clients drain by heartbeating before close.
func (ss *session) heartbeat(m wire.Message, _ time.Time) bool {
	s, id, at := ss.s, ss.id, m.At
	if s.ShedHeartbeatsAt > 0 && s.Pool.Pressure(id) >= s.ShedHeartbeatsAt {
		// Shed tier 2: near saturation even the heartbeat is refused — no
		// clock advance, no flush barrier, no echo. A compliant client
		// waiting on the echo simply waits longer and retries; the silence
		// IS the backpressure. Control traffic (tier 3) is never shed — see
		// ShedObservationsAt.
		ss.shed(wire.ShedRecord{Heartbeats: 1})
		return true
	}
	if !ss.advance(at) {
		return false
	}
	// The pending shed marker flushes write-ahead of the heartbeat record,
	// so replay restores the shed counters at the same stream position the
	// live pool reached them by.
	if !ss.flushShed() {
		return false
	}
	// Heartbeats are journaled too: replay must re-run the same silence
	// sweeps and comparison windows the live pool ran. On a fsync-class
	// connection the journaled heartbeat marks every frame before it
	// durable, so the echo below also acknowledges durability; on a
	// dispatch-class connection the echo promises monitoring only — the
	// unsynced tail can be lost to a crash, which is exactly the class the
	// client asked for.
	var advErr error
	adv := func() { advErr = s.Pool.AdvanceDevice(id, at) }
	if !ss.journaled(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at}, adv) {
		return false
	}
	// If the pool refuses the barrier (daemon draining), no echo must be
	// sent — a false echo would tell the client its frames were monitored.
	if advErr != nil || s.Pool.FlushDevice(id) != nil {
		return false
	}
	echo := wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at}
	if ss.window > 0 {
		// The echo always restores the full window: the flush barrier above
		// just drained this connection's backlog, so the shard owes it a
		// fresh start. Delta grant, as always.
		echo.Credits = uint32(ss.window - ss.credits)
		ss.credits = ss.window
	}
	return ss.rc.Send(echo) == nil
}

// ack takes a control-command acknowledgement. Its At is client time and is
// vetted like any other — an ack is the one frame a restarted device may
// send before resuming its observation stream.
func (ss *session) ack(m wire.Message, ingest time.Time) bool {
	if !ss.advance(m.At) {
		return false
	}
	if actx := trace.FromWire(m.Trace); actx.Live() {
		// The device echoed a control push's trace context: close the
		// exchange with a forced ack span parented on the push's span.
		ss.s.Tracer.Span(actx, trace.KindAck, -1, ss.id, ingest, time.Since(ingest), true)
	}
	if ss.s.OnAck != nil {
		ss.s.OnAck(ss.id, m)
	}
	return true
}

// evidence hands diagnosis input to its hook under the handshaken ID, once
// its client-supplied At is vetted: a snapshot answering a RequestSnapshot
// pull, or a spectrum delta riding the heartbeat cadence. Neither is
// journaled here — the diagnosis engine journals what it accepts. A delta
// sheds with tier 1 (observations): it is diagnosis input, not control, and
// one lost window only thins the evidence. It spends no credit — like the
// heartbeat it rides on, its rate is bounded by the heartbeat cadence, not
// the observation firehose.
func (ss *session) evidence(m wire.Message, _ time.Time) bool {
	s, hook := ss.s, ss.s.OnSnapshot
	if m.Type == wire.TypeSpectrumDelta {
		if m.Delta == nil {
			return true
		}
		if s.ShedObservationsAt > 0 && s.Pool.Pressure(ss.id) >= s.ShedObservationsAt {
			ss.shed(wire.ShedRecord{Observations: 1})
			return true
		}
		hook = s.OnSpectrumDelta
	}
	if !ss.advance(m.At) {
		return false
	}
	if hook != nil {
		hook(ss.id, m)
	}
	return true
}

// advance reports whether at is within the MaxAdvance window of the
// session's clock, moving the clock up to it when so; a frame beyond the
// window is a protocol violation that ends the connection (see
// Server.MaxAdvance for why unbounded advances are dangerous).
func (ss *session) advance(at sim.Time) bool {
	// at-clock, not clock+maxAdv: the sum overflows when an operator sets a
	// huge window to effectively disable the bound. clock only ever holds
	// an accepted at > clock ≥ 0, so the difference is safe.
	if at > ss.clock && at-ss.clock > ss.maxAdv {
		rep := wire.ErrorReport{Detector: "ingest", At: ss.clock, Detail: fmt.Sprintf(
			"frame time %s is beyond the %s advance window (device clock %s)", at, ss.maxAdv, ss.clock)}
		_ = ss.rc.Send(wire.Message{Type: wire.TypeError, SUO: ss.id, Error: &rep, At: ss.clock})
		ss.s.logf("fleet: device %q: %s", ss.id, rep.Detail)
		return false
	}
	if at > ss.clock {
		ss.clock = at
	}
	return true
}

// journaled makes a record's pool effect write-ahead: then runs once m is
// in the journal, under the record's stream lock (see TieredJournal), and a
// dispatch-class connection does not wait for the fsync. A journal-less
// server just runs then. A failed append ends the connection — frames that
// cannot be made durable are not ingested.
func (ss *session) journaled(m wire.Message, then func()) bool {
	if ss.s.Journal == nil {
		then()
		return true
	}
	if err := ss.s.Journal.AppendThen(m, !ss.relaxed, then); err != nil {
		ss.s.logf("fleet: device %q: journal: %v", ss.id, err)
		return false
	}
	return true
}

// shed counts frames the server refused under pressure: at once on a
// journal-less server, otherwise into the pending marker flushShed journals.
func (ss *session) shed(rec wire.ShedRecord) {
	if ss.s.Journal == nil {
		ss.s.Pool.AddShed(ss.id, rec)
		return
	}
	ss.pendingShed.Observations += rec.Observations
	ss.pendingShed.Heartbeats += rec.Heartbeats
}

// flushShed journals the pending marker and moves the pool's shed counters
// inside the journal's stream lock, so a checkpoint freezing the stream
// captures the marker and its counters together or not at all — never one
// without the other.
func (ss *session) flushShed() bool {
	if ss.pendingShed == (wire.ShedRecord{}) {
		return true
	}
	rec := ss.pendingShed
	ss.pendingShed = wire.ShedRecord{}
	return ss.journaled(wire.Message{Type: wire.TypeShed, SUO: ss.id, At: ss.clock, Shed: &rec},
		func() { ss.s.Pool.AddShed(ss.id, rec) })
}

// close ends the session: the final shed marker is flushed while the device
// is still attached, the device is detached or removed, and only then does
// the socket close — so a client that sees the close can redial its ID.
func (ss *session) close() {
	s, id := ss.s, ss.id
	_ = ss.flushShed()
	if s.Journal != nil {
		// A journal-backed fleet keeps the device across disconnects: its
		// history is durable and a later boot would rebuild it via replay
		// anyway, so removing it live would only make the live pool diverge
		// from its own journal (and re-anchor a resuming client's advance
		// window at zero, refusing any resume beyond MaxAdvance). Detach the
		// error sink; the next connection for this ID adopts the device and
		// resumes its timeline.
		_, _, _ = s.Pool.AttachDevice(id, func(wire.Message) error { return nil })
	} else {
		// Shard first, conns map second: RemoveDevice blocks until the shard
		// has dropped the device, so once the ID is reservable again an
		// immediate reconnect's AddDevice cannot collide with the stale
		// entry (§2.4 allows instant reconnects).
		_, _ = s.Pool.RemoveDevice(id)
	}
	s.release(id)
	s.disconnected.Add(1)
	_ = ss.rc.Shut()
	s.logf("fleet: device %q disconnected, fleet size %d", id, s.Pool.Size())
}
