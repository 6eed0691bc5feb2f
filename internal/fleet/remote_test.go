package fleet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/wire"
)

// startServer spins a pool + ingestion server on a Unix socket and returns
// the server and its dialable address. Everything shuts down with the test.
func startServer(t *testing.T, mutate func(*Server)) (*Server, string) {
	t.Helper()
	pool := NewPool(Options{Shards: 2})
	t.Cleanup(pool.Stop)
	srv := &Server{Pool: pool, Factory: LightMonitorFactory(), Logf: t.Logf}
	if mutate != nil {
		mutate(srv)
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "ingest.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); ln.Close() })
	go srv.Serve(ln)
	return srv, addr
}

// eventually polls cond for up to 5s — connection teardown and shard
// commands are asynchronous.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// outEvent is an observation the LightMonitorFactory spec model compares:
// model variable "x" stays 0, so any |x| > 0.25 deviates.
func outEvent(x float64, atMs int64) event.Event {
	at := sim.Time(atMs) * sim.Millisecond
	return event.Event{Kind: event.Output, Name: "out", Source: "suo", At: at}.With("x", x)
}

func TestServerIngestDetectDisconnectReconnect(t *testing.T) {
	srv, addr := startServer(t, nil)

	wc, _, err := wire.Dial(addr, wire.Message{SUO: "tv-1", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "registration", func() bool { return srv.Pool.Size() == 1 })

	// Deviating observations must come back as a TypeError frame (the
	// comparator tolerates one deviation, so send two in a row).
	for i := int64(1); i <= 2; i++ {
		if err := wc.SendEvent("tv-1", outEvent(5, 10*i)); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := wc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != wire.TypeError || msg.Error == nil || msg.Error.Actual != 5 {
		t.Fatalf("want deviation error frame, got %+v", msg)
	}
	eventually(t, "frame accounting", func() bool { return srv.Stats().Frames == 2 })

	// Disconnect mid-stream: the device leaves the pool and its shard slot
	// frees up, so the same ID can reconnect.
	wc.Close()
	eventually(t, "removal", func() bool { return srv.Pool.Size() == 0 })

	wc2, _, err := wire.Dial(addr, wire.Message{SUO: "tv-1", Codec: wire.CodecJSON})
	if err != nil {
		t.Fatalf("reconnect with same ID: %v", err)
	}
	defer wc2.Close()
	// Accepted is counted just after the device enters the pool: wait for
	// the later of the two.
	eventually(t, "re-registration", func() bool { return srv.Stats().Accepted == 2 })
	if n := srv.Pool.Size(); n != 1 {
		t.Fatalf("pool size after reconnect = %d, want 1", n)
	}
	st := srv.Stats()
	if st.Accepted != 2 || st.Disconnected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerGarbageFrameClosesOnlyOffender(t *testing.T) {
	srv, addr := startServer(t, nil)

	healthy, _, err := wire.Dial(addr, wire.Message{SUO: "good", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	network, address, _ := wire.SplitAddr(addr)
	raw, err := net.Dial(network, address)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	bad := wire.NewConn(raw)
	if _, err := bad.Handshake(wire.Message{SUO: "bad", Codec: wire.CodecJSON}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "both registered", func() bool { return srv.Pool.Size() == 2 })

	// A framed payload that is not valid JSON: the offender dies...
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 3)
	raw.Write(hdr[:])
	raw.Write([]byte("{{{"))
	eventually(t, "offender removed", func() bool { return srv.Pool.Size() == 1 })
	if _, err := io.ReadAll(raw); err != nil && err != io.EOF {
		t.Logf("offender conn: %v", err) // closed either way
	}

	// ...and the daemon keeps serving the healthy connection.
	if err := healthy.Encode(wire.Message{Type: wire.TypeHeartbeat, At: 7}); err != nil {
		t.Fatal(err)
	}
	msg, err := healthy.Decode()
	if err != nil || msg.Type != wire.TypeHeartbeat || msg.At != 7 {
		t.Fatalf("heartbeat echo: %+v, %v", msg, err)
	}
	if err := healthy.SendEvent("good", outEvent(0.1, 20)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "healthy still dispatching", func() bool {
		ro := srv.Pool.Rollup()
		return ro.Dispatched >= 1 && ro.Devices == 1
	})
}

func TestServerOversizedFrameClosesOnlyOffender(t *testing.T) {
	srv, addr := startServer(t, nil)
	network, address, _ := wire.SplitAddr(addr)
	raw, err := net.Dial(network, address)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	wc := wire.NewConn(raw)
	if _, err := wc.Handshake(wire.Message{SUO: "huge"}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "registered", func() bool { return srv.Pool.Size() == 1 })

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], wire.MaxFrame+1)
	raw.Write(hdr[:])
	eventually(t, "offender removed", func() bool { return srv.Pool.Size() == 0 })
	eventually(t, "disconnect counted", func() bool { return srv.Stats().Disconnected == 1 })
}

func TestServerRejectsDuplicateAndAnonymousIDs(t *testing.T) {
	srv, addr := startServer(t, nil)
	first, _, err := wire.Dial(addr, wire.Message{SUO: "twin"})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	eventually(t, "registered", func() bool { return srv.Pool.Size() == 1 })

	// Second connection with the same ID: the rejection IS the handshake
	// reply, so Dial itself fails and tells the client why.
	dup, _, err := wire.Dial(addr, wire.Message{SUO: "twin"})
	if err == nil {
		dup.Close()
		t.Fatal("duplicate ID should fail the handshake")
	}
	if !strings.Contains(err.Error(), "already connected") {
		t.Fatalf("duplicate ID error = %v, want the reason", err)
	}

	anon, _, err := wire.Dial(addr, wire.Message{SUO: ""})
	if err == nil {
		anon.Close()
		t.Fatal("anonymous hello should fail the handshake")
	}
	if !strings.Contains(err.Error(), "no SUO device ID") {
		t.Fatalf("anonymous hello error = %v, want the reason", err)
	}
	eventually(t, "rejections counted", func() bool { return srv.Stats().Rejected == 2 })
	if srv.Pool.Size() != 1 {
		t.Fatalf("pool size = %d, want 1", srv.Pool.Size())
	}
}

func TestServerHelloTimeout(t *testing.T) {
	srv, addr := startServer(t, func(s *Server) { s.HelloTimeout = 30 * time.Millisecond })
	network, address, _ := wire.SplitAddr(addr)
	raw, err := net.Dial(network, address)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Say nothing: the server must drop us instead of leaking the conn.
	eventually(t, "mute connection rejected", func() bool { return srv.Stats().Rejected == 1 })
	if srv.Pool.Size() != 0 {
		t.Fatalf("pool size = %d, want 0", srv.Pool.Size())
	}
}

// A remote SUO that goes quiet but keeps heartbeating must still trip its
// monitor's MaxSilence deadline: the heartbeat's At advances the device's
// virtual clock, firing the silence sweep.
func TestServerHeartbeatAdvancesClockForSilenceDetection(t *testing.T) {
	factory := func(id string, seed int64) (*sim.Kernel, *core.Monitor, error) {
		k := sim.NewKernel(seed)
		r := statemachine.NewRegion("dev")
		r.Add(&statemachine.State{Name: "run", Entry: func(c *statemachine.Context) { c.Set("x", 0) }})
		model := statemachine.MustDefine("dev", []string{"x"}, r).New(k)
		mon, err := core.NewMonitor(k, model, core.Configuration{Observables: []core.Observable{
			{Name: "x", EventName: "out", ValueName: "x", ModelVar: "x",
				Threshold: 0.25, Tolerance: 1, MaxSilence: 100 * sim.Millisecond},
		}})
		if err != nil {
			return nil, nil, err
		}
		if err := mon.Start(); err != nil {
			return nil, nil, err
		}
		return k, mon, nil
	}
	srv, addr := startServer(t, func(s *Server) { s.Factory = factory })
	wc, _, err := wire.Dial(addr, wire.Message{SUO: "quiet", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eventually(t, "registered", func() bool { return srv.Pool.Size() == 1 })

	// One healthy observation, then silence — only heartbeats carry time.
	if err := wc.SendEvent("quiet", outEvent(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "quiet", At: 2 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	var sawSilence bool
	for !sawSilence {
		msg, err := wc.Decode()
		if err != nil {
			t.Fatalf("connection ended before silence report: %v", err)
		}
		if msg.Type == wire.TypeError && msg.Error != nil && msg.Error.Detector == "silence" {
			sawSilence = true
		}
		if msg.Type == wire.TypeHeartbeat {
			break // flush barrier: any silence report would have preceded it
		}
	}
	if !sawSilence {
		t.Fatal("silence deadline never reported despite heartbeats carrying time")
	}
}

// When the pool is gone (daemon draining) the heartbeat echo must NOT be
// sent — an echo is a promise that all prior frames were monitored.
func TestServerNoFalseEchoAfterPoolStop(t *testing.T) {
	srv, addr := startServer(t, nil)
	wc, _, err := wire.Dial(addr, wire.Message{SUO: "late", Codec: wire.CodecJSON})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eventually(t, "registered", func() bool { return srv.Pool.Size() == 1 })

	srv.Pool.Stop()
	if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "late", At: sim.Second}); err != nil {
		t.Fatal(err)
	}
	for {
		msg, err := wc.Decode()
		if err != nil {
			break // connection dropped: correct
		}
		if msg.Type == wire.TypeHeartbeat {
			t.Fatal("heartbeat echoed after pool stop — false drain signal")
		}
	}
}

// A frame carrying a runaway timestamp (up to MaxInt64) must not wedge its
// shard replaying years of virtual-time monitor timers: the advance window
// rejects it and closes only the offending connection, preserving the
// "a stalled client cannot stall a shard" guarantee.
func TestServerRejectsRunawayTimeAdvance(t *testing.T) {
	srv, addr := startServer(t, nil)

	healthy, _, err := wire.Dial(addr, wire.Message{SUO: "steady", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	bomb, _, err := wire.Dial(addr, wire.Message{SUO: "bomb", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer bomb.Close()
	eventually(t, "both registered", func() bool { return srv.Pool.Size() == 2 })

	// Heartbeat path: a hostile At, one frame, would otherwise be ~10^11
	// repeater steps on the shard goroutine.
	if err := bomb.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "bomb", At: sim.Time(math.MaxInt64)}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "offender removed", func() bool { return srv.Pool.Size() == 1 })
	msg, err := bomb.Decode()
	if err == nil && (msg.Type != wire.TypeError || msg.Error == nil) {
		t.Fatalf("offender should see an error frame (or a close), got %+v", msg)
	}

	// Observation path: the event's own timestamp is vetted the same way.
	bomb2, _, err := wire.Dial(addr, wire.Message{SUO: "bomb2", Codec: wire.CodecJSON})
	if err != nil {
		t.Fatal(err)
	}
	defer bomb2.Close()
	eventually(t, "second offender registered", func() bool { return srv.Pool.Size() == 2 })
	ev := event.Event{Kind: event.Output, Name: "out", Source: "suo", At: sim.Time(math.MaxInt64)}
	if err := bomb2.SendEvent("bomb2", ev); err != nil {
		t.Fatal(err)
	}
	eventually(t, "second offender removed", func() bool { return srv.Pool.Size() == 1 })

	// The shard keeps serving the healthy device: in-window advances and
	// the flush barrier still work.
	if err := healthy.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "steady", At: 2 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	msg, err = healthy.Decode()
	if err != nil || msg.Type != wire.TypeHeartbeat || msg.At != 2*sim.Second {
		t.Fatalf("healthy heartbeat echo: %+v, %v", msg, err)
	}
}

// An operator-supplied huge MaxAdvance (effectively disabling the bound)
// must not overflow the window arithmetic and start rejecting well-behaved
// frames once the clock has advanced.
func TestServerHugeMaxAdvanceDoesNotOverflow(t *testing.T) {
	srv, addr := startServer(t, func(s *Server) { s.MaxAdvance = sim.Time(math.MaxInt64) })
	wc, _, err := wire.Dial(addr, wire.Message{SUO: "wide", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eventually(t, "registered", func() bool { return srv.Pool.Size() == 1 })

	for _, at := range []sim.Time{sim.Second, 5 * sim.Second} {
		if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "wide", At: at}); err != nil {
			t.Fatal(err)
		}
		msg, err := wc.Decode()
		if err != nil || msg.Type != wire.TypeHeartbeat || msg.At != at {
			t.Fatalf("heartbeat %s: got %+v, %v", at, msg, err)
		}
	}
}

// tempErr mimics a transient accept failure (EMFILE under load).
type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

// flakyListener fails its first Accept with a temporary error.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, tempErr{}
	}
	return l.Listener.Accept()
}

// A transient accept failure must not end Serve — that would take down the
// whole ingestion daemon and every connected device. Serve backs off and
// keeps accepting.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	pool := NewPool(Options{Shards: 1})
	t.Cleanup(pool.Stop)
	srv := &Server{Pool: pool, Factory: LightMonitorFactory(), Logf: t.Logf}
	addr := "unix:" + filepath.Join(t.TempDir(), "flaky.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); ln.Close() })
	done := make(chan error, 1)
	go func() { done <- srv.Serve(&flakyListener{Listener: ln}) }()

	// The first Accept fails; this connection only succeeds if Serve retried.
	wc, _, err := wire.Dial(addr, wire.Message{SUO: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eventually(t, "registration after transient accept error", func() bool { return srv.Pool.Size() == 1 })
	select {
	case err := <-done:
		t.Fatalf("Serve returned on a temporary accept error: %v", err)
	default:
	}
}

func TestServerControlPushAndClose(t *testing.T) {
	srv, addr := startServer(t, nil)
	wc, _, err := wire.Dial(addr, wire.Message{SUO: "tv-9", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eventually(t, "registered", func() bool { return srv.Pool.Size() == 1 })

	if err := srv.Control("tv-9", wire.CtrlRecover); err != nil {
		t.Fatal(err)
	}
	msg, err := wc.Decode()
	if err != nil || msg.Type != wire.TypeControl || msg.Control != wire.CtrlRecover {
		t.Fatalf("control frame: %+v, %v", msg, err)
	}
	if err := srv.Control("ghost", wire.CtrlStop); err == nil {
		t.Fatal("control to unknown device should error")
	}

	// Close pushes a stop control down the connection, then tears it down.
	srv.Close()
	sawStop := false
	for {
		msg, err := wc.Decode()
		if err != nil {
			break
		}
		if msg.Type == wire.TypeControl && msg.Control == wire.CtrlStop {
			sawStop = true
		}
	}
	if !sawStop {
		t.Fatal("Close should push CtrlStop before closing connections")
	}
	eventually(t, "all devices removed", func() bool { return srv.Pool.Size() == 0 })
}

// Server.Disconnect (the quarantine rung's final act) closes a registered
// device's connection and unwinds it like any client-initiated disconnect.
func TestServerDisconnect(t *testing.T) {
	srv, addr := startServer(t, nil)
	wc, _, err := wire.Dial(addr, wire.Message{SUO: "q-1", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eventually(t, "registered", func() bool { return srv.Pool.Size() == 1 })
	if err := srv.Disconnect("q-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Decode(); err == nil {
		t.Fatal("client connection should be closed after Disconnect")
	}
	eventually(t, "device removed", func() bool { return srv.Pool.Size() == 0 })
	if err := srv.Disconnect("q-1"); err == nil {
		t.Fatal("Disconnect of an unknown device should error")
	}
	if err := srv.Control("q-1", wire.CtrlReset); err == nil {
		t.Fatal("Control after Disconnect should error")
	}
}

// The Close broadcast and controller pushes share conn.send with the read
// loop's teardown. A push racing a device's disconnect — client-initiated
// or Server.Disconnect — must return an error, never write into a closed
// connection or panic. Run under -race in the standard gate.
func TestControlPushRacesDisconnect(t *testing.T) {
	srv, addr := startServer(t, nil)
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("racer-%02d", i)
		wc, _, err := wire.Dial(addr, wire.Message{SUO: id, Codec: wire.CodecBinary})
		if err != nil {
			t.Fatal(err)
		}
		eventually(t, "registered", func() bool { return srv.Pool.Size() == 1 })
		// Drain pushes so the client's socket buffer never stalls the test.
		go func() {
			for {
				if _, err := wc.Decode(); err != nil {
					return
				}
			}
		}()
		pushed := make(chan error, 1)
		go func() {
			for {
				if err := srv.Control(id, wire.CtrlReset); err != nil {
					pushed <- err
					return
				}
			}
		}()
		// Alternate who kills the connection while pushes are in flight.
		if i%2 == 0 {
			wc.Close()
		} else {
			_ = srv.Disconnect(id)
			wc.Close()
		}
		err = <-pushed
		if err == nil {
			t.Fatal("push against a closed connection returned nil")
		}
		eventually(t, "device removed", func() bool { return srv.Pool.Size() == 0 })
	}
}

// TypeAck frames route to Server.OnAck tagged with the handshaken device
// ID, and their client-supplied At is vetted by the same advance window as
// every other frame.
func TestServerRoutesAcks(t *testing.T) {
	type ack struct {
		id  string
		cmd wire.ControlCommand
		at  sim.Time
	}
	acks := make(chan ack, 4)
	srv, addr := startServer(t, func(s *Server) {
		s.MaxAdvance = sim.Second
		s.OnAck = func(id string, m wire.Message) {
			acks <- ack{id: id, cmd: m.Control, at: m.At}
		}
	})
	wc, _, err := wire.Dial(addr, wire.Message{SUO: "acker", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eventually(t, "registered", func() bool { return srv.Pool.Size() == 1 })
	if err := wc.Encode(wire.Ack("spoofed-id", wire.CtrlRestart, 5*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	got := <-acks
	if got.id != "acker" || got.cmd != wire.CtrlRestart || got.at != 5*sim.Millisecond {
		t.Fatalf("ack routed as %+v, want handshaken ID acker / restart / 5ms", got)
	}
	// A runaway ack timestamp is a protocol violation like any other.
	if err := wc.Encode(wire.Ack("acker", wire.CtrlRestart, 2*sim.Second)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "offender removed", func() bool { return srv.Pool.Size() == 0 })
	select {
	case a := <-acks:
		t.Fatalf("out-of-window ack was still routed: %+v", a)
	default:
	}
}

// The diagnosis pull path: RequestSnapshot pushes a TypeSnapshotReq down
// the device's connection; the answering TypeSnapshot routes to OnSnapshot
// under the handshaken ID (never the spoofable SUO field), with its client
// timestamp vetted by the advance window like every other frame.
func TestServerSnapshotPullAndRouting(t *testing.T) {
	type evidence struct {
		id   string
		snap *wire.Snapshot
		at   sim.Time
	}
	snaps := make(chan evidence, 4)
	srv, addr := startServer(t, func(s *Server) {
		s.MaxAdvance = sim.Second
		s.OnSnapshot = func(id string, m wire.Message) {
			snaps <- evidence{id: id, snap: m.Snapshot, at: m.At}
		}
	})
	if err := srv.RequestSnapshot("nobody"); err == nil {
		t.Fatal("pulling an unknown device should fail")
	}
	wc, _, err := wire.Dial(addr, wire.Message{SUO: "spectral", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eventually(t, "registered", func() bool { return srv.Pool.Size() == 1 })
	if err := srv.RequestSnapshot("spectral"); err != nil {
		t.Fatal(err)
	}
	req, err := wc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if req.Type != wire.TypeSnapshotReq || req.SUO != "spectral" {
		t.Fatalf("client received %+v, want a snapshot_req", req)
	}
	answer := &wire.Snapshot{Blocks: 128, Events: 3,
		Windows: []wire.SpectrumWindow{{Seq: 1, At: 5 * sim.Millisecond, Words: []uint64{9, 0}}}}
	if err := wc.Encode(wire.Message{Type: wire.TypeSnapshot, SUO: "spoofed",
		At: 7 * sim.Millisecond, Snapshot: answer}); err != nil {
		t.Fatal(err)
	}
	got := <-snaps
	if got.id != "spectral" || got.at != 7*sim.Millisecond {
		t.Fatalf("snapshot routed as %q at %s, want handshaken ID spectral at 7ms", got.id, got.at)
	}
	if got.snap == nil || got.snap.Blocks != 128 || len(got.snap.Windows) != 1 || got.snap.Windows[0].Words[0] != 9 {
		t.Fatalf("snapshot payload mangled: %+v", got.snap)
	}
	// A runaway snapshot timestamp is a protocol violation like any other.
	if err := wc.Encode(wire.Message{Type: wire.TypeSnapshot, SUO: "spectral",
		At: 5 * sim.Second, Snapshot: answer}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "offender removed", func() bool { return srv.Pool.Size() == 0 })
	select {
	case s := <-snaps:
		t.Fatalf("out-of-window snapshot was still routed: %+v", s)
	default:
	}
}

// HealthyDevices lists exactly the non-quarantined fleet, sorted — the
// diagnosis engine's cohort source.
func TestHealthyDevices(t *testing.T) {
	pool := NewPool(Options{Shards: 2})
	defer pool.Stop()
	for _, id := range []string{"c", "a", "b"} {
		if err := pool.AddDevice(id, 1, LightFactory(0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pool.HealthyDevices(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("healthy = %v", got)
	}
	if _, err := pool.QuarantineDevice("b"); err != nil {
		t.Fatal(err)
	}
	if got := pool.HealthyDevices(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("healthy after quarantine = %v", got)
	}
}
