package fleet

import (
	"bufio"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

// handlerName is the session method a frameHandlers entry names: "observe"
// for (*session).observe.
func handlerName(h func(*session, wire.Message, time.Time) bool) string {
	name := runtime.FuncForPC(reflect.ValueOf(h).Pointer()).Name()
	return name[strings.LastIndex(name, ".")+1:]
}

// The handler table must decide every frame type the codec knows — adding
// type 18 without saying what the daemon does with it fails here — and
// ARCHITECTURE.md §2.9's daemon column must say what the table says.
func TestEveryFrameTypeHasADaemonDecision(t *testing.T) {
	types := wire.MsgTypes()
	for _, typ := range types {
		if frameHandlers[typ] == nil {
			t.Errorf("frame type %q has no entry in frameHandlers", typ)
		}
	}
	if len(frameHandlers) != len(types) {
		t.Errorf("frameHandlers has %d entries for the codec's %d frame types", len(frameHandlers), len(types))
	}

	f, err := os.Open("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	documented := 0
	for sc, in := bufio.NewScanner(f), false; sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			in = strings.Contains(line, "Wire frame registry")
			continue
		}
		// | tag | `type` | payload field | daemon | specified in |
		cells := strings.Split(line, "|")
		if !in || len(cells) < 6 || !strings.HasPrefix(strings.TrimSpace(cells[2]), "`") || strings.TrimSpace(cells[1]) == "tag" {
			continue
		}
		typ := wire.MsgType(strings.Trim(strings.TrimSpace(cells[2]), "`"))
		doc := strings.Trim(strings.TrimSpace(cells[4]), "`")
		documented++
		if h := frameHandlers[typ]; h == nil {
			t.Errorf("§2.9 lists %q, which frameHandlers does not decide", typ)
		} else if got := handlerName(h); got != doc {
			t.Errorf("§2.9 says the daemon's decision for %q is %q; frameHandlers says %q", typ, doc, got)
		}
	}
	if documented != len(frameHandlers) {
		t.Errorf("§2.9 documents a daemon decision for %d frame types, frameHandlers has %d", documented, len(frameHandlers))
	}
}

// The session handlers are plain methods: this drives a scripted frame
// sequence through them with no listener, no Dial and no polling — a pipe
// end for the connection, a one-shard pool, a credit window of 4 and a
// journal — and checks the flow-control and shed bookkeeping frame by frame.
func TestSessionScriptedSequence(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Create(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(Options{Shards: 1, Queue: 16})
	t.Cleanup(pool.Stop) // registered ahead of blockShard's gate releases, so it runs after them
	srv := &Server{Pool: pool, Factory: LightMonitorFactory(), Journal: w,
		CreditWindow: 4, ShedObservationsAt: 0.75, Logf: t.Logf}

	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	rc := &remoteConn{Peer: wire.NewPeer(near)}
	// The far end plays the device's reader: a pipe write blocks until read.
	sent := make(chan wire.Message, 16)
	go func() {
		client := wire.NewConn(far)
		for {
			m, err := client.Decode()
			if err != nil {
				close(sent)
				return
			}
			sent <- m
		}
	}()
	if err := pool.AddRemoteDevice("dev", srv.Factory, rc.Send); err != nil {
		t.Fatal(err)
	}
	ss := &session{s: srv, id: "dev", rc: rc, maxAdv: DefaultMaxAdvance, window: 4, credits: 4}

	observe := func(atMs int64) bool {
		ev := outEvent(0, atMs)
		return ss.observe(wire.Message{Type: wire.TypeOutput, SUO: "spoofed", Event: &ev, At: ev.At}, time.Now())
	}
	heartbeat := func(at sim.Time, wantGrant uint32) {
		t.Helper()
		if !ss.heartbeat(wire.Message{Type: wire.TypeHeartbeat, At: at}, time.Now()) {
			t.Fatalf("heartbeat at %s ended the session", at)
		}
		echo := <-sent
		if echo.Type != wire.TypeHeartbeat || echo.At != at || echo.Credits != wantGrant {
			t.Fatalf("echo = %+v, want a heartbeat at %s granting %d", echo, at, wantGrant)
		}
		if ss.credits != ss.window {
			t.Fatalf("credits after echo = %d, want the full window %d", ss.credits, ss.window)
		}
	}

	// Pressure 8/16 = 0.5: at replenishPressure, so no mid-stream grant tops
	// the window up, and below the shed threshold, so frames are admitted.
	release := blockShard(t, pool, 0, 8)
	for i := int64(1); i <= 3; i++ {
		if !observe(10 * i) {
			t.Fatalf("observation %d ended the session", i)
		}
	}
	if ss.credits != 1 || srv.Stats().Frames != 3 {
		t.Fatalf("after 3 observations: credits %d, frames %d; want 1 and 3", ss.credits, srv.Stats().Frames)
	}
	release()
	// The echo restores exactly window − credits.
	heartbeat(sim.Second, 3)

	// Pressure 12/16 = 0.75: tier 1 sheds. The refused frame spends its
	// credit, reaches neither the journal nor the pool, and waits in the
	// pending marker.
	release = blockShard(t, pool, 0, 12)
	if !observe(1010) {
		t.Fatal("a shed observation must not end the session")
	}
	if ss.credits != 3 || ss.pendingShed.Observations != 1 || srv.Stats().Frames != 3 {
		t.Fatalf("after a shed: credits %d, pending %+v, frames %d", ss.credits, ss.pendingShed, srv.Stats().Frames)
	}
	if obs, _ := shedCounts(pool); obs != 0 {
		t.Fatalf("shed counters moved (%d) before the marker was journaled", obs)
	}
	release()
	heartbeat(2*sim.Second, 1)
	if obs, _ := shedCounts(pool); obs != 1 || ss.pendingShed != (wire.ShedRecord{}) {
		t.Fatalf("after the flush: shed counter %d, pending %+v", obs, ss.pendingShed)
	}

	// Four observations exhaust the window; the fifth is the violation:
	// counted, answered with an error frame, and the end of the session.
	blockShard(t, pool, 0, 8)
	for i := int64(1); i <= 4; i++ {
		if !observe(2000 + 10*i) {
			t.Fatalf("observation %d of the last window ended the session", i)
		}
	}
	if ss.credits != 0 {
		t.Fatalf("credits = %d after a full window, want 0", ss.credits)
	}
	if observe(2050) {
		t.Fatal("an observation past the exhausted window must end the session")
	}
	if got := srv.Stats().CreditViolations; got != 1 {
		t.Fatalf("credit violations = %d, want 1", got)
	}
	if rep := <-sent; rep.Type != wire.TypeError || rep.Error == nil || !strings.Contains(rep.Error.Detail, "credit window violated") {
		t.Fatalf("violation answered with %+v", rep)
	}

	// The journal tells the same story, in stream order, under the
	// handshaken ID: the marker sits write-ahead of the heartbeat it was
	// flushed by, and neither refused frame was ever written.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []wire.MsgType
	for {
		m, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if m.SUO != "dev" {
			t.Fatalf("journal record %+v not tagged with the handshaken ID", m)
		}
		if m.Type == wire.TypeShed && *m.Shed != (wire.ShedRecord{Observations: 1}) {
			t.Fatalf("shed marker = %+v, want one observation", *m.Shed)
		}
		got = append(got, m.Type)
	}
	const o, hb = wire.TypeOutput, wire.TypeHeartbeat
	want := []wire.MsgType{o, o, o, hb, wire.TypeShed, hb, o, o, o, o}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal holds %v, want %v", got, want)
	}
}
