package trader_test

// End-to-end test of the recovery control plane (ISSUE 4): 60 remote
// devices stream through a journaling ingestion server with the recovery
// controller attached; every 6th device injects a fault — alternating
// persistent deviations and silence — on a schedule. The controller must
// march exactly the faulty devices up the escalation ladder in order
// (tolerate → reset → restart → quarantine), the restarted clients must
// re-handshake and resume, quarantined devices must stop receiving
// dispatches, the recovery rollup's downtime must match the recovery
// manager's accounting, and a journal replay must reproduce the identical
// recovery-action sequence byte for byte.

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trader/internal/control"
	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/wire"
)

// silenceMonitorFactory is LightMonitorFactory plus a silence deadline, so
// a device that goes quiet while heartbeating is reported by the silence
// detector — the second fault class this e2e injects.
func silenceMonitorFactory() fleet.MonitorFactory {
	return func(id string, seed int64) (*sim.Kernel, *core.Monitor, error) {
		k := sim.NewKernel(seed)
		r := statemachine.NewRegion("dev")
		r.Add(&statemachine.State{Name: "run", Entry: func(c *statemachine.Context) { c.Set("x", 0) }})
		model := statemachine.MustModel("dev-"+id, k, r)
		mon, err := core.NewMonitor(k, model, core.Configuration{
			Observables: []core.Observable{{Name: "x", EventName: "out", ValueName: "x", ModelVar: "x",
				Threshold: 0.25, Tolerance: 1, MaxSilence: 100 * sim.Millisecond}},
			CompareEvery: 10 * sim.Millisecond,
		})
		if err != nil {
			return nil, nil, err
		}
		if err := mon.Start(); err != nil {
			return nil, nil, err
		}
		return k, mon, nil
	}
}

// recoveryClient is a remote SUO that honors the control plane: it streams
// observations, acks resets, re-handshakes on restart and stops on
// quarantine — the in-test twin of tvsim's -connect client.
type recoveryClient struct {
	t        *testing.T
	addr, id string

	mu          sync.Mutex
	wc          *wire.Conn
	down        bool
	quarantined bool
	// stopped latches at close: a restart re-dial still in flight must
	// not resurrect the connection after the session ended.
	stopped bool

	lastAt              atomic.Int64
	reports             atomic.Uint64
	restartsHonored     atomic.Uint64
	quarantinesReceived atomic.Uint64
	echo                chan sim.Time
}

func dialRecovery(t *testing.T, addr, id string) *recoveryClient {
	t.Helper()
	c := &recoveryClient{t: t, addr: addr, id: id, echo: make(chan sim.Time, 64)}
	wc, _, err := wire.Dial(addr, wire.Message{SUO: id, Codec: wire.CodecBinary})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	c.wc = wc
	go c.read(wc)
	return c
}

func (c *recoveryClient) conn() *wire.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down || c.wc == nil {
		return nil
	}
	return c.wc
}

func (c *recoveryClient) isQuarantined() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}

func (c *recoveryClient) read(wc *wire.Conn) {
	for {
		msg, err := wc.Decode()
		if err != nil {
			return
		}
		switch msg.Type {
		case wire.TypeError:
			c.reports.Add(1)
		case wire.TypeHeartbeat:
			select {
			case c.echo <- msg.At:
			default:
			}
		case wire.TypeControl:
			switch msg.Control {
			case wire.CtrlReset:
				if live := c.conn(); live != nil {
					ack := wire.Ack(c.id, wire.CtrlReset, sim.Time(c.lastAt.Load()))
					// Echo the push's trace context (nil when untraced), so
					// the server closes the exchange with a forced ack span.
					ack.Trace = msg.Trace
					_ = live.Encode(ack)
				}
			case wire.CtrlRestart:
				// Honored synchronously: a restarting SUO stops consuming
				// its old connection (anything still buffered there is
				// lost with it — the server re-delivers a quarantine
				// verdict on the next handshake). The next Decode sees the
				// closed old connection and ends this reader.
				c.restart(msg.Trace)
			case wire.CtrlQuarantine:
				c.quarantinesReceived.Add(1)
				c.mu.Lock()
				c.quarantined, c.down = true, true
				c.mu.Unlock()
				wc.Close()
				return
			}
		}
	}
}

func (c *recoveryClient) restart(tc *wire.TraceContext) {
	c.mu.Lock()
	if c.quarantined || c.stopped {
		c.mu.Unlock()
		return
	}
	c.down = true
	old := c.wc
	c.wc = nil
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	var wc *wire.Conn
	var err error
	for try := 0; try < 100; try++ {
		if wc, _, err = wire.Dial(c.addr, wire.Message{SUO: c.id, Codec: wire.CodecBinary}); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		c.t.Errorf("%s: restart re-handshake: %v", c.id, err)
		return
	}
	c.mu.Lock()
	if c.quarantined || c.stopped { // overtaken while re-dialing: stay down
		c.mu.Unlock()
		wc.Close()
		return
	}
	c.wc = wc
	c.down = false
	c.mu.Unlock()
	// Only now is the restart honored: re-handshaken and streaming again.
	c.restartsHonored.Add(1)
	ack := wire.Ack(c.id, wire.CtrlRestart, sim.Time(c.lastAt.Load()))
	ack.Trace = tc
	_ = wc.Encode(ack)
	go c.read(wc)
}

// frame streams one observation; lost frames while down are the downtime.
func (c *recoveryClient) frame(at sim.Time, x float64) {
	wc := c.conn()
	if wc == nil {
		return
	}
	c.lastAt.Store(int64(at))
	ev := event.Event{Kind: event.Output, Name: "out", Source: c.id, At: at}.With("x", x)
	_ = wc.SendEvent(c.id, ev)
}

// flush heartbeats and waits for the echo — the per-connection pacing
// barrier that keeps the client from outrunning its shard.
func (c *recoveryClient) flush(at sim.Time) {
	wc := c.conn()
	if wc == nil {
		return
	}
	c.lastAt.Store(int64(at))
	if wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: c.id, At: at}) != nil {
		return
	}
	select {
	case <-c.echo:
	case <-time.After(2 * time.Second):
	}
}

func (c *recoveryClient) close() {
	c.mu.Lock()
	wc := c.wc
	c.wc, c.down, c.stopped = nil, true, true
	c.mu.Unlock()
	if wc != nil {
		wc.Close()
	}
}

func TestE2EFaultInjectionRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 60-device fault-injection e2e in -short mode")
	}
	const (
		devices     = 60
		faultyEvery = 6 // every 6th device injects a fault
		ticks       = 150
		tick        = 10 * sim.Millisecond
		latency     = 40 * sim.Millisecond
	)
	faulty := func(i int) bool { return i%faultyEvery == 0 }
	// Faulty devices alternate fault classes: deviations and silence.
	silent := func(i int) bool { return faulty(i) && (i/faultyEvery)%2 == 1 }
	id := func(i int) string { return fmt.Sprintf("fi-%03d", i) }

	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: 4})
	defer pool.Stop()
	srv := &fleet.Server{Pool: pool, Factory: silenceMonitorFactory(),
		HelloTimeout: 5 * time.Second, Journal: jw}
	defer srv.Close()

	var actMu sync.Mutex
	var live []control.Action
	pol := control.Policy{Name: "e2e", Tolerate: 1, Resets: 1, Restarts: 1,
		RestartLatency: latency, Cooldown: 10 * sim.Second}
	ctl := control.Attach(pool, control.Options{
		Actuator: srv, Journal: jw, Policy: pol, Logf: t.Logf,
		OnAction: func(a control.Action) {
			actMu.Lock()
			live = append(live, a)
			actMu.Unlock()
		},
	})
	defer ctl.Close()
	srv.OnAck = ctl.HandleAck

	addr := "unix:" + filepath.Join(t.TempDir(), "fi.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	// The fleet streams concurrently. Healthy devices send a clean frame
	// every 10ms of virtual time; deviating devices send x=2 persistently;
	// silent devices stop observing after 100ms but keep heartbeating, so
	// only the silence detector can catch them. Faulty devices keep
	// producing evidence past the nominal horizon until the controller has
	// quarantined them (capped, so a stalled ladder fails the test).
	clients := make([]*recoveryClient, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialRecovery(t, addr, id(i))
			clients[i] = c
			defer c.close()
			x := 0.0
			if faulty(i) && !silent(i) {
				x = 2.0
			}
			step := func(n int) {
				at := sim.Time(n) * tick
				switch {
				case silent(i) && n > 10:
					if n%5 == 0 {
						c.flush(at)
					}
				default:
					c.frame(at, x)
					if n%10 == 0 {
						c.flush(at)
					}
				}
			}
			for n := 1; n <= ticks; n++ {
				if c.isQuarantined() {
					return
				}
				step(n)
			}
			if !faulty(i) {
				c.flush(sim.Time(ticks) * tick)
				return
			}
			for n := ticks + 1; n <= 2000 && !c.isQuarantined(); n++ {
				if c.conn() == nil {
					time.Sleep(5 * time.Millisecond) // mid-restart: wait it out
					continue
				}
				step(n)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	nFaulty := 0
	for i := 0; i < devices; i++ {
		if faulty(i) {
			nFaulty++
		}
	}
	waitFor(t, "all faulty devices quarantined", func() bool {
		return ctl.Rollup().Quarantined == nFaulty
	})
	ctl.Sync()

	// 1. The escalation ladder fired in order, per faulty device, exactly
	// once each — and never for a healthy device.
	ladder := []control.Rung{control.RungTolerate, control.RungReset, control.RungRestart, control.RungQuarantine}
	actMu.Lock()
	perDevice := make(map[string][]control.Action)
	for _, a := range live {
		perDevice[a.Device] = append(perDevice[a.Device], a)
	}
	liveFrames := make([]wire.Message, len(live))
	for i, a := range live {
		liveFrames[i] = a.Frame()
	}
	actMu.Unlock()
	if len(perDevice) != nFaulty {
		t.Fatalf("controller acted on %d devices, want the %d faulty ones", len(perDevice), nFaulty)
	}
	for i := 0; i < devices; i++ {
		acts := perDevice[id(i)]
		if !faulty(i) {
			if len(acts) != 0 {
				t.Fatalf("healthy %s drew actions %v", id(i), acts)
			}
			if n := clients[i].reports.Load(); n != 0 {
				t.Fatalf("healthy %s received %d error frames", id(i), n)
			}
			continue
		}
		if len(acts) != len(ladder) {
			t.Fatalf("%s: %d actions %v, want the full ladder", id(i), len(acts), acts)
		}
		for j, a := range acts {
			if a.Rung != ladder[j] {
				t.Fatalf("%s: action %d is %s, want %s (ladder out of order: %v)", id(i), j, a.Rung, ladder[j], acts)
			}
		}
		wantClass := control.ClassDeviation
		if silent(i) {
			wantClass = control.ClassSilence
		}
		for _, a := range acts {
			if a.Class != wantClass {
				t.Fatalf("%s: action %s classified %s, want %s", id(i), a.Rung, a.Class, wantClass)
			}
		}
		if n := clients[i].restartsHonored.Load(); n != 1 {
			t.Fatalf("%s honored %d restarts, want 1", id(i), n)
		}
		if n := clients[i].quarantinesReceived.Load(); n != 1 {
			t.Fatalf("%s received %d quarantines, want 1", id(i), n)
		}
	}

	// 2. Quarantined devices stop receiving dispatches: probe each one and
	// check its monitor does not move.
	before := pool.DeviceStats()
	qBase := pool.Rollup().Quarantined
	for i := 0; i < devices; i++ {
		if faulty(i) {
			ev := event.Event{Kind: event.Output, Name: "out", Source: "probe", At: 30 * sim.Second}.With("x", 9)
			if err := pool.Dispatch(id(i), ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	ro := pool.Rollup()
	if ro.Quarantined != qBase+uint64(nFaulty) {
		t.Fatalf("quarantine drops %d, want %d more than the %d from the live run",
			ro.Quarantined, nFaulty, qBase)
	}
	after := pool.DeviceStats()
	for i := 0; i < devices; i++ {
		if faulty(i) && before[id(i)] != after[id(i)] {
			t.Fatalf("quarantined %s monitor moved on probe: %+v -> %+v", id(i), before[id(i)], after[id(i)])
		}
	}

	// 3. The recovery rollup's downtime is the recovery manager's
	// accounting: every faulty device completed exactly one restart of
	// exactly the policy latency (quarantine implies the restart finished).
	cro := ctl.Rollup()
	if cro.JournalErrors != 0 || cro.Dropped != 0 {
		t.Fatalf("controller lost evidence: %s", cro)
	}
	if cro.RestartsCompleted != uint64(nFaulty) {
		t.Fatalf("restarts completed = %d, want %d", cro.RestartsCompleted, nFaulty)
	}
	if want := sim.Time(nFaulty) * latency; cro.Downtime != want {
		t.Fatalf("downtime = %s, want %s (manager accounting)", cro.Downtime, want)
	}
	if cro.Silences == 0 || cro.Deviations == 0 {
		t.Fatalf("both fault classes must be observed: %s", cro)
	}
	if crit := control.Criticality(cro); len(crit) != 3 {
		t.Fatalf("criticality entries = %d, want 3", len(crit))
	}

	// 4. Replay reproduces the identical recovery-action sequence, byte
	// for byte, and re-applies it: the replayed pool has the same devices
	// quarantined.
	srv.Close()
	ln.Close()
	ctl.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []wire.Message
	for {
		m, err := jr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("journal read: %v", err)
		}
		if m.Type == wire.TypeControl {
			replayed = append(replayed, m)
		}
	}
	jr.Close()
	if len(replayed) != len(liveFrames) {
		t.Fatalf("journal holds %d action records, live controller took %d", len(replayed), len(liveFrames))
	}
	for i := range liveFrames {
		want, err1 := wire.Binary.Append(nil, liveFrames[i])
		got, err2 := wire.Binary.Append(nil, replayed[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("action %d not byte-identical: live %+v, journal %+v", i, liveFrames[i], replayed[i])
		}
	}

	rec := fleet.NewPool(fleet.Options{Shards: 4})
	defer rec.Stop()
	jr2, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rec.Replay(jr2, silenceMonitorFactory())
	jr2.Close()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if st.Actions != len(liveFrames) {
		t.Fatalf("replay re-applied %d actions, want %d", st.Actions, len(liveFrames))
	}
	if st.Devices != devices {
		t.Fatalf("replay rebuilt %d devices, want %d", st.Devices, devices)
	}
	// The replay itself re-drops frames journaled after each quarantine
	// action (the client kept streaming until it learned its standing), so
	// probe against that baseline: exactly the faulty devices must drop.
	qReplayed := rec.Rollup().Quarantined
	for i := 0; i < devices; i++ {
		ev := event.Event{Kind: event.Output, Name: "out", Source: "probe", At: 30 * sim.Second}.With("x", 9)
		if err := rec.Dispatch(id(i), ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Rollup().Quarantined; got != qReplayed+uint64(nFaulty) {
		t.Fatalf("replayed pool dropped %d probes as quarantined (baseline %d), want exactly the %d faulty devices",
			got-qReplayed, qReplayed, nFaulty)
	}
}
