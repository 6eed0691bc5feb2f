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
	"testing"
	"time"

	"trader/internal/control"
	"trader/internal/core"
	"trader/internal/daemon"
	"trader/internal/device"
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
		model := statemachine.MustDefine("dev", []string{"x"}, r).New(k)
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
	clients := make([]*device.Client, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialE2E(t, addr, id(i), wire.CodecBinary)
			clients[i] = c
			defer c.Close()
			x := 0.0
			if faulty(i) && !silent(i) {
				x = 2.0
			}
			// step streams tick n; an error means the device is down, and
			// a frame lost while it is down is the downtime.
			step := func(n int) error {
				at := sim.Time(n) * tick
				switch {
				case silent(i) && n > 10:
					if n%5 == 0 {
						return c.Heartbeat(at)
					}
					return nil
				default:
					err := c.Send(event.Event{Kind: event.Output, Name: "out", Source: id(i), At: at}.With("x", x))
					if n%10 == 0 {
						err = c.Heartbeat(at)
					}
					return err
				}
			}
			for n := 1; n <= ticks; n++ {
				if c.Stats().Quarantines != 0 {
					return
				}
				step(n)
			}
			if !faulty(i) {
				c.Heartbeat(sim.Time(ticks) * tick)
				return
			}
			for n := ticks + 1; n <= 2000 && c.Stats().Quarantines == 0; n++ {
				if step(n) != nil {
					time.Sleep(5 * time.Millisecond) // mid-restart: wait it out
				}
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
			if n := clients[i].Stats().Reports; n != 0 {
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
		if n := clients[i].Stats().Restarts; n != 1 {
			t.Fatalf("%s honored %d restarts, want 1", id(i), n)
		}
		if n := clients[i].Stats().Quarantines; n != 1 {
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

	rd, st := newDaemon(t, daemon.Config{Replay: dir, Shards: 4}, silenceMonitorFactory())
	rec := rd.Pool()
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
