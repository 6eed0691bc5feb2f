package trader_test

// End-to-end test of the networked fleet ingestion path (ISSUE 2): many
// remote SUO clients — the same wire client `tvsim -connect` uses — stream
// through a listening ingestion server into one sharded fleet.Pool, over a
// real Unix socket, with codec negotiation, live disconnects and stats
// conservation checked along the way.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/core"
	"trader/internal/daemon"
	"trader/internal/device"
	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// dialE2E connects one remote SUO through the compliant device client —
// the client `tvsim -connect` streams through — failing the test when the
// handshake does.
func dialE2E(t *testing.T, addr, id, codec string) *device.Client {
	t.Helper()
	c := &device.Client{}
	if _, err := c.Dial(addr, wire.Message{SUO: id, Codec: codec}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return c
}

// stream sends n observations of the commanded level x at 10ms spacing
// starting from fromMs, then heartbeats and waits for the echo, so on
// return every observation has been through this device's monitor.
func stream(t *testing.T, c *device.Client, id string, n int, x float64, fromMs int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		at := sim.Time(fromMs+int64(i)*10) * sim.Millisecond
		ev := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", x)
		if err := c.Send(ev); err != nil {
			t.Errorf("%s: send: %v", id, err)
			return
		}
	}
	hbAt := sim.Time(fromMs+int64(n)*10) * sim.Millisecond
	if err := flushWithin(c, hbAt, 10*time.Second); err != nil {
		t.Errorf("%s: heartbeat: %v", id, err)
	}
}

// flushWithin is c.Heartbeat(at) bounded by d: an echo that has not
// arrived by then fails the flush.
func flushWithin(c *device.Client, at sim.Time, d time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- c.Heartbeat(at) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("heartbeat echo never arrived within %v", d)
	}
}

// newDaemon builds and boots the daemon traderd runs for cfg, monitoring
// every device with factory; it closes when the test ends.
func newDaemon(t *testing.T, cfg daemon.Config, factory fleet.MonitorFactory) (*daemon.Daemon, fleet.ReplayStats) {
	t.Helper()
	cfg.SUO, cfg.Profiles = "e2e", map[string]fleet.MonitorFactory{"e2e": factory}
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	st, err := d.Boot()
	if err != nil {
		t.Fatal(err)
	}
	return d, st
}

// serveDaemon is newDaemon serving on a fresh Unix socket, whose address
// it returns.
func serveDaemon(t *testing.T, cfg daemon.Config, factory fleet.MonitorFactory) (*daemon.Daemon, string) {
	t.Helper()
	cfg.Listen = "unix:" + filepath.Join(t.TempDir(), "traderd.sock")
	d, _ := newDaemon(t, cfg, factory)
	if _, err := d.Serve(); err != nil {
		t.Fatal(err)
	}
	return d, cfg.Listen
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestE2EFleetIngestion(t *testing.T) {
	if testing.Short() {
		// CI's race job runs -short for bounded wall time; the smoke job
		// runs the full suite, so this 120-device run is never lost.
		t.Skip("skipping 120-device e2e in -short mode")
	}
	const (
		devices     = 120
		framesEach  = 40
		faultyEvery = 10 // every 10th device streams a deviating level
	)

	d, addr := serveDaemon(t, daemon.Config{Shards: 4}, fleet.LightMonitorFactory())
	pool := d.Pool()

	// Phase 1: connect the whole fleet, alternating codecs per connection.
	clients := make([]*device.Client, devices)
	ids := make([]string, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codec := wire.CodecBinary
			if i%2 == 1 {
				codec = wire.CodecJSON
			}
			ids[i] = fmt.Sprintf("e2e-%06d", i)
			clients[i] = dialE2E(t, addr, ids[i], codec)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	waitFor(t, "all devices registered", func() bool { return pool.Size() == devices })

	// Phase 2: every device streams concurrently; faulty ones deviate from
	// the spec model's commanded level 0 and must be flagged.
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *device.Client) {
			defer wg.Done()
			x := 0.0
			if i%faultyEvery == 0 {
				x = 2.0
			}
			stream(t, c, ids[i], framesEach, x, 10)
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Stats conservation: the fleet rollup equals the per-device sum, every
	// sent frame was dispatched to a live device, and exactly the faulty
	// devices were flagged — across the wire, not just in-process.
	ro := pool.Rollup()
	if ro.Devices != devices {
		t.Fatalf("rollup devices = %d, want %d", ro.Devices, devices)
	}
	wantFrames := uint64(devices * framesEach)
	if ro.Dispatched != wantFrames || ro.Dropped != 0 {
		t.Fatalf("dispatched = %d (dropped %d), want %d dispatched, 0 dropped", ro.Dispatched, ro.Dropped, wantFrames)
	}
	var sum core.MonitorStats
	per := pool.DeviceStats()
	for _, st := range per {
		sum.Add(st)
	}
	if len(per) != devices || sum != ro.Monitor {
		t.Fatalf("per-device sum %+v != rollup %+v over %d devices", sum, ro.Monitor, len(per))
	}
	if sum.OutputsSeen != wantFrames {
		t.Fatalf("monitors saw %d outputs, want %d", sum.OutputsSeen, wantFrames)
	}
	faulty := devices / faultyEvery
	if ro.Reports != uint64(faulty) {
		t.Fatalf("fleet flagged %d devices, want exactly the %d faulty ones", ro.Reports, faulty)
	}
	for i, c := range clients {
		want := 0
		if i%faultyEvery == 0 {
			want = 1
		}
		if got := int(c.Stats().Reports); got != want {
			t.Errorf("%s received %d error frames, want %d", ids[i], got, want)
		}
	}
	cs := d.Server().Stats()
	if cs.Accepted != devices || cs.Frames != wantFrames {
		t.Fatalf("server stats = %+v", cs)
	}

	// Phase 3: live churn — half the fleet disconnects mid-session while
	// the survivors keep streaming; the daemon must shed exactly the
	// departed devices and keep ingesting.
	for i := 0; i < devices/2; i++ {
		clients[i].Close()
	}
	waitFor(t, "departed devices removed", func() bool { return pool.Size() == devices/2 })
	for i := devices / 2; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stream(t, clients[i], ids[i], 10, 0, 10+framesEach*10)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ro = pool.Rollup()
	if ro.Devices != devices/2 || ro.Dropped != 0 {
		t.Fatalf("after churn: %d devices (dropped %d), want %d", ro.Devices, ro.Dropped, devices/2)
	}

	// A departed ID's shard slot is free: it can reconnect immediately.
	re := dialE2E(t, addr, ids[0], wire.CodecBinary)
	defer re.Close()
	waitFor(t, "reconnect", func() bool { return pool.Size() == devices/2+1 })
	stream(t, re, ids[0], 5, 0, 1000)
}

// TestMonitorOverSocket is the Fig. 2 deployment on the paper's own SUO: a
// simulated TV streams its bus over the wire into the daemon's ingestion
// server, whose TV monitor reports an injected audio corruption back down
// the same connection as an error frame.
func TestMonitorOverSocket(t *testing.T) {
	_, addr := serveDaemon(t, daemon.Config{Shards: 1}, func(_ string, seed int64) (*sim.Kernel, *core.Monitor, error) {
		k := sim.NewKernel(seed)
		mon, err := tvsim.NewMonitor(k, tvsim.Config{})
		return k, mon, err
	})
	var mu sync.Mutex
	var gotErrors []wire.Message
	c := &device.Client{OnError: func(m wire.Message) {
		mu.Lock()
		gotErrors = append(gotErrors, m)
		mu.Unlock()
	}}
	if _, err := c.Dial(addr, wire.Message{SUO: "tv"}); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	k := sim.NewKernel(6)
	tv := tvsim.New(k, tvsim.Config{})
	tv.Bus().Subscribe("", func(e event.Event) {
		if e.Kind == event.Err {
			return
		}
		if err := c.Send(e); err != nil {
			t.Error(err)
		}
	})
	tv.PressKey(tvsim.KeyPower)
	k.Run(200 * sim.Millisecond)
	// Inject an audio corruption; the remote monitor must flag it.
	tv.Injector().Schedule(faults.Fault{
		ID: "skew", Kind: faults.ValueCorruption, Target: "audio",
		At: k.Now(), Param: -20,
	})
	k.Run(k.Now() + 100*sim.Millisecond)
	tv.PressKey(tvsim.KeyVolUp)
	k.Run(k.Now() + 100*sim.Millisecond)
	tv.PressKey(tvsim.KeyVolUp)
	k.Run(k.Now() + 100*sim.Millisecond)

	// The heartbeat echo is the drain barrier: every report the frames
	// before it raised has been written ahead of it.
	if err := flushWithin(c, k.Now(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, m := range gotErrors {
		if m.Error != nil && m.Error.Observable == "audio-volume" {
			found = true
		}
	}
	if !found {
		t.Fatalf("remote monitor did not report audio corruption; got %v", gotErrors)
	}
}
