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
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/wire"
)

// e2eClient is one remote SUO: a handshaken connection plus a reader
// goroutine that counts the monitor's error frames and signals heartbeat
// echoes (the drain barrier).
type e2eClient struct {
	id      string
	conn    *wire.Conn
	mu      sync.Mutex
	reports int
	echo    chan sim.Time
}

func dialE2E(t *testing.T, addr, id, codec string) *e2eClient {
	t.Helper()
	conn, _, err := wire.Dial(addr, wire.Message{SUO: id, Codec: codec})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	c := &e2eClient{id: id, conn: conn, echo: make(chan sim.Time, 16)}
	go func() {
		for {
			msg, err := conn.Decode()
			if err != nil {
				return
			}
			switch msg.Type {
			case wire.TypeError:
				c.mu.Lock()
				c.reports++
				c.mu.Unlock()
			case wire.TypeHeartbeat:
				c.echo <- msg.At
			}
		}
	}()
	return c
}

func (c *e2eClient) reportCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reports
}

// stream sends n observations of the commanded level x at 10ms spacing
// starting from fromMs, then heartbeats and waits for the echo, so on
// return every observation has been through this device's monitor.
func (c *e2eClient) stream(t *testing.T, n int, x float64, fromMs int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		at := sim.Time(fromMs+int64(i)*10) * sim.Millisecond
		ev := event.Event{Kind: event.Output, Name: "out", Source: c.id, At: at}.With("x", x)
		if err := c.conn.SendEvent(c.id, ev); err != nil {
			t.Errorf("%s: send: %v", c.id, err)
			return
		}
	}
	hbAt := sim.Time(fromMs+int64(n)*10) * sim.Millisecond
	if err := c.conn.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: c.id, At: hbAt}); err != nil {
		t.Errorf("%s: heartbeat: %v", c.id, err)
		return
	}
	select {
	case <-c.echo:
	case <-time.After(10 * time.Second):
		t.Errorf("%s: heartbeat echo never arrived", c.id)
	}
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

	pool := fleet.NewPool(fleet.Options{Shards: 4})
	defer pool.Stop()
	srv := &fleet.Server{Pool: pool, Factory: fleet.LightMonitorFactory(), HelloTimeout: 5 * time.Second}
	defer srv.Close()
	addr := "unix:" + filepath.Join(t.TempDir(), "e2e.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	// Phase 1: connect the whole fleet, alternating codecs per connection.
	clients := make([]*e2eClient, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codec := wire.CodecBinary
			if i%2 == 1 {
				codec = wire.CodecJSON
			}
			clients[i] = dialE2E(t, addr, fmt.Sprintf("e2e-%06d", i), codec)
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
		go func(i int, c *e2eClient) {
			defer wg.Done()
			x := 0.0
			if i%faultyEvery == 0 {
				x = 2.0
			}
			c.stream(t, framesEach, x, 10)
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
		if got := c.reportCount(); got != want {
			t.Errorf("%s received %d error frames, want %d", c.id, got, want)
		}
	}
	cs := srv.Stats()
	if cs.Accepted != devices || cs.Frames != wantFrames {
		t.Fatalf("server stats = %+v", cs)
	}

	// Phase 3: live churn — half the fleet disconnects mid-session while
	// the survivors keep streaming; the daemon must shed exactly the
	// departed devices and keep ingesting.
	for i := 0; i < devices/2; i++ {
		clients[i].conn.Close()
	}
	waitFor(t, "departed devices removed", func() bool { return pool.Size() == devices/2 })
	for _, c := range clients[devices/2:] {
		wg.Add(1)
		go func(c *e2eClient) {
			defer wg.Done()
			c.stream(t, 10, 0, 10+framesEach*10)
		}(c)
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
	re := dialE2E(t, addr, clients[0].id, wire.CodecBinary)
	defer re.conn.Close()
	waitFor(t, "reconnect", func() bool { return pool.Size() == devices/2+1 })
	re.stream(t, 5, 0, 1000)
}
