package federate

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

func TestCountersDiffAddRoundTrip(t *testing.T) {
	prev := Counters{"a": 10, "b": -3, "gone": 7}
	cur := Counters{"a": 12, "b": -3, "c": 5}
	d := cur.Diff(prev)
	// b is unchanged → omitted; gone disappeared → negated.
	want := Counters{"a": 2, "c": 5, "gone": -7}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("Diff = %v, want %v", d, want)
	}
	prev.Add(d)
	for k, v := range cur {
		if prev[k] != v {
			t.Fatalf("after Add, %s = %d, want %d", k, prev[k], v)
		}
	}
	if prev["gone"] != 0 {
		t.Fatalf("after Add, gone = %d, want 0", prev["gone"])
	}
	// Wire round trip is lossless and sorted.
	w := d.ToWire()
	for i := 1; i < len(w); i++ {
		if w[i-1].Name >= w[i].Name {
			t.Fatalf("ToWire not sorted: %v", w)
		}
	}
	if back := FromWire(w); !reflect.DeepEqual(back, d) {
		t.Fatalf("FromWire(ToWire) = %v, want %v", back, d)
	}
}

func TestRangeMap(t *testing.T) {
	m := NewRangeMap(4)
	m.Assign(0, "edge-a")
	m.Assign(1, "edge-a")
	m.Assign(2, "edge-b")
	m.Assign(3, "edge-b")
	dev := fleet.DeviceID(7)
	hashOwner := m.Owner(fleet.RangeOf(dev, 4))
	if got := m.OwnerOf(dev); got != hashOwner {
		t.Fatalf("OwnerOf = %q, want hash owner %q", got, hashOwner)
	}
	other := "edge-a"
	if hashOwner == "edge-a" {
		other = "edge-b"
	}
	m.Move(dev, other)
	if got := m.OwnerOf(dev); got != other {
		t.Fatalf("after Move, OwnerOf = %q, want %q", got, other)
	}
	// Moving back to the hash owner clears the override.
	m.Move(dev, hashOwner)
	if len(m.moved) != 0 {
		t.Fatalf("override not cleared on move home: %v", m.moved)
	}
	// Repoint transfers ranges and overrides.
	m.Move(dev, other)
	ranges := m.Repoint(other, "edge-c")
	if len(ranges) != 2 {
		t.Fatalf("Repoint moved %d ranges, want 2", len(ranges))
	}
	if got := m.OwnerOf(dev); got != "edge-c" {
		t.Fatalf("after Repoint, OwnerOf = %q, want edge-c", got)
	}
}

// deviceInRange returns a device ID hashing to the given range.
func deviceInRange(rng, of int) string {
	for i := 0; ; i++ {
		if id := fleet.DeviceID(i); fleet.RangeOf(id, of) == rng {
			return id
		}
	}
}

// harness is one edge daemon stood up for tests: a pool, an optional
// journal that records dispatched frames like a fleet.Server would, and the
// Edge uplink running against an aggregator listener.
type harness struct {
	t    *testing.T
	pool *fleet.Pool
	jw   *journal.Writer
	edge *Edge
	done chan struct{}
	ran  chan struct{} // closed when the uplink goroutine has exited
	at   map[string]sim.Time
}

func newHarness(t *testing.T, id, upstream string, rng, of int, dir string) *harness {
	t.Helper()
	h := &harness{t: t, pool: fleet.NewPool(fleet.Options{Shards: 2}), done: make(chan struct{}), at: map[string]sim.Time{}}
	t.Cleanup(h.pool.Stop)
	var fj fleet.FrameJournal
	if dir != "" {
		jw, err := journal.Create(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jw.Close() })
		h.jw = jw
		fj = jw
	}
	h.edge = &Edge{
		ID: id, Upstream: upstream, Range: rng, Of: of,
		Sample:  PoolSampler(h.pool, nil),
		Pool:    h.pool,
		Factory: fleet.LightMonitorFactory(),
		Journal: fj, JournalDir: dir,
		Flush: 10 * time.Millisecond,
		Logf:  t.Logf,
	}
	return h
}

func (h *harness) start() {
	h.ran = make(chan struct{})
	ran, edge, done := h.ran, h.edge, h.done
	go func() {
		defer close(ran)
		edge.Run(done)
	}()
	h.t.Cleanup(h.stop)
}

// stop ends the uplink and waits for its goroutine, so nothing logs after
// the test completes. Idempotent.
func (h *harness) stop() {
	select {
	case <-h.done:
	default:
		close(h.done)
	}
	if h.ran != nil {
		<-h.ran
	}
}

// addDevice registers a device and journals nothing (registration is
// implicit in the first journaled frame, as with a live server).
func (h *harness) addDevice(id string) {
	h.t.Helper()
	if err := h.pool.AddRemoteDevice(id, fleet.LightMonitorFactory(), func(wire.Message) error { return nil }); err != nil {
		h.t.Fatal(err)
	}
}

// stream pushes n matched set/out pairs for the device, journaling each
// frame exactly as the ingestion server would.
func (h *harness) stream(id string, n int) {
	h.t.Helper()
	at := h.at[id]
	for i := 0; i < n; i++ {
		at += 10 * sim.Millisecond
		v := float64(i % 5)
		in := event.Event{Kind: event.Input, Name: "set", Source: id, At: at}.With("x", v)
		out := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", v)
		for _, ev := range []event.Event{in, out} {
			ev := ev
			typ := wire.TypeInput
			if ev.Kind == event.Output {
				typ = wire.TypeOutput
			}
			if h.jw != nil {
				if err := h.jw.Append(wire.Message{Type: typ, SUO: id, Event: &ev, At: at}); err != nil {
					h.t.Fatal(err)
				}
			}
			if err := h.pool.Dispatch(id, ev); err != nil {
				h.t.Fatal(err)
			}
		}
	}
	h.at[id] = at
	if err := h.pool.Sync(); err != nil {
		h.t.Fatal(err)
	}
}

// waitView polls the aggregator until cond holds or the deadline passes.
func waitView(t *testing.T, a *Aggregator, what string, cond func(View) bool) View {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v := a.View()
		if cond(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last view: devices=%d counters=%v edges=%+v",
				what, v.Devices, v.Counters, v.Edges)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func startAggregator(t *testing.T, a *Aggregator) string {
	t.Helper()
	ln, err := wire.Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go a.Serve(ln)
	t.Cleanup(a.Close)
	return "tcp:" + ln.Addr().String()
}

// The conservation law, single edge: the aggregator's merged view converges
// to exactly the edge's cumulative sample, and reconnects do not double-credit.
func TestDeltaStreamingConservesAndResumes(t *testing.T) {
	agg := &Aggregator{Ranges: 2, Logf: t.Logf}
	addr := startAggregator(t, agg)
	h := newHarness(t, "edge-0", addr, 0, 2, "")
	dev := fleet.DeviceID(1)
	h.addDevice(dev)
	h.stream(dev, 30)
	h.start()
	defer h.stop()

	sampleEq := func(v View) bool {
		s := h.edge.Sample()
		return v.Devices == s.Devices && reflect.DeepEqual(v.Counters.Diff(s.Counters), Counters{})
	}
	waitView(t, agg, "view to converge to edge sample", sampleEq)

	// Drop the uplink: the edge redials, receives the credited totals as its
	// resume baseline, and further deltas stay exact — nothing double-counts.
	h.stop()
	h.stream(dev, 25)
	h2 := newHarness(t, "edge-0", addr, 0, 2, "")
	h2.pool.Stop() // reuse the first harness's pool instead
	h2.edge.Pool = h.pool
	h2.edge.Sample = PoolSampler(h.pool, nil)
	h.edge = h2.edge
	h.done = h2.done
	h.start()
	defer h.stop()
	v := waitView(t, agg, "view to converge after reconnect", sampleEq)
	if got := v.Counters["outputs"]; got != 55 {
		t.Fatalf("outputs = %d, want 55", got)
	}
	if v.Edges[0].Seq == 0 {
		t.Fatal("resume lost the credited sequence")
	}
}

// An aggregator refuses non-edge clients and mismatched range claims.
func TestAggregatorVetsUplinks(t *testing.T) {
	agg := &Aggregator{Ranges: 2, Logf: t.Logf}
	addr := startAggregator(t, agg)

	// A plain device handshake (no role) must be refused.
	if _, _, err := wire.Dial(addr, wire.Message{SUO: "dev-1"}); err == nil {
		t.Fatal("roleless handshake accepted by aggregator")
	}

	// A wrong range count must be refused.
	e := &Edge{ID: "edge-x", Upstream: addr, Range: 0, Of: 3}
	c, err := e.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Handshake(wire.Message{SUO: e.ID, Role: wire.RoleEdge,
		Handoff: &wire.HandoffRecord{From: e.ID, Range: 0, Of: 3}})
	if err == nil {
		t.Fatal("range-count mismatch accepted by aggregator")
	}
}

// Live migration: the aggregator directs a move, the device's monitor state
// lands intact on the destination, the range map repoints, and the merged
// view is conserved throughout.
func TestLiveMigration(t *testing.T) {
	agg := &Aggregator{Ranges: 2, Logf: t.Logf}
	addr := startAggregator(t, agg)
	dirA, dirB := t.TempDir(), t.TempDir()
	a := newHarness(t, "edge-a", addr, 0, 2, dirA)
	b := newHarness(t, "edge-b", addr, 1, 2, dirB)
	dev := deviceInRange(0, 2)
	a.addDevice(dev)
	a.stream(dev, 40)
	a.start()
	defer a.stop()
	b.start()
	defer b.stop()
	waitView(t, agg, "both edges credited", func(v View) bool {
		return v.Devices == 1 && v.Counters["outputs"] == 40 && len(v.Edges) == 2
	})

	if err := agg.Migrate(dev, "edge-b"); err != nil {
		t.Fatal(err)
	}
	waitView(t, agg, "migration to complete", func(v View) bool {
		return v.Migrations == 1 && agg.OwnerOf(dev) == "edge-b"
	})
	// The device is live on B with its full history.
	deadline := time.Now().Add(5 * time.Second)
	for b.pool.Rollup().Devices != 1 {
		if time.Now().After(deadline) {
			t.Fatal("device never landed on edge-b")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := b.pool.Rollup().Monitor.OutputsSeen; got != 40 {
		t.Fatalf("migrated outputs seen = %d, want 40", got)
	}
	// It keeps monitoring where it left off, and the view stays conserved.
	b.at[dev] = a.at[dev]
	b.stream(dev, 10)
	waitView(t, agg, "post-migration totals", func(v View) bool {
		return v.Devices == 1 && v.Counters["outputs"] == 50
	})

	// Both sides journaled the move: replaying each edge's journal yields
	// exactly the devices it now owns.
	for _, tc := range []struct {
		dir     string
		devices int
	}{{dirA, 0}, {dirB, 1}} {
		r, err := journal.OpenReader(tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		p := fleet.NewPool(fleet.Options{Shards: 2})
		if _, err := p.Replay(r, fleet.LightMonitorFactory()); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if got := p.Rollup().Devices; got != tc.devices {
			t.Fatalf("replay of %s: %d devices, want %d", tc.dir, got, tc.devices)
		}
		p.Stop()
	}
}

// Failover: an edge dies, the aggregator directs the survivor to adopt its
// journal, and afterwards the merged view holds every device and every
// counter the dead edge had — nothing lost, nothing double-counted.
func TestFailoverAdoptionConserves(t *testing.T) {
	agg := &Aggregator{Ranges: 2, Failover: 50 * time.Millisecond, Logf: t.Logf}
	addr := startAggregator(t, agg)
	dirA, dirB := t.TempDir(), t.TempDir()
	a := newHarness(t, "edge-a", addr, 0, 2, dirA)
	b := newHarness(t, "edge-b", addr, 1, 2, dirB)
	const perEdge = 3
	for i := 0; i < perEdge; i++ {
		da, db := fmt.Sprintf("adev-%d", i), fmt.Sprintf("bdev-%d", i)
		a.addDevice(da)
		a.stream(da, 10)
		b.addDevice(db)
		b.stream(db, 20)
	}
	a.start()
	b.start()
	defer b.stop()
	waitView(t, agg, "both edges credited", func(v View) bool {
		return v.Devices == 2*perEdge && v.Counters["outputs"] == perEdge*(10+20)
	})

	a.stop() // the "kill": uplink drops, journal stays on disk
	v := waitView(t, agg, "adoption to complete", func(v View) bool {
		return v.Adoptions == 1 && len(v.Edges) == 1
	})
	if v.Edges[0].ID != "edge-b" {
		t.Fatalf("survivor = %q, want edge-b", v.Edges[0].ID)
	}
	// Zero devices lost, counters conserved across the failover.
	waitView(t, agg, "conserved post-adoption view", func(v View) bool {
		return v.Devices == 2*perEdge && v.Counters["outputs"] == perEdge*(10+20)
	})
	for i := 0; i < perEdge; i++ {
		if got := agg.OwnerOf(fmt.Sprintf("adev-%d", i)); got != "edge-b" {
			t.Fatalf("adev-%d owned by %q after failover, want edge-b", i, got)
		}
	}
	// The survivor's own journal now replays to the merged fleet.
	if err := b.jw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := journal.OpenReader(dirB)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p := fleet.NewPool(fleet.Options{Shards: 2})
	defer p.Stop()
	if _, err := p.Replay(r, fleet.LightMonitorFactory()); err != nil {
		t.Fatal(err)
	}
	ro := p.Rollup()
	if ro.Devices != 2*perEdge {
		t.Fatalf("survivor journal replays %d devices, want %d", ro.Devices, 2*perEdge)
	}
	if live := b.pool.Rollup(); ro.Monitor != live.Monitor {
		t.Fatalf("survivor replay diverged from live pool:\n got: %+v\nwant: %+v", ro.Monitor, live.Monitor)
	}
}

// The ownership journal reconstructs the range map across an aggregator
// restart.
func TestAggregatorRecover(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg := &Aggregator{Ranges: 2, Journal: jw, Logf: t.Logf}
	addr := startAggregator(t, agg)
	a := newHarness(t, "edge-a", addr, 0, 2, "")
	b := newHarness(t, "edge-b", addr, 1, 2, "")
	dev := deviceInRange(0, 2)
	a.addDevice(dev)
	a.start()
	defer a.stop()
	b.start()
	defer b.stop()
	waitView(t, agg, "both edges up", func(v View) bool { return len(v.Edges) == 2 && v.Devices == 1 })
	if err := agg.Migrate(dev, "edge-b"); err != nil {
		t.Fatal(err)
	}
	waitView(t, agg, "migration", func(v View) bool { return v.Migrations == 1 })
	owners := agg.Owners()
	agg.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fresh := &Aggregator{Ranges: 2, Logf: t.Logf}
	err = journal.Replay(r, fresh)
	n := fresh.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 { // two claims + one move
		t.Fatalf("recovered %d ownership records, want >= 3", n)
	}
	if got := fresh.Owners(); !reflect.DeepEqual(got, owners) {
		t.Fatalf("recovered owners = %v, want %v", got, owners)
	}
	if got := fresh.OwnerOf(dev); got != "edge-b" {
		t.Fatalf("recovered OwnerOf(%s) = %q, want edge-b", dev, got)
	}
}

// An edge that stops reading must lose its own uplink, not wedge another's:
// relayHandoff writes to the destination edge on the SOURCE edge's handler
// goroutine, so before aggregator→edge writes were deadline-guarded a stalled
// destination froze the source's rollup acks forever. The pipes make the
// stall exact (a pipe write blocks until read); the wait is the production
// wire.SendTimeout, hence the parallel test.
func TestStalledEdgeDoesNotWedgeHandoffRelay(t *testing.T) {
	t.Parallel()
	agg := &Aggregator{Ranges: 2, Logf: t.Logf}
	var handlers sync.WaitGroup
	// Handlers log through t, so they must be done before the test is: this
	// cleanup runs last, after the ones that close the pipes.
	t.Cleanup(handlers.Wait)
	uplink := func(id string, rng int) *wire.Conn {
		t.Helper()
		near, far := net.Pipe()
		t.Cleanup(func() { far.Close() })
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			agg.handle(near)
		}()
		c := wire.NewConn(far)
		if _, err := c.Handshake(wire.Message{SUO: id, Role: wire.RoleEdge,
			Handoff: &wire.HandoffRecord{From: id, Range: rng, Of: 2}}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if base, err := c.Decode(); err != nil || base.Type != wire.TypeRollup {
			t.Fatalf("%s: resume baseline: %+v, %v", id, base, err)
		}
		return c
	}
	src := uplink("edge-src", 0)
	uplink("edge-dst", 1) // handshaken, then never read again

	start := time.Now()
	move := wire.Message{Type: wire.TypeHandoff, SUO: deviceInRange(0, 2),
		Handoff: &wire.HandoffRecord{From: "edge-src", To: "edge-dst"}}
	if err := src.Encode(move); err != nil {
		t.Fatal(err)
	}
	// The source's next delta queues behind the relay on its handler; it is
	// read — and acked — once the stalled write has timed out.
	if err := src.Encode(wire.Message{Type: wire.TypeRollup, SUO: "edge-src",
		Rollup: &wire.RollupDelta{Seq: 1, Devices: 1}}); err != nil {
		t.Fatal(err)
	}
	ack, err := src.Decode()
	if err != nil || ack.Type != wire.TypeAck || ack.At != 1 {
		t.Fatalf("source's delta after the relay: %+v, %v; want an ack of seq 1", ack, err)
	}
	if waited := time.Since(start); waited < wire.SendTimeout/2 || waited > 2*wire.SendTimeout {
		t.Fatalf("relay to the stalled edge took %s, want about wire.SendTimeout (%s)", waited, wire.SendTimeout)
	}
	// The failed send shut the destination; its handler unwound and dropped it.
	v := waitView(t, agg, "stalled edge dropped", func(v View) bool {
		return len(v.Edges) == 2 && !v.Edges[0].Live && v.Edges[1].Live
	})
	if v.Handoffs != 1 || v.Edges[1].Seq != 1 {
		t.Fatalf("view after the relay: handoffs %d, source seq %d; want 1 and 1", v.Handoffs, v.Edges[1].Seq)
	}
}
