package fleet

import (
	"reflect"
	"testing"

	"trader/internal/event"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

func discardSink(wire.Message) error { return nil }

// streamLight pushes n matched set/out pairs through a light remote device,
// advancing its virtual clock 10ms per pair.
func streamLight(t *testing.T, p *Pool, id string, n int, from sim.Time) sim.Time {
	t.Helper()
	at := from
	for i := 0; i < n; i++ {
		at += 10 * sim.Millisecond
		v := float64(i % 5)
		in := event.Event{Kind: event.Input, Name: "set", Source: id, At: at}.With("x", v)
		out := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", v)
		if err := p.Dispatch(id, in); err != nil {
			t.Fatal(err)
		}
		if err := p.Dispatch(id, out); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	return at
}

// A handoff captures and removes atomically, and restoring the checkpoint
// into another pool reproduces the monitor state byte-for-byte — the
// handoff contract failover adoption is built on.
func TestHandoffDeviceMovesStateExactly(t *testing.T) {
	src := NewPool(Options{Shards: 2})
	defer src.Stop()
	dst := NewPool(Options{Shards: 3}) // different shard count: RangeOf reroutes
	defer dst.Stop()
	factory := LightMonitorFactory()
	id := DeviceID(7)
	if err := src.AddRemoteDevice(id, factory, discardSink); err != nil {
		t.Fatal(err)
	}
	at := streamLight(t, src, id, 40, 0)

	before, err := src.CaptureDevice(id)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := src.HandoffDevice(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, cp) {
		t.Fatalf("handoff capture diverged from plain capture:\n%+v\n%+v", before, cp)
	}
	if n := src.Rollup().Devices; n != 0 {
		t.Fatalf("source still has %d devices after handoff", n)
	}
	// Frames arriving after the barrier are visibly dropped, not misrouted.
	if err := src.Dispatch(id, event.Event{Kind: event.Input, Name: "set", At: at + 1}); err != nil {
		t.Fatal(err)
	}
	if err := src.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := src.Rollup().Dropped; d != 1 {
		t.Fatalf("post-handoff frame: Dropped = %d, want 1", d)
	}

	if err := dst.RestoreHandoff(id, cp, factory); err != nil {
		t.Fatal(err)
	}
	after, err := dst.CaptureDevice(id)
	if err != nil {
		t.Fatal(err)
	}
	// The owning shard index legitimately differs between pools; everything
	// the monitor is made of must not.
	before.Shard, after.Shard = 0, 0
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("restored state differs:\n src: %+v\n dst: %+v", before, after)
	}
	// The restored device is live: it keeps monitoring where it left off.
	streamLight(t, dst, id, 5, at)
	ro := dst.Rollup()
	if ro.Monitor.OutputsSeen != 45 {
		t.Fatalf("destination outputs seen = %d, want 45 (40 handed off + 5 live)", ro.Monitor.OutputsSeen)
	}
}

// A quarantined device stays quarantined across a handoff.
func TestHandoffPreservesQuarantine(t *testing.T) {
	src := NewPool(Options{Shards: 1})
	defer src.Stop()
	dst := NewPool(Options{Shards: 1})
	defer dst.Stop()
	factory := LightMonitorFactory()
	id := DeviceID(3)
	if err := src.AddRemoteDevice(id, factory, discardSink); err != nil {
		t.Fatal(err)
	}
	if _, err := src.QuarantineDevice(id); err != nil {
		t.Fatal(err)
	}
	cp, err := src.HandoffDevice(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreHandoff(id, cp, factory); err != nil {
		t.Fatal(err)
	}
	q, err := dst.Quarantined(id)
	if err != nil || !q {
		t.Fatalf("Quarantined = %v, %v; want true", q, err)
	}
}

// Handoff records journaled write-ahead replay to the same ownership: a
// departure removes the device, an arrival rebuilds it with the handed-over
// state, an adopted baseline folds a dead peer's counters into the rollup.
func TestReplayHandoffRecords(t *testing.T) {
	// Live history: a device streams on this edge, is handed off elsewhere,
	// and a second device arrives by handoff; the edge also adopts a dead
	// peer's pool counters.
	live := NewPool(Options{Shards: 2})
	defer live.Stop()
	factory := LightMonitorFactory()
	leaving, arriving := DeviceID(1), DeviceID(2)
	if err := live.AddRemoteDevice(leaving, factory, discardSink); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	appendMsg := func(m wire.Message) {
		t.Helper()
		if err := jw.Append(m); err != nil {
			t.Fatal(err)
		}
	}

	// The leaving device's admitted frames, then its departure record.
	at := sim.Time(0)
	for i := 0; i < 10; i++ {
		at += 10 * sim.Millisecond
		in := event.Event{Kind: event.Input, Name: "set", Source: leaving, At: at}.With("x", 1)
		appendMsg(wire.Message{Type: wire.TypeInput, SUO: leaving, Event: &in, At: at})
		if err := live.Dispatch(leaving, in); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Sync(); err != nil {
		t.Fatal(err)
	}
	outCp, err := live.HandoffDevice(leaving)
	if err != nil {
		t.Fatal(err)
	}
	appendMsg(wire.Message{Type: wire.TypeHandoff, SUO: leaving, At: outCp.At,
		Handoff: &wire.HandoffRecord{From: "edge-0", To: "edge-1", Out: true}})

	// The arriving device: its handoff-in record carries its checkpoint.
	srcPool := NewPool(Options{Shards: 1})
	if err := srcPool.AddRemoteDevice(arriving, factory, discardSink); err != nil {
		t.Fatal(err)
	}
	streamLight(t, srcPool, arriving, 20, 0)
	arrCp, err := srcPool.HandoffDevice(arriving)
	if err != nil {
		t.Fatal(err)
	}
	srcPool.Stop()
	appendMsg(wire.Message{Type: wire.TypeHandoff, SUO: arriving, At: arrCp.At,
		Handoff:    &wire.HandoffRecord{From: "edge-1", To: "edge-0"},
		Checkpoint: arrCp})
	if err := live.RestoreHandoff(arriving, arrCp, factory); err != nil {
		t.Fatal(err)
	}

	// A dead peer's pool counters, adopted as a baseline.
	peer := Stats{Dispatched: 123, Reports: 4, ShedObservations: 7}
	appendMsg(AdoptBaselineRecord("edge-2", "edge-0", peer))
	live.AdoptBaseline("edge-2", AdoptBaselineRecord("edge-2", "edge-0", peer).Checkpoint.Counters)
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay must converge to the live pool's exact rollup.
	r, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replayed := NewPool(Options{Shards: 2})
	defer replayed.Stop()
	st, err := replayed.Replay(r, factory)
	if err != nil {
		t.Fatal(err)
	}
	if st.Handoffs != 3 {
		t.Fatalf("replayed %d handoff records, want 3", st.Handoffs)
	}
	got, want := replayed.Rollup(), live.Rollup()
	if got.Devices != 1 || want.Devices != 1 {
		t.Fatalf("devices: got %d, live %d, want 1 each", got.Devices, want.Devices)
	}
	if got.Monitor != want.Monitor {
		t.Fatalf("monitor rollup diverged:\n got: %+v\nwant: %+v", got.Monitor, want.Monitor)
	}
	if got.ShedObservations != want.ShedObservations || got.Reports-want.Reports != 0 {
		t.Fatalf("baseline counters diverged: got %+v want %+v", got, want)
	}
	// The adopted baseline is additive and keyed by source.
	if got.Dispatched < peer.Dispatched {
		t.Fatalf("adopted dispatched baseline missing: %d < %d", got.Dispatched, peer.Dispatched)
	}
}
