package trader_test

// End-to-end test of the sharded journal, tiered durability and monitor
// checkpoints (ISSUE 6): a fleet streams through an ingestion server backed
// by a per-shard journal, half the connections negotiating the relaxed
// ack-on-dispatch tier in their Hello; a global checkpoint snapshots every
// monitor mid-session and truncates the covered segments (including a
// flat-era segment in the directory root); the daemon is killed and one
// stream's tail is torn — and a pool rebuilt by Pool.Replay, reading ONLY
// the post-checkpoint segments, must report exactly the rollup of an
// uninterrupted control pool that monitored the full session.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

// dialE2ETiered is dialE2E with a durability request in the Hello, returning
// the class the server granted alongside the client.
func dialE2ETiered(t *testing.T, addr, id, codec string, dur wire.Durability) (*e2eClient, wire.Durability) {
	t.Helper()
	conn, reply, err := wire.Dial(addr, wire.Message{SUO: id, Codec: codec, Durability: dur})
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
	return c, reply.Durability
}

func TestE2ECheckpointReplay(t *testing.T) {
	const (
		devices     = 16
		shards      = 4
		framesA     = 20 // pre-checkpoint frames per device (truncated away)
		framesB     = 10 // post-checkpoint frames per device (the replay delta)
		faultyEvery = 4
		critical    = 8 // devices below this index are granted fsync regardless
	)
	cpID := func(i int) string { return fmt.Sprintf("cp-%03d", i) }
	levelOf := func(i int) float64 {
		if i%faultyEvery == 0 {
			return 2.0
		}
		return 0.0
	}
	hbA := sim.Time(10+framesA*10) * sim.Millisecond // multiple of the 10ms compare grid
	fromB := int64(10+framesA*10) + 10
	hbB := sim.Time(fromB+framesB*10) * sim.Millisecond

	// A flat-era segment in the directory root: history from a run that
	// predates sharding. The checkpoint must reclaim it too.
	dir := t.TempDir()
	flat, err := journal.Create(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Append(wire.Message{Type: wire.TypeHello, SUO: "traderd", Target: "light"}); err != nil {
		t.Fatal(err)
	}
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}

	jw, err := journal.CreateSharded(dir, shards, journal.Options{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: shards})
	srv := &fleet.Server{Pool: pool, Factory: fleet.LightMonitorFactory(),
		HelloTimeout: 5 * time.Second, Journal: jw,
		// Durability policy: the critical slice of the fleet is pinned to
		// fsync whatever it asked for; the long tail gets what it requested.
		GrantDurability: func(hello wire.Message) wire.Durability {
			if hello.SUO < cpID(critical) {
				return wire.DurFsync
			}
			return hello.Durability
		},
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "cp.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	// Phase A: the whole fleet connects — odd devices request the relaxed
	// ack-on-dispatch tier — and streams framesA observations each.
	clients := make([]*e2eClient, devices)
	granted := make([]wire.Durability, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := wire.DurFsync
			if i%2 == 1 {
				req = wire.DurDispatch
			}
			clients[i], granted[i] = dialE2ETiered(t, addr, cpID(i), wire.CodecBinary, req)
			clients[i].stream(t, framesA, levelOf(i), 10)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, g := range granted {
		want := wire.DurFsync
		if i >= critical && i%2 == 1 {
			want = wire.DurDispatch
		}
		if g != want {
			t.Fatalf("%s: granted durability %q, want %q", cpID(i), g, want)
		}
	}

	// Global checkpoint: freeze all four streams, snapshot every monitor,
	// truncate everything the snapshot covers. Every client is drained (its
	// heartbeat echo arrived), so the capture sees the settled phase-A state.
	cper := &fleet.Checkpointer{Pool: pool, Journal: jw, Profile: "light"}
	if err := cper.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(names) != 0 {
		t.Fatalf("flat-era root segments survived the checkpoint: %v", names)
	}
	for s := 0; s < shards; s++ {
		names, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", s), "wal-*.seg"))
		if len(names) != 1 {
			t.Fatalf("shard %d has %d segments after checkpoint, want exactly the checkpoint segment", s, len(names))
		}
	}

	// Phase B: the delta after the checkpoint — the only traffic replay may
	// re-dispatch.
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *e2eClient) {
			defer wg.Done()
			c.stream(t, framesB, levelOf(i), fromB)
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Crash. The journal writer is flushed but the pool dies with it; the
	// un-synced suffix a relaxed-tier connection could lose in a hard kill
	// is exactly the loss window ack-on-dispatch contracts away, and the
	// torn-tail-under-SIGKILL path is pinned by TestE2EJournalCrashRecovery
	// and the journal's own crash tests. Then tear one stream's tail the way
	// a crash mid-append tears it: each stream tolerates its own torn final
	// record independently.
	srv.Close()
	ln.Close()
	pool.Stop()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	tearTail(t, lastSegmentFile(t, filepath.Join(dir, "shard-001")))

	// Control pool: the identical phase A + B traffic, journal-less and
	// uninterrupted.
	factory := fleet.LightMonitorFactory()
	ctl := fleet.NewPool(fleet.Options{Shards: shards})
	defer ctl.Stop()
	discard := func(wire.Message) error { return nil }
	for i := 0; i < devices; i++ {
		id := cpID(i)
		if err := ctl.AddRemoteDevice(id, factory, discard); err != nil {
			t.Fatal(err)
		}
		send := func(n int, fromMs int64, hbAt sim.Time) {
			for j := 0; j < n; j++ {
				at := sim.Time(fromMs+int64(j)*10) * sim.Millisecond
				ev := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", levelOf(i))
				if err := ctl.Dispatch(id, ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := ctl.AdvanceDevice(id, hbAt); err != nil {
				t.Fatal(err)
			}
		}
		send(framesA, 10, hbA)
		send(framesB, fromB, hbB)
	}
	if err := ctl.Sync(); err != nil {
		t.Fatal(err)
	}
	want := ctl.Rollup()

	// Reboot: rebuild a fresh pool from the journal. Replay must restore
	// phase A from the checkpoint records and re-dispatch only phase B.
	rec := fleet.NewPool(fleet.Options{Shards: shards})
	defer rec.Stop()
	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rec.Replay(jr, fleet.LightMonitorFactory())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !jr.Torn() {
		t.Fatal("replay did not notice the torn shard tail")
	}
	jr.Close()
	if st.Frames != devices*framesB {
		t.Fatalf("replay re-dispatched %d frames, want only the %d post-checkpoint ones", st.Frames, devices*framesB)
	}
	if st.Checkpoints != devices+shards {
		t.Fatalf("replay restored %d checkpoint records, want %d device + %d shard", st.Checkpoints, devices, shards)
	}
	if st.Devices != devices || st.Heartbeats != devices {
		t.Fatalf("replay stats = %s, want %d devices and heartbeats", st, devices)
	}

	// The recovered fleet is byte-identical to the fleet that never crashed:
	// every monitor counter, dispatch total and error report — with phase A
	// reconstructed purely from checkpoint records.
	got := rec.Rollup()
	if got != want {
		t.Fatalf("recovered rollup %+v != control rollup %+v", got, want)
	}
	faulty := devices / faultyEvery
	if got.Reports != uint64(faulty) {
		t.Fatalf("recovered pool flagged %d devices, want exactly the %d faulty ones", got.Reports, faulty)
	}
}

// tearTail appends the prefix of a record — a length header promising more
// payload than the file holds — to the segment at path.
func tearTail(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte{0, 0, 2, 0, 0xde, 0xad, 0xbe, 0xef}, make([]byte, 17)...)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
}
