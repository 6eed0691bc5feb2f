package fleet

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/trace"
	"trader/internal/wire"
)

// startOverloadServer is startServer with the pool shape under the test's
// control — overload tests pin queue pressure, so they need to know the
// exact shard count and queue capacity.
func startOverloadServer(t *testing.T, opts Options, mutate func(*Server)) (*Server, string) {
	t.Helper()
	pool := NewPool(opts)
	t.Cleanup(pool.Stop)
	srv := &Server{Pool: pool, Factory: LightMonitorFactory(), Logf: t.Logf}
	if mutate != nil {
		mutate(srv)
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "overload.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); ln.Close() })
	go srv.Serve(ln)
	return srv, addr
}

// blockShard parks shard idx's goroutine on a gate and then queues fillers
// no-op commands, pinning Pressure at exactly fillers/Queue until the
// returned release is called: nothing dequeues while the gate is closed,
// and the tests enqueue nothing that would change the length. This is how
// the shed tiers are tested deterministically instead of racing a flood
// against the scheduler.
func blockShard(t *testing.T, p *Pool, idx, fillers int) (release func()) {
	t.Helper()
	started := make(chan struct{})
	gate := make(chan struct{})
	if err := p.send(idx, func(*shard) { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < fillers; i++ {
		if err := p.send(idx, func(*shard) {}); err != nil {
			t.Fatal(err)
		}
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// shedCounts reads the live shard shed counters without a pool barrier —
// Rollup would park behind the very gate the overload tests hold shut.
func shedCounts(p *Pool) (obs, hb uint64) {
	for _, s := range p.shards {
		obs += s.shedObs.Load()
		hb += s.shedHB.Load()
	}
	return obs, hb
}

// A hostile peer that keeps sending observations after its credit window
// is exhausted (no replenishment can arrive: the shard is pressured, so
// the server grants nothing) must be disconnected with an error frame, and
// the violation counted.
func TestCreditViolationDisconnectsHostileClient(t *testing.T) {
	srv, addr := startOverloadServer(t, Options{Shards: 1, Queue: 8}, func(s *Server) {
		s.CreditWindow = 8
		s.ShedObservationsAt = 0.5
	})
	wc, reply, err := wire.Dial(addr, wire.Message{SUO: "hostile", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if credits := reply.Credits; credits != 8 {
		t.Fatalf("granted window = %d, want 8", credits)
	}
	eventually(t, "registration", func() bool { return srv.Pool.Size() == 1 })

	// Pressure 4/8 = 0.5: at or above the shed threshold, so every
	// observation is refused (still spending its credit) and at or above
	// replenishPressure, so no grant ever tops the window back up.
	release := blockShard(t, srv.Pool, 0, 4)

	// Frames 1..8 burn the window; frame 9 is the violation.
	for i := 0; i < 9; i++ {
		if err := wc.SendEvent("hostile", outEvent(0, 10)); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := wc.Decode()
	if err != nil {
		t.Fatalf("want an error frame before the close, got %v", err)
	}
	if msg.Type != wire.TypeError || msg.Error == nil || !strings.Contains(msg.Error.Detail, "credit window violated") {
		t.Fatalf("want a credit-violation error frame, got %+v", msg)
	}
	if v := srv.Stats().CreditViolations; v != 1 {
		t.Fatalf("CreditViolations = %d, want 1", v)
	}

	// Teardown (and the conn close) is itself parked behind the blocked
	// shard; once released, the violator's connection must die.
	release()
	if _, err := wc.Decode(); err == nil {
		t.Fatal("connection should be closed after the violation")
	}
	eventually(t, "violator removed", func() bool { return srv.Pool.Size() == 0 })
	ro := srv.Pool.Rollup()
	if ro.ShedObservations != 8 || ro.ShedHeartbeats != 0 || ro.ShedControl != 0 {
		t.Fatalf("sheds = %d/%d/%d (obs/hb/ctl), want 8/0/0", ro.ShedObservations, ro.ShedHeartbeats, ro.ShedControl)
	}
}

// The tier ordering under pressure: between the two thresholds only
// observations shed while heartbeats (and control pushes) survive; above
// the heartbeat threshold the heartbeat is refused too — no echo — while a
// control push still goes through. Control is never shed.
func TestShedTierOrderingUnderPressure(t *testing.T) {
	srv, addr := startOverloadServer(t, Options{Shards: 1, Queue: 10}, func(s *Server) {
		s.ShedObservationsAt = 0.5
		s.ShedHeartbeatsAt = 0.9
	})
	wc, _, err := wire.Dial(addr, wire.Message{SUO: "tiered", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eventually(t, "registration", func() bool { return srv.Pool.Size() == 1 })

	// Tier 1 band: pressure 5/10 = 0.5 — observations shed, heartbeats not.
	release := blockShard(t, srv.Pool, 0, 5)
	for i := 0; i < 3; i++ {
		if err := wc.SendEvent("tiered", outEvent(0, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "tiered", At: sim.Second}); err != nil {
		t.Fatal(err)
	}
	// The heartbeat's flush barrier is parked behind the gate, so its echo
	// cannot have been written yet — but a control push (tier 3) bypasses
	// the shard queue entirely and must arrive even now.
	eventually(t, "observations shed", func() bool { obs, _ := shedCounts(srv.Pool); return obs == 3 })
	if err := srv.Control("tiered", wire.CtrlReset); err != nil {
		t.Fatal(err)
	}
	msg, err := wc.Decode()
	if err != nil || msg.Type != wire.TypeControl || msg.Control != wire.CtrlReset {
		t.Fatalf("control under pressure: %+v, %v — control must never shed", msg, err)
	}
	release()
	msg, err = wc.Decode()
	if err != nil || msg.Type != wire.TypeHeartbeat || msg.At != sim.Second {
		t.Fatalf("heartbeat echo at tier-1 pressure: %+v, %v — only observations shed in this band", msg, err)
	}
	if ro := srv.Pool.Rollup(); ro.ShedObservations != 3 || ro.ShedHeartbeats != 0 {
		t.Fatalf("sheds after tier-1 band = %d/%d (obs/hb), want 3/0", ro.ShedObservations, ro.ShedHeartbeats)
	}

	// Tier 2 band: pressure 9/10 = 0.9 — the heartbeat itself is refused:
	// no clock advance, no echo. The silence is the backpressure.
	release2 := blockShard(t, srv.Pool, 0, 9)
	if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "tiered", At: 2 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	if err := wc.SendEvent("tiered", outEvent(0, 2100)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "heartbeat shed", func() bool {
		obs, hb := shedCounts(srv.Pool)
		return hb == 1 && obs == 4
	})
	release2()
	// The shard drains its fillers on its own schedule; a heartbeat sent
	// before it has would meet the same pressure and be refused again.
	eventually(t, "pressure relieved", func() bool { return srv.Pool.Pressure("tiered") < 0.5 })

	// Pressure is gone: the next heartbeat echoes, and the first frame the
	// client sees is its echo — the 2s heartbeat was refused, not delayed.
	if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "tiered", At: 3 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	msg, err = wc.Decode()
	if err != nil || msg.Type != wire.TypeHeartbeat || msg.At != 3*sim.Second {
		t.Fatalf("post-pressure heartbeat echo: %+v, %v (an echo of the shed 2s heartbeat would be a false promise)", msg, err)
	}
	if ro := srv.Pool.Rollup(); ro.ShedControl != 0 {
		t.Fatalf("ShedControl = %d, control traffic is never shed", ro.ShedControl)
	}
}

// A compliant client that blocks on an exhausted window and heartbeats for
// replenishment streams arbitrarily many frames through a small window:
// grants (mid-stream deltas and echo top-ups) keep both balances in step,
// so the violation path never fires.
func TestCreditCompliantClientStreamsThroughReplenishment(t *testing.T) {
	srv, addr := startOverloadServer(t, Options{Shards: 1}, func(s *Server) {
		s.CreditWindow = 4
	})
	wc, reply, err := wire.Dial(addr, wire.Message{SUO: "steady", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	credits := reply.Credits
	if credits != 4 {
		t.Fatalf("granted window = %d, want 4", credits)
	}
	eventually(t, "registration", func() bool { return srv.Pool.Size() == 1 })

	// drain solicits replenishment: heartbeat, then read until its echo,
	// crediting every grant frame passed on the way (exactly what a real
	// client's receive loop does — see cmd/tvsim).
	at := int64(0)
	drain := func() {
		at += 10
		hb := sim.Time(at) * sim.Millisecond
		if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "steady", At: hb}); err != nil {
			t.Fatal(err)
		}
		for {
			msg, err := wc.Decode()
			if err != nil {
				t.Fatalf("disconnected while draining for credits: %v", err)
			}
			if msg.Type == wire.TypeCredit || msg.Type == wire.TypeHeartbeat {
				credits += msg.Credits
			}
			if msg.Type == wire.TypeHeartbeat && msg.At == hb {
				return
			}
		}
	}
	const total = 50
	for sent := 0; sent < total; {
		if credits == 0 {
			drain()
			continue
		}
		at += 10
		if err := wc.SendEvent("steady", outEvent(0, at)); err != nil {
			t.Fatal(err)
		}
		credits--
		sent++
	}
	drain() // final barrier: all frames monitored

	st := srv.Stats()
	if st.Frames != total || st.CreditViolations != 0 {
		t.Fatalf("frames = %d violations = %d, want %d and 0", st.Frames, st.CreditViolations, total)
	}
	if st.CreditGrants == 0 {
		t.Fatal("a 50-frame stream through a 4-frame window needs mid-stream grants, saw none")
	}
	ro := srv.Pool.Rollup()
	if ro.Dispatched != total || ro.ShedObservations != 0 {
		t.Fatalf("dispatched = %d sheds = %d, want %d and 0", ro.Dispatched, ro.ShedObservations, total)
	}
	if lat := srv.Pool.Latency(); lat.Count() != total {
		t.Fatalf("latency samples = %d, want one per dispatched frame (%d)", lat.Count(), total)
	}
}

// Credit replenishment writes (mid-stream grants, echo top-ups) share the
// connection with teardown. A grant racing Server.Disconnect must error
// out cleanly, never write into a closed connection or trip the race
// detector — this is the flow-control twin of
// TestControlPushRacesDisconnect, run under -race in the standard gate.
func TestCreditReplenishRacesDisconnect(t *testing.T) {
	srv, addr := startOverloadServer(t, Options{Shards: 1}, func(s *Server) {
		s.CreditWindow = 2
	})
	for i := 0; i < 8; i++ {
		id := "racer"
		wc, _, err := wire.Dial(addr, wire.Message{SUO: id, Codec: wire.CodecBinary})
		if err != nil {
			t.Fatal(err)
		}
		eventually(t, "registration", func() bool { return srv.Pool.Size() == 1 })
		// Reader drains grants and echoes so the server's writes never
		// stall on the socket buffer.
		go func() {
			for {
				if _, err := wc.Decode(); err != nil {
					return
				}
			}
		}()
		// Writer keeps the grant path hot: with a 2-frame window every
		// other observation triggers a mid-stream grant, and each
		// heartbeat a top-up, so Disconnect always races a credit write.
		done := make(chan struct{})
		go func() {
			defer close(done)
			at := int64(0)
			for {
				at += 10
				if err := wc.SendEvent(id, outEvent(0, at)); err != nil {
					return
				}
				at += 10
				hb := wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: sim.Time(at) * sim.Millisecond}
				if err := wc.Encode(hb); err != nil {
					return
				}
			}
		}()
		time.Sleep(time.Duration(i) * time.Millisecond)
		_ = srv.Disconnect(id)
		wc.Close()
		<-done
		eventually(t, "device removed", func() bool { return srv.Pool.Size() == 0 })
	}
}

// Concurrent ingestion across all 8 shards: every DispatchAt records
// exactly one latency sample into its shard's histogram, the per-shard
// histograms sum to the fleet aggregate, and the quantiles stay ordered —
// under concurrency, not just in the single-threaded metrics tests.
func TestLatencyHistogramConcurrentAcrossShards(t *testing.T) {
	const shards, workers, perWorker = 8, 8, 500
	pool := NewPool(Options{Shards: shards})
	defer pool.Stop()
	ids := make([]string, workers)
	for i := range ids {
		ids[i] = "suo-" + string(rune('a'+i))
		if err := pool.AddDevice(ids[i], 1, LightFactory(0)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := pool.DispatchAt(id, outEvent(0, int64(10+i)), time.Now(), trace.Context{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ids[w])
	}
	wg.Wait()
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}

	const total = workers * perWorker
	agg := pool.Latency()
	if agg.Count() != total {
		t.Fatalf("aggregate latency samples = %d, want %d", agg.Count(), total)
	}
	var byShard uint64
	for i := 0; i < shards; i++ {
		sl := pool.ShardLatency(i)
		byShard += sl.Count()
	}
	if byShard != total {
		t.Fatalf("per-shard latency samples sum to %d, want %d", byShard, total)
	}
	p50, p99, p999 := agg.Quantile(0.50), agg.Quantile(0.99), agg.Quantile(0.999)
	if p50 <= 0 || p50 > p99 || p99 > p999 || p999 > agg.Max() {
		t.Fatalf("quantiles disordered: p50=%s p99=%s p999=%s max=%s", p50, p99, p999, agg.Max())
	}
	if ro := pool.Rollup(); ro.Dispatched != total {
		t.Fatalf("dispatched = %d, want %d", ro.Dispatched, total)
	}
}

// Shed markers keep the journal's story equal to the live pool's: frames
// refused under pressure are never journaled, but their aggregated marker
// is — flushed write-ahead of the next heartbeat and at teardown — so a
// replayed pool reports the same shed counters the live one did.
func TestShedMarkersJournaledAndReplayed(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Create(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startOverloadServer(t, Options{Shards: 1, Queue: 8}, func(s *Server) {
		s.Journal = w
		s.ShedObservationsAt = 0.5
	})
	wc, _, err := wire.Dial(addr, wire.Message{SUO: "shedder", Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	eventually(t, "registration", func() bool { return srv.Pool.Size() == 1 })

	// Three observations refused at pressure 0.5: the journal sees none of
	// them, and the shed counters move only when the marker lands — on the
	// journal-backed path the pending record waits for the next flush.
	release := blockShard(t, srv.Pool, 0, 4)
	for i := 0; i < 3; i++ {
		if err := wc.SendEvent("shedder", outEvent(0, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "shedder", At: sim.Second}); err != nil {
		t.Fatal(err)
	}
	// The marker lands write-ahead of the heartbeat record, and its counters
	// move with it — observable before the (still gated) flush barrier.
	eventually(t, "marker flush", func() bool { obs, _ := shedCounts(srv.Pool); return obs == 3 })
	release()
	if msg, err := wc.Decode(); err != nil || msg.Type != wire.TypeHeartbeat {
		t.Fatalf("heartbeat echo: %+v, %v", msg, err)
	}

	// Two admitted frames and their barrier, then one more shed that never
	// sees a heartbeat: the teardown flush must write its marker.
	for _, at := range []int64{1010, 1020} {
		if err := wc.SendEvent("shedder", outEvent(0, at)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: "shedder", At: 2 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	if msg, err := wc.Decode(); err != nil || msg.Type != wire.TypeHeartbeat {
		t.Fatalf("second heartbeat echo: %+v, %v", msg, err)
	}
	release2 := blockShard(t, srv.Pool, 0, 4)
	if err := wc.SendEvent("shedder", outEvent(0, 2010)); err != nil {
		t.Fatal(err)
	}
	// The close lands after the shed in stream order, and the deferred
	// marker flush runs before the (still gated) device cleanup — so the
	// teardown marker's counters are observable before the gate opens.
	wc.Close()
	eventually(t, "teardown marker flush", func() bool { obs, _ := shedCounts(srv.Pool); return obs == 4 })
	release2()
	eventually(t, "disconnect", func() bool { return srv.Stats().Disconnected == 1 })

	live := srv.Pool.Rollup()
	if live.ShedObservations != 4 || live.Dispatched != 2 {
		t.Fatalf("live rollup sheds=%d dispatched=%d, want 4 and 2", live.ShedObservations, live.Dispatched)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pool2 := NewPool(Options{Shards: 1})
	defer pool2.Stop()
	st, err := pool2.Replay(r, LightMonitorFactory())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sheds != 2 || st.Frames != 2 || st.Heartbeats != 2 {
		t.Fatalf("replay = %s, want 2 shed markers, 2 frames, 2 heartbeats", st)
	}
	replayed := pool2.Rollup()
	if replayed.ShedObservations != live.ShedObservations ||
		replayed.ShedHeartbeats != live.ShedHeartbeats ||
		replayed.Dispatched != live.Dispatched {
		t.Fatalf("replayed rollup %+v diverges from live %+v", replayed, live)
	}
}
