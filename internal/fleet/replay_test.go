package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/wire"
)

// replayScript is one scripted journal mixing every record shape the pool's
// replay acts on. lead is the number of batched per-device records ahead of
// the first record the Replayer applies directly, so the callers can park
// that record one short of a full batch, on the boundary and one past it;
// every later direct record lands mid-batch as well.
func replayScript(t *testing.T, lead int) []wire.Message {
	t.Helper()
	const a, b, c, d, e = "dev-a", "dev-b", "dev-c", "dev-d", "dev-e"
	var script []wire.Message
	clock := map[string]sim.Time{}
	obs := func(id string, typ wire.MsgType, kind event.Kind, name string, x float64) {
		clock[id] += sim.Millisecond
		ev := event.Event{Kind: kind, Name: name, Source: id, At: clock[id]}.With("x", x)
		script = append(script, wire.Message{Type: typ, SUO: id, Event: &ev, At: clock[id]})
	}
	// round is a command, its echo, off outputs that deviate (two in a row
	// draw a report) and a heartbeat closing the comparison window.
	round := func(id string, level float64, off int) {
		obs(id, wire.TypeInput, event.Input, "set", level)
		obs(id, wire.TypeOutput, event.Output, "out", level)
		for i := 0; i < off; i++ {
			obs(id, wire.TypeOutput, event.Output, "out", level+1)
		}
		clock[id] += 10 * sim.Millisecond
		script = append(script, wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: clock[id]})
	}
	// captured is a device's state as another pool would hand it over.
	captured := func(id string) *wire.Checkpoint {
		src := NewPool(Options{Shards: 1})
		defer src.Stop()
		if err := src.AddRemoteDevice(id, LightMonitorFactory(), discardSink); err != nil {
			t.Fatal(err)
		}
		streamLight(t, src, id, 20, 0)
		cp, err := src.CaptureDevice(id)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}

	script = append(script, wire.Message{Type: wire.TypeHello, SUO: "traderd", Target: "light"}) // skipped
	for i := 0; len(script) < lead+1; i++ {
		round([]string{a, b, c}[i%3], float64(i%7), i%4/2*2)
	}
	script = script[:lead+1]
	script = append(script, wire.Message{Type: wire.TypeShed, SUO: a, Shed: &wire.ShedRecord{Observations: 5, Heartbeats: 1}})
	round(a, 3, 2)
	round(b, 4, 0)
	script = append(script, wire.Message{Type: wire.TypeControl, SUO: b, Control: wire.CtrlQuarantine, At: clock[b]})
	round(b, 5, 2) // dropped as quarantined
	script = append(script, wire.Message{Type: wire.TypeControl, SUO: a, Control: wire.CtrlReset, At: clock[a]})
	round(a, 6, 2)
	round(c, 1, 0)
	script = append(script, wire.Message{Type: wire.TypeHandoff, SUO: c, At: clock[c],
		Handoff: &wire.HandoffRecord{From: "edge-0", To: "edge-1", Out: true}})
	clock[c] = 0
	round(c, 2, 2) // rebuilt from scratch: counted as a device again
	cpD, cpE := captured(d), captured(e)
	script = append(script, wire.Message{Type: wire.TypeHandoff, SUO: d, At: cpD.At,
		Handoff: &wire.HandoffRecord{From: "edge-1", To: "edge-0"}, Checkpoint: cpD})
	clock[d] = cpD.At
	round(d, 2, 2)
	script = append(script,
		wire.Message{Type: wire.TypeCheckpoint, SUO: e, At: cpE.At, Checkpoint: cpE}, // the first record naming e
		wire.Message{Type: wire.TypeCheckpoint, Checkpoint: &wire.Checkpoint{Plane: wire.PlaneShard, Shard: 0, Final: true,
			Counters: []wire.CheckpointCounter{{Name: "dispatched", V: 1000}, {Name: "reports", V: 3}}}},
		wire.Message{Type: wire.TypeCheckpoint, Checkpoint: &wire.Checkpoint{Plane: wire.PlaneControl}}, // another plane's
		AdoptBaselineRecord("edge-2", "edge-0", Stats{Dispatched: 123, Reports: 4, ShedObservations: 7}),
		wire.Message{Type: wire.TypeOutput, At: 1},                                  // no device: skipped
		wire.Message{Type: wire.TypeSnapshot, SUO: a, Target: "fail", At: clock[a]}, // evidence: counted only
	)
	clock[e] = cpE.At
	round(e, 1, 2)
	round(a, 2, 0)
	return script
}

// oracleApply is the replay contract spelled record-at-a-time over the
// pool's public API, one synchronous call per record: what the batched
// Replayer must be indistinguishable from.
func oracleApply(p *Pool, st *ReplayStats, m wire.Message) error {
	factory, id := LightMonitorFactory(), m.SUO
	ensure := func() error {
		err := p.AddRemoteDevice(id, factory, discardSink)
		if err == nil {
			st.Devices++
		} else if !errors.Is(err, ErrDuplicateDevice) {
			return err
		}
		return nil
	}
	switch {
	case m.Type == wire.TypeHeartbeat && id != "":
		st.Heartbeats++
		if err := ensure(); err != nil {
			return err
		}
		return p.AdvanceDevice(id, m.At)
	case m.Type == wire.TypeControl && id != "":
		st.Actions++
		if err := ensure(); err != nil {
			return err
		}
		if m.Control == wire.CtrlQuarantine {
			_, err := p.QuarantineDevice(id)
			return err
		}
		_, err := p.ResetDevice(id)
		return err
	case m.Event != nil && id != "":
		st.Frames++
		if err := ensure(); err != nil {
			return err
		}
		return p.Dispatch(id, *m.Event)
	case m.Type == wire.TypeSnapshot:
		st.Evidence++
	case m.Type == wire.TypeShed:
		st.Sheds++
		p.AddShed(id, *m.Shed)
	case m.Type == wire.TypeHandoff && id != "" && m.Handoff.Out:
		st.Handoffs++
		_, err := p.RemoveDevice(id)
		return err
	case m.Type == wire.TypeHandoff && id != "":
		st.Handoffs++
		if err := ensure(); err != nil {
			return err
		}
		return p.RestoreDeviceCheckpoint(id, m.Checkpoint)
	case m.Type == wire.TypeHandoff:
		st.Handoffs++
		p.AdoptBaseline(m.Handoff.From, m.Checkpoint.Counters)
	case m.Type == wire.TypeCheckpoint && m.Checkpoint.Plane == wire.PlaneDevice:
		st.Checkpoints++
		if err := ensure(); err != nil {
			return err
		}
		return p.RestoreDeviceCheckpoint(id, m.Checkpoint)
	case m.Type == wire.TypeCheckpoint && m.Checkpoint.Plane == wire.PlaneShard:
		st.Checkpoints++
		p.RestoreShardBaseline(m.Checkpoint)
	case m.Type == wire.TypeCheckpoint:
		st.Checkpoints++
	default:
		st.Skipped++
	}
	return nil
}

// The batched Replayer against the record-at-a-time oracle, with the first
// directly applied record one short of a full batch, on the boundary, one
// past it and several batches in, on one shard and on several.
func TestReplayerMatchesRecordAtATimeOracle(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, lead := range []int{replayBatch - 1, replayBatch, replayBatch + 1, 3*replayBatch + 7} {
			t.Run(fmt.Sprintf("shards=%d/lead=%d", shards, lead), func(t *testing.T) {
				script := replayScript(t, lead)
				want, got := NewPool(Options{Shards: shards}), NewPool(Options{Shards: shards})
				defer want.Stop()
				defer got.Stop()

				var wantStats ReplayStats
				for i, m := range script {
					if err := oracleApply(want, &wantStats, m); err != nil {
						t.Fatalf("oracle: record %d: %v", i, err)
					}
				}
				if err := want.Sync(); err != nil {
					t.Fatal(err)
				}
				rp := got.Replayer(LightMonitorFactory())
				for i, m := range script {
					if err := rp.Apply(m); err != nil {
						t.Fatalf("replayer: record %d: %v", i, err)
					}
				}
				if err := rp.Settle(); err != nil {
					t.Fatal(err)
				}

				if rp.Stats != wantStats {
					t.Errorf("ReplayStats:\n got: %+v\nwant: %+v", rp.Stats, wantStats)
				}
				if wantStats.Devices != 6 || wantStats.Actions != 2 || wantStats.Handoffs != 3 || wantStats.Sheds != 1 {
					t.Errorf("script lost a shape: %+v", wantStats)
				}
				wantRoll, gotRoll := want.Rollup(), got.Rollup()
				if gotRoll != wantRoll {
					t.Errorf("Rollup:\n got: %+v\nwant: %+v", gotRoll, wantRoll)
				}
				if wantRoll.Reports == 0 || wantRoll.Quarantined == 0 || wantRoll.Devices != 5 {
					t.Errorf("script provoked too little: %+v", wantRoll)
				}
				if g, w := got.DeviceStats(), want.DeviceStats(); !reflect.DeepEqual(g, w) {
					t.Errorf("DeviceStats:\n got: %+v\nwant: %+v", g, w)
				}
				for id := range want.DeviceStats() {
					gq, _ := got.Quarantined(id)
					wq, _ := want.Quarantined(id)
					if gq != wq || wq != (id == "dev-b") {
						t.Errorf("%s quarantined: got %v, oracle %v", id, gq, wq)
					}
				}
			})
		}
	}
}

// A factory failure happens on a shard, batches later than the record that
// provoked it; it must still abort the replay, with the text the boot logs.
func TestReplayerLatchesFactoryFailure(t *testing.T) {
	failing := func(id string, seed int64) (*sim.Kernel, *core.Monitor, error) {
		if id == "dev-bad" {
			return nil, nil, errors.New("boom")
		}
		return LightMonitorFactory()(id, seed)
	}
	const want = `fleet: replay device "dev-bad": fleet: building device "dev-bad": boom`
	frame := func(id string) wire.Message {
		ev := event.Event{Kind: event.Output, Name: "out", Source: id, At: 1}.With("x", 0)
		return wire.Message{Type: wire.TypeOutput, SUO: id, Event: &ev, At: 1}
	}

	t.Run("next Apply", func(t *testing.T) {
		p := NewPool(Options{Shards: 1})
		defer p.Stop()
		rp := p.Replayer(failing)
		for i := 0; i < replayBatch; i++ { // exactly one batch: submitted by the last Apply
			if err := rp.Apply(frame("dev-bad")); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		}
		if err := p.Sync(); err != nil { // the shard has run the batch
			t.Fatal(err)
		}
		if err := rp.Apply(frame("dev-ok")); err == nil || err.Error() != want {
			t.Fatalf("Apply after the failed batch = %v, want %s", err, want)
		}
	})
	t.Run("Settle", func(t *testing.T) {
		p := NewPool(Options{Shards: 2})
		defer p.Stop()
		rp := p.Replayer(failing)
		for _, id := range []string{"dev-ok", "dev-bad", "dev-ok"} { // never fills a batch
			if err := rp.Apply(frame(id)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rp.Settle(); err == nil || err.Error() != want {
			t.Fatalf("Settle = %v, want %s", err, want)
		}
	})
	t.Run("Pool.Replay restore failure", func(t *testing.T) {
		p := NewPool(Options{Shards: 1})
		defer p.Stop()
		rp := p.Replayer(LightMonitorFactory())
		bad := &wire.Checkpoint{Plane: wire.PlaneDevice, Obs: []wire.CheckpointObs{{Name: "no-such-observable"}}}
		if err := rp.Apply(wire.Message{Type: wire.TypeCheckpoint, SUO: "dev-ok", Checkpoint: bad}); err != nil {
			t.Fatal(err)
		}
		if err := rp.Settle(); err == nil || !strings.Contains(err.Error(), "no-such-observable") {
			t.Fatalf("Settle = %v, want the restore failure", err)
		}
	})
}

// Allocation gate: buffering a frame record costs the reader
// goroutine no allocation — the batch buffers circulate — and the shard
// runs it without one, where the per-record closure and channel send of
// Pool.Dispatch cost 1.5.
func TestReplayerApplyAllocsPerFrame(t *testing.T) {
	p := NewPool(Options{Shards: 2})
	defer p.Stop()
	rp := p.Replayer(LightMonitorFactory())
	ids := []string{DeviceID(0), DeviceID(1), DeviceID(2)}
	msgs := make([]wire.Message, len(ids))
	for i, id := range ids {
		ev := event.Event{Kind: event.Output, Name: "out", Source: id, At: 1}.With("x", 0)
		msgs[i] = wire.Message{Type: wire.TypeOutput, SUO: id, Event: &ev, At: 1}
	}
	n := 0
	apply := func() {
		if err := rp.Apply(msgs[n%len(msgs)]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for i := 0; i < 4*replayBatch; i++ { // devices built, every buffer used once
		apply()
	}
	if got := testing.AllocsPerRun(20*replayBatch, apply); got > 0.1 {
		t.Fatalf("Replayer.Apply allocates %.3f times per frame record, want ≤ 0.1", got)
	}
	if err := rp.Settle(); err != nil {
		t.Fatal(err)
	}
	if want := n; rp.Stats.Frames != want || rp.Stats.Devices != len(ids) {
		t.Fatalf("replayed %+v, want %d frames into %d devices", rp.Stats, want, len(ids))
	}
}

// Replaying into a stopped pool fails every record it has to submit, and
// keeps failing: no Apply may wait for a batch buffer the pool never returns.
func TestReplayerIntoStoppedPoolFailsWithoutHanging(t *testing.T) {
	p := NewPool(Options{Shards: 1})
	rp := p.Replayer(LightMonitorFactory())
	p.Stop()
	ev := event.Event{Kind: event.Output, Name: "out", At: 1}.With("x", 0)
	failed := 0
	for i := 0; i < 2*replayInFlight*replayBatch; i++ {
		if err := rp.Apply(wire.Message{Type: wire.TypeOutput, SUO: "dev-a", Event: &ev, At: 1}); err != nil {
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("record %d: %v, want ErrStopped", i, err)
			}
			failed++
		}
	}
	if failed != 2*replayInFlight {
		t.Fatalf("%d submits failed, want %d", failed, 2*replayInFlight)
	}
	if err := rp.Settle(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Settle = %v, want ErrStopped", err)
	}
}

// Heap gate: a light remote device — what a cold boot builds 20 000 of —
// holds at most 2 000 bytes of heap once registered: its kernel, spec model,
// monitor and pool slot. Measured the way the benchmark's
// fleet.pool.heap_bytes_per_device is: HeapAlloc over many AddRemoteDevice
// calls, after a GC on each side.
func TestLightRemoteDeviceHeapBytes(t *testing.T) {
	const devices, limit = 10000, 2000
	factory := LightMonitorFactory()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := NewPool(Options{Shards: 2})
	defer p.Stop()
	for i := 0; i < devices; i++ {
		if err := p.AddRemoteDevice(fmt.Sprintf("heap-%05d", i), factory, discardSink); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / devices
	t.Logf("%.0f heap bytes per light remote device", per)
	if per > limit {
		t.Fatalf("a light remote device holds %.0f bytes of heap, want ≤ %d", per, limit)
	}
	runtime.KeepAlive(p)
}
