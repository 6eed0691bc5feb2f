package fleet_test

import (
	"testing"

	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

// TestShardRoutingParityWithJournal pins the invariant the sharded journal
// layout rests on — journal.ShardOf, fleet.RangeOf and Pool.ShardOf agree,
// so a device's records land in the stream owned by the shard that runs its
// monitor — as golden vectors: the three are one function now, and the
// mapping is on disk in every sharded journal, so what must not drift is
// the hash itself. Each ID's FNV-1a fold is spelled out; its bucket under
// every shard count follows.
func TestShardRoutingParityWithJournal(t *testing.T) {
	golden := []struct {
		id   string
		hash uint32
	}{
		{"", 0x811c9dc5},
		{"a", 0xe40c292c},
		{"tv-SN-0x99", 0xb4379d58},
		{"€-unicode-id", 0xa4bba55d},
		{fleet.DeviceID(0), 0x4d98ccab},
		{fleet.DeviceID(499), 0xfc1d5a51},
	}
	for _, shards := range []int{1, 2, 3, 4, 7, 8, 16} {
		p := fleet.NewPool(fleet.Options{Shards: shards})
		for _, g := range golden {
			want := int(g.hash % uint32(shards))
			if j, r, s := journal.ShardOf(g.id, shards), fleet.RangeOf(g.id, shards), p.ShardOf(g.id); j != want || r != want || s != want {
				t.Fatalf("shards=%d id=%q: journal.ShardOf=%d, fleet.RangeOf=%d, pool.ShardOf=%d, golden %d",
					shards, g.id, j, r, s, want)
			}
		}
		p.Stop()
	}
}

// outEvent is an observation of the light monitor's "x" observable.
func outEvent(id string, v float64, at sim.Time) event.Event {
	return event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", v)
}

// driveCheckpointFleet loads a remote-device pool with deterministic
// traffic: every device gets a command and a matching echo, device 0's
// echoes drift (deviations → error reports), device 1 is quarantined. All
// clocks end at a CompareEvery multiple so capture instants align with the
// comparison grid.
func driveCheckpointFleet(t *testing.T, p *fleet.Pool, ids []string) {
	t.Helper()
	discard := func(wire.Message) error { return nil }
	for _, id := range ids {
		if err := p.AddRemoteDevice(id, fleet.LightMonitorFactory(), discard); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 4; round++ {
		at := sim.Time(round) * 10 * sim.Millisecond
		for i, id := range ids {
			set := event.Event{Kind: event.Input, Name: "set", Source: id, At: at - sim.Millisecond}.With("x", float64(round))
			if err := p.Dispatch(id, set); err != nil {
				t.Fatal(err)
			}
			echo := float64(round)
			if i == 0 {
				echo += 2 // a drifting device: every echo deviates
			}
			if err := p.Dispatch(id, outEvent(id, echo, at)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids {
		if err := p.AdvanceDevice(id, 50*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.QuarantineDevice(ids[1]); err != nil {
		t.Fatal(err)
	}
	// One dispatch into the quarantined device so the drop counter moves.
	if err := p.Dispatch(ids[1], outEvent(ids[1], 1, 50*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureRestoreCheckpointRoundTrip drives a fleet, captures it, and
// restores the batches into a fresh pool: the restored rollup must equal
// the original exactly — monitor counters, traffic counters, quarantine.
func TestCaptureRestoreCheckpointRoundTrip(t *testing.T) {
	const shards = 3
	ids := []string{fleet.DeviceID(0), fleet.DeviceID(1), fleet.DeviceID(2), fleet.DeviceID(3), fleet.DeviceID(4)}
	a := fleet.NewPool(fleet.Options{Shards: shards})
	defer a.Stop()
	driveCheckpointFleet(t, a, ids)
	want := a.Rollup()
	if want.Reports == 0 {
		t.Fatal("drive produced no error reports; the round trip would not exercise report baselines")
	}
	if want.Quarantined == 0 {
		t.Fatal("drive produced no quarantined drops")
	}

	batches, err := a.CaptureCheckpoint("light", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != shards {
		t.Fatalf("got %d batches, want %d", len(batches), shards)
	}
	b := fleet.NewPool(fleet.Options{Shards: shards})
	defer b.Stop()
	discard := func(wire.Message) error { return nil }
	var devices, finals int
	for i, batch := range batches {
		if len(batch) == 0 {
			t.Fatalf("shard %d: empty batch", i)
		}
		last := batch[len(batch)-1]
		if cp := last.Checkpoint; cp == nil || !cp.Final || cp.Plane != wire.PlaneShard || cp.Profile != "light" || cp.Seq != 7 {
			t.Fatalf("shard %d: batch does not end in a Final shard record: %+v", i, last.Checkpoint)
		}
		for _, m := range batch {
			cp := m.Checkpoint
			if m.Type != wire.TypeCheckpoint || cp == nil {
				t.Fatalf("shard %d: non-checkpoint record in batch", i)
			}
			if cp.Shard != i {
				t.Fatalf("shard %d: record claims shard %d", i, cp.Shard)
			}
			switch cp.Plane {
			case wire.PlaneDevice:
				if b.ShardOf(m.SUO) != i {
					t.Fatalf("device %q captured on shard %d, routes to %d", m.SUO, i, b.ShardOf(m.SUO))
				}
				if err := b.AddRemoteDevice(m.SUO, fleet.LightMonitorFactory(), discard); err != nil {
					t.Fatal(err)
				}
				if err := b.RestoreDeviceCheckpoint(m.SUO, cp); err != nil {
					t.Fatal(err)
				}
				devices++
			case wire.PlaneShard:
				b.RestoreShardBaseline(cp)
				finals++
			}
		}
	}
	if devices != len(ids) || finals != shards {
		t.Fatalf("restored %d devices and %d shard records, want %d and %d", devices, finals, len(ids), shards)
	}
	got := b.Rollup()
	if got != want {
		t.Fatalf("restored rollup diverges:\n got  %+v\n want %+v", got, want)
	}
	if q, err := b.Quarantined(ids[1]); err != nil || !q {
		t.Fatalf("quarantine flag lost in restore (q=%v err=%v)", q, err)
	}

	// The restored pool must CONTINUE identically, not just report the same
	// totals: one more aligned round through both pools stays in lock-step
	// (pending comparison timers re-anchor on the same grid).
	for _, p := range []*fleet.Pool{a, b} {
		for _, id := range ids {
			if err := p.Dispatch(id, outEvent(id, 99, 55*sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if err := p.AdvanceDevice(id, 70*sim.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	ga, gb := a.Rollup(), b.Rollup()
	if ga != gb {
		t.Fatalf("post-restore traffic diverges:\n live     %+v\n restored %+v", ga, gb)
	}
	if ga.Monitor.Deviations == want.Monitor.Deviations {
		t.Fatal("post-restore round produced no new deviations; lock-step check is vacuous")
	}
}

// TestRestoreShardBaselineOverwrites pins re-restore semantics: a later
// checkpoint's baseline replaces the earlier one (assignment, not sum).
func TestRestoreShardBaselineOverwrites(t *testing.T) {
	p := fleet.NewPool(fleet.Options{Shards: 2})
	defer p.Stop()
	mk := func(n uint64) *wire.Checkpoint {
		return &wire.Checkpoint{Plane: wire.PlaneShard, Shard: 1, Final: true, Counters: []wire.CheckpointCounter{
			{Name: "dispatched", V: n}, {Name: "reports", V: n},
		}}
	}
	p.RestoreShardBaseline(mk(100))
	p.RestoreShardBaseline(mk(7))
	if got := p.Rollup(); got.Dispatched != 7 || got.Reports != 7 {
		t.Fatalf("baselines accumulated instead of overwriting: %+v", got)
	}
}
