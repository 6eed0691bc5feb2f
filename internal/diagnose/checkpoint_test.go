package diagnose

import (
	"testing"

	"trader/internal/control"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// TestCheckpointSupersedesReplayedEvidence is the diagnosis-plane resume
// property: a journal holding [episode-1 evidence, checkpoint, episode-2
// evidence] recovers to exactly the live engine's final state — the
// checkpoint restores absolutely (superseding the pre-checkpoint records a
// real resume would not even read), and the restored fold high-water marks
// keep episode 2's re-sent windows from double-folding.
func TestCheckpointSupersedesReplayedEvidence(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	for i := 0; i < 4; i++ {
		if err := pool.AddDevice(fleet.DeviceID(i), 1, fleet.LightFactory(0)); err != nil {
			t.Fatal(err)
		}
	}
	live := Attach(pool, Options{Journal: jw, Blocks: testBlocks, Cohort: 3, Requery: -1})
	recorders := make([]*tvsim.Recorder, 4)
	for i := range recorders {
		recorders[i] = testRecorder(i)
	}
	recorders[0].InjectFault("menu")

	episode := func(n int, upto sim.Time) {
		live.HandleAction(control.Action{Device: fleet.DeviceID(0), Rung: control.RungReset, At: upto})
		live.Sync()
		for i, r := range recorders {
			live.HandleSnapshot(fleet.DeviceID(i), wire.Message{Type: wire.TypeSnapshot, At: upto, Snapshot: r.Snapshot()})
		}
		live.Sync()
	}
	for i, r := range recorders {
		_ = i
		r.Press("menu")
		r.Rotate(1 * sim.Second)
	}
	episode(1, 1*sim.Second)

	// Snapshot the plane mid-journal, exactly where a Checkpointer would.
	cpMsg := live.Checkpoint()
	if cp := cpMsg.Checkpoint; cp == nil || cp.Plane != wire.PlaneDiagnose || cp.NFail == 0 {
		t.Fatalf("checkpoint record malformed: %+v", cpMsg.Checkpoint)
	}
	if err := jw.Append(cpMsg); err != nil {
		t.Fatal(err)
	}

	// Episode 2: every recorder re-sends its old windows plus one new one.
	for _, r := range recorders {
		r.Press("zapping")
		r.Press("menu")
		r.Rotate(2 * sim.Second)
	}
	episode(2, 2*sim.Second)
	want := live.Result(8)
	wantRo := live.Rollup()
	live.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	second := Attach(pool, Options{Blocks: testBlocks})
	defer second.Close()
	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = journal.Replay(jr, second)
	n := second.Recovered()
	jr.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("recovered %d evidence records, want 8", n)
	}
	if got, want := second.Result(8).String(), want.String(); got != want {
		t.Fatalf("recovered ranking diverged:\nlive:\n%s\nrecovered:\n%s", want, got)
	}
	ro := second.Rollup()
	if ro.Snapshots != wantRo.Snapshots || ro.FailWindows != wantRo.FailWindows ||
		ro.PassWindows != wantRo.PassWindows || ro.SkippedWindows != wantRo.SkippedWindows {
		t.Fatalf("recovered tallies diverged:\nlive:      %s\nrecovered: %s", wantRo, ro)
	}
}

// TestRestoreRefusesForeignLayout pins the layout guard on restore.
func TestRestoreRefusesForeignLayout(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	e := Attach(pool, Options{Blocks: testBlocks})
	defer e.Close()
	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	err = jw.Append(wire.Message{Type: wire.TypeCheckpoint, Checkpoint: &wire.Checkpoint{
		Plane: wire.PlaneDiagnose, Blocks: testBlocks + 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	jw.Close()
	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if err := journal.Replay(jr, e); err == nil {
		t.Fatal("recover accepted a checkpoint with a foreign block count")
	}
}

// TestOfflineReplayResumesFromCheckpoint pins the §5.4 byte-identity on a
// checkpointed journal: fold evidence, write a global checkpoint (which
// truncates the segments holding that evidence), fold more — and the
// offline Replay, which can only read [checkpoint batch, later evidence],
// must still format the live engine's exact Result. It does so only by
// restoring the PlaneDiagnose record the way a booting engine does; a
// replay that skipped it would rank the post-checkpoint evidence alone.
func TestOfflineReplayResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.CreateSharded(dir, 1, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	ids := make([]string, 4)
	recorders := make([]*tvsim.Recorder, len(ids))
	for i := range ids {
		ids[i] = fleet.DeviceID(i)
		recorders[i] = testRecorder(i)
		if err := pool.AddDevice(ids[i], 1, fleet.LightFactory(0)); err != nil {
			t.Fatal(err)
		}
	}
	recorders[0].InjectFault("menu")
	live := Attach(pool, Options{Journal: jw, Blocks: testBlocks, Cohort: 3, Requery: -1, Continuous: true})
	defer live.Close()

	// One round: every device volunteers a heartbeat delta, then device 0
	// escalates and the episode pulls the whole cohort's snapshots.
	round := func(at sim.Time, features ...string) {
		for i, r := range recorders {
			for _, f := range features {
				r.Press(f)
			}
			live.HandleSpectrumDelta(ids[i], deltaMsg(ids[i], at, r.RotateDelta(at)))
		}
		live.HandleAction(control.Action{Device: ids[0], Rung: control.RungReset, At: at})
		live.Sync()
		for i, r := range recorders {
			r.Press("volume")
			r.Rotate(at + sim.Millisecond)
			live.HandleSnapshot(ids[i], wire.Message{Type: wire.TypeSnapshot, At: at + sim.Millisecond, Snapshot: r.Snapshot()})
		}
		live.Sync()
	}
	round(1*sim.Second, "menu")
	cper := &fleet.Checkpointer{Pool: pool, Journal: jw, Planes: []func() wire.Message{live.Checkpoint}}
	if err := cper.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	round(2*sim.Second, "menu", "zapping")
	want, wantRo := live.Result(8).String(), live.Rollup()
	if wantRo.FailWindows == 0 || len(live.Result(8).Parts) == 0 {
		t.Fatalf("drive folded no failing evidence: %s", wantRo)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	got, st, err := Replay(jr, live.coeff, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatalf("replay found no evidence in %d records", jr.Records())
	}
	if got.String() != want {
		t.Fatalf("offline replay diverged from the live engine after a checkpoint:\nlive:\n%s\noffline:\n%s", want, got)
	}
	if st.Snapshots != int(wantRo.Snapshots) || st.Deltas != int(wantRo.Deltas) ||
		st.Windows != int(wantRo.FailWindows+wantRo.PassWindows) {
		t.Fatalf("offline stats %+v diverge from the live rollup %s", st, wantRo)
	}
}
