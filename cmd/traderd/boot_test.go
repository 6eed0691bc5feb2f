package main

import (
	"fmt"
	"io"
	"testing"

	"trader/internal/control"
	"trader/internal/diagnose"
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

const (
	bootShards = 2
	bootBlocks = 512
)

// bootPolicy climbs fast: two tolerated reports, two resets, then
// quarantine. It skips the restart rung on purpose: a restart's completion
// re-arms the comparator without a journal record (§4.3), and this test
// wants the replayed pool to equal the live one exactly.
var bootPolicy = control.Policy{Name: "boot-test", Tolerate: 2, Resets: 2}

// countPlane counts the records a replay pass hands its planes.
type countPlane struct{ n int }

func (c *countPlane) Apply(wire.Message) error { c.n++; return nil }
func (c *countPlane) Settle() error            { return nil }

// journalRecords counts what a reader of dir sees — the records after each
// stream's resume point.
func journalRecords(t *testing.T, dir string) int {
	t.Helper()
	r, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		if _, err := r.Next(); err == io.EOF {
			return int(r.Records())
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// bootFleet is one daemon's worth of planes over a light-profile pool, the
// way runIngest registers them: diagnosis first, then the controller that
// escalates into it.
type bootFleet struct {
	pool *fleet.Pool
	eng  *diagnose.Engine
	ctl  *control.Controller
}

func newBootFleet(j fleet.FrameJournal, attach func(*fleet.Pool, control.Options) *control.Controller) *bootFleet {
	f := &bootFleet{pool: fleet.NewPool(fleet.Options{Shards: bootShards})}
	f.eng = diagnose.Attach(f.pool, diagnose.Options{Journal: j, Blocks: bootBlocks, Cohort: 2, Requery: -1, Continuous: true})
	f.ctl = attach(f.pool, control.Options{Journal: j, Policy: bootPolicy, OnEscalate: f.eng.HandleAction})
	return f
}

func (f *bootFleet) stop() {
	f.ctl.Close()
	f.eng.Close()
	f.pool.Stop()
}

// settle drains the pool, then the controller its reports feed, then the
// engine the controller escalates into.
func (f *bootFleet) settle(t *testing.T) {
	t.Helper()
	if err := f.pool.Sync(); err != nil {
		t.Fatal(err)
	}
	f.ctl.Sync()
	f.eng.Sync()
}

// TestBootRecoversEveryPlaneInOnePass is the boot path's own test: a live
// fleet with every plane on journals observations, heartbeats, shed
// markers, control actions and labeled snapshot + delta evidence around a
// full checkpoint batch (device, control, diagnose and Final shard
// records); then a fresh set of planes boots from that directory through
// recoverJournal, the function runIngest and runReplay share.
func TestBootRecoversEveryPlaneInOnePass(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.CreateSharded(dir, bootShards, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.AppendShard(0, profileMarker("light")); err != nil {
		t.Fatal(err)
	}
	live := newBootFleet(jw, control.Attach)
	defer live.stop()
	ids := make([]string, 4)
	recorders := make([]*tvsim.Recorder, len(ids))
	discard := func(wire.Message) error { return nil }
	for i := range ids {
		ids[i] = fmt.Sprintf("boot-%03d", i)
		recorders[i] = tvsim.NewRecorder(tvsim.RecorderOptions{Blocks: bootBlocks, Windows: 4, Seed: int64(i + 1)})
		if err := live.pool.AddRemoteDevice(ids[i], fleet.LightMonitorFactory(), discard); err != nil {
			t.Fatal(err)
		}
	}
	recorders[0].InjectFault("menu")

	// frame journals a record write-ahead of its pool effect, in lock-step
	// the way the ingestion server does.
	frame := func(m wire.Message) {
		t.Helper()
		if err := jw.Append(m); err != nil {
			t.Fatal(err)
		}
		switch {
		case m.Event != nil:
			err = live.pool.Dispatch(m.SUO, *m.Event)
		case m.Type == wire.TypeHeartbeat:
			err = live.pool.AdvanceDevice(m.SUO, m.At)
		case m.Type == wire.TypeShed:
			live.pool.AddShed(m.SUO, *m.Shed)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// One round: every device is commanded and echoes — device 0's echo
	// drifts, so it reports, the ladder acts (journaling the action) and,
	// past tolerate, the engine opens an episode — then heartbeats with a
	// spectrum delta, a shed marker, and the episode's pulled snapshots.
	round := func(n int) {
		// Heartbeats land on the monitors' 10ms comparison grid, so the
		// checkpoint captures every clock on it: a restored monitor re-arms
		// its comparison timer from the capture instant.
		at := sim.Time(n) * 10 * sim.Millisecond
		for i, id := range ids {
			set := event.Event{Kind: event.Input, Name: "set", Source: id, At: at - 2*sim.Millisecond}.With("x", float64(n))
			frame(wire.Message{Type: wire.TypeInput, SUO: id, At: set.At, Event: &set})
			echo := float64(n)
			if i == 0 {
				echo += 2
			}
			out := event.Event{Kind: event.Output, Name: "out", Source: id, At: at - sim.Millisecond}.With("x", echo)
			frame(wire.Message{Type: wire.TypeOutput, SUO: id, At: out.At, Event: &out})
		}
		live.settle(t)
		for i, id := range ids {
			frame(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at})
			recorders[i].Press("menu")
			live.eng.HandleSpectrumDelta(id, wire.Message{Type: wire.TypeSpectrumDelta, SUO: id, At: at,
				Delta: recorders[i].RotateDelta(at)})
		}
		frame(wire.Message{Type: wire.TypeShed, SUO: ids[n%len(ids)], Shed: &wire.ShedRecord{Observations: 3, Heartbeats: 1}})
		live.settle(t)
		for i, id := range ids {
			recorders[i].Press("volume")
			recorders[i].Rotate(at + sim.Millisecond)
			live.eng.HandleSnapshot(id, wire.Message{Type: wire.TypeSnapshot, SUO: id, At: at + sim.Millisecond,
				Snapshot: recorders[i].Snapshot()})
		}
		live.settle(t)
	}

	for n := 1; n <= 4; n++ {
		round(n)
	}
	cper := &fleet.Checkpointer{Pool: live.pool, Journal: jw, Profile: "light",
		Planes: []func() wire.Message{live.eng.Checkpoint, live.ctl.Checkpoint}}
	if err := cper.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The ladder resumes from its checkpoint record; actions after it replay
	// their pool-side effects only (§4.3). So the controller a boot restores
	// is the one captured here.
	wantCtl := live.ctl.Rollup()
	for n := 5; n <= 9; n++ {
		round(n)
	}
	wantPool, wantDiag := live.pool.Rollup(), live.eng.Result(8).String()
	liveCtl := live.ctl.Rollup()
	if liveCtl.Resets == 0 || liveCtl.Quarantines == 0 || liveCtl.Reports <= wantCtl.Reports {
		t.Fatalf("drive did not climb the ladder on both sides of the checkpoint: at checkpoint %+v, at crash %+v", wantCtl, liveCtl)
	}
	if ro := live.eng.Rollup(); ro.Snapshots == 0 || ro.Deltas == 0 || ro.FailWindows == 0 {
		t.Fatalf("drive folded no labeled evidence: %s", ro)
	}
	if err := jw.Close(); err != nil { // the "crash": nothing below touches the live planes
		t.Fatal(err)
	}
	records := journalRecords(t, dir)

	// Boot. The planes are built the way runIngest builds them — the
	// controller unsubscribed, their journal handle not yet bound — and
	// recovered in one pass.
	sink := &journalSink{}
	boot := newBootFleet(sink, control.New)
	defer boot.stop()
	var seen countPlane
	st, err := recoverJournal(dir, "light", boot.pool, fleet.LightMonitorFactory(),
		boot.eng, boot.ctl, &seen)
	if err != nil {
		t.Fatal(err)
	}

	// (a) every plane is back where the live fleet left it.
	if got := boot.pool.Rollup(); got != wantPool {
		t.Errorf("pool rollup diverged:\n live %+v\n boot %+v", wantPool, got)
	}
	if got := boot.ctl.Rollup(); got != wantCtl {
		t.Errorf("controller rollup diverged from its checkpoint:\n live %+v\n boot %+v", wantCtl, got)
	}
	if got := boot.eng.Result(8).String(); got != wantDiag {
		t.Errorf("diagnosis diverged:\nlive:\n%s\nboot:\n%s", wantDiag, got)
	}
	if boot.ctl.Recovered() != 1 || boot.eng.Recovered() == 0 {
		t.Errorf("planes recovered from %d control and %d evidence records", boot.ctl.Recovered(), boot.eng.Recovered())
	}
	// (b) one pass: each record after the resume points reached each plane
	// exactly once, and the pool accounts for every one of them.
	applied := st.Frames + st.Heartbeats + st.Actions + st.Evidence + st.Checkpoints + st.Sheds + st.Handoffs + st.Skipped
	if seen.n != records || applied != records {
		t.Errorf("journal holds %d records; the pass fanned out %d and the pool applied %d (%s)", records, seen.n, applied, st)
	}
	if st.Actions == 0 || st.Sheds == 0 || st.Evidence == 0 || st.Checkpoints == 0 || st.Devices != len(ids) {
		t.Errorf("replay did not cover every record kind: %s", st)
	}
	// (d) the reports the replayed frames re-raised reached neither the
	// ladder nor the journal: the controller's tally is exactly its
	// checkpoint's (checked above), where an action taken during the pass
	// would have counted a report, a rung and — the sink being unbound — a
	// refused append.
	//
	// Settled means subscribed, and the journal opens after the pass: bind
	// it the way runIngest does and drift a healthy device (device 0 is
	// quarantined by now). This report does reach the ladder, and its
	// action the journal.
	jw2, err := journal.CreateSharded(dir, bootShards, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sink.w = jw2
	at := 120 * sim.Millisecond
	set := event.Event{Kind: event.Input, Name: "set", Source: ids[1], At: at - 2*sim.Millisecond}.With("x", 9)
	out := event.Event{Kind: event.Output, Name: "out", Source: ids[1], At: at - sim.Millisecond}.With("x", 11)
	for _, ev := range []event.Event{set, out} {
		if err := boot.pool.Dispatch(ids[1], ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := boot.pool.AdvanceDevice(ids[1], at); err != nil {
		t.Fatal(err)
	}
	boot.settle(t)
	if err := jw2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := boot.ctl.Rollup(); got.Reports != wantCtl.Reports+1 || got.JournalErrors != 0 {
		t.Errorf("live report after boot: controller %+v, want one more report than %+v and no journal error", got, wantCtl)
	}
	if got := journalRecords(t, dir); got != records+1 {
		t.Errorf("journal holds %d records after one live action, want %d", got, records+1)
	}

	// (c) the same directory under another profile is refused — by the
	// Profile tag on the checkpoint batch's Final record, before any of the
	// batch's device records reaches a monitor of the wrong shape.
	tv, err := monitorFactory("tv")
	if err != nil {
		t.Fatal(err)
	}
	other := fleet.NewPool(fleet.Options{Shards: bootShards})
	defer other.Stop()
	_, err = recoverJournal(dir, "tv", other, tv)
	want := fmt.Sprintf("journal %s was written under -suo light, but -suo tv is in effect; pass -suo light to replay it faithfully", dir)
	if err == nil || err.Error() != want {
		t.Errorf("profile mismatch:\n got  %v\n want %s", err, want)
	}
	if n := other.Size(); n != 0 {
		t.Errorf("mismatched journal still built %d devices", n)
	}
}

// TestBootRefusesMarkerMismatch is the uncheckpointed half of the profile
// check: the Hello marker at the journal head names the profile.
func TestBootRefusesMarkerMismatch(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.CreateSharded(dir, 1, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ev := event.Event{Kind: event.Output, Name: "out", Source: "dev", At: 10 * sim.Millisecond}.With("x", 0)
	for _, m := range []wire.Message{profileMarker("tv"), {Type: wire.TypeOutput, SUO: "dev", At: ev.At, Event: &ev}} {
		if err := jw.AppendShard(0, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	_, err = recoverJournal(dir, "light", pool, fleet.LightMonitorFactory())
	want := fmt.Sprintf("journal %s was written under -suo tv, but -suo light is in effect; pass -suo tv to replay it faithfully", dir)
	if err == nil || err.Error() != want {
		t.Fatalf("profile mismatch:\n got  %v\n want %s", err, want)
	}
	if n := pool.Size(); n != 0 {
		t.Fatalf("mismatched journal still built %d devices", n)
	}
}

// A journal whose marker names a profile this build does not know is
// refused as such, not with advice to pass a -suo the build would reject.
func TestBootRefusesUnknownProfileMarker(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.CreateSharded(dir, 1, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.AppendShard(0, profileMarker("stb")); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	_, err = recoverJournal(dir, "light", pool, fleet.LightMonitorFactory())
	want := fmt.Sprintf("journal %s was written under -suo stb, a profile this build does not know (known: light, mediaplayer, tv)", dir)
	if err == nil || err.Error() != want {
		t.Fatalf("unknown profile:\n got  %v\n want %s", err, want)
	}
}
