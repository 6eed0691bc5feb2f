package diagnose

import (
	"strings"
	"sync"
	"testing"

	"trader/internal/control"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

const testBlocks = 512

// testRecorder builds a small-program recorder for device i.
func testRecorder(i int) *tvsim.Recorder {
	return tvsim.NewRecorder(tvsim.RecorderOptions{Blocks: testBlocks, Windows: 4, Seed: int64(i + 1)})
}

// sink collects journal appends through the fleet.FrameJournal interface.
type sink struct {
	mu     sync.Mutex
	frames []wire.Message
}

func (s *sink) Append(m wire.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = append(s.frames, m)
	return nil
}

// fakeRequester records pull targets.
type fakeRequester struct {
	mu  sync.Mutex
	ids []string
}

func (f *fakeRequester) RequestSnapshot(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ids = append(f.ids, id)
	return nil
}

// End-to-end through the engine, offline: escalation opens an episode, the
// suspect + cohort are pulled, labeled evidence folds, the ranking names
// the fault block first, and the verdict names its feature.
func TestEngineLocalizesInjectedFault(t *testing.T) {
	const healthy = 9
	pool := fleet.NewPool(fleet.Options{Shards: 2})
	defer pool.Stop()
	addLight := func(id string) {
		t.Helper()
		if err := pool.AddDevice(id, 1, fleet.LightFactory(0)); err != nil {
			t.Fatal(err)
		}
	}
	suspectID := "dev-faulty"
	addLight(suspectID)
	cohortIDs := make([]string, healthy)
	for i := range cohortIDs {
		cohortIDs[i] = fleet.DeviceID(i)
		addLight(cohortIDs[i])
	}

	req := &fakeRequester{}
	js := &sink{}
	eng := Attach(pool, Options{Requester: req, Journal: js, Blocks: testBlocks, Cohort: 8})
	defer eng.Close()

	// Build the evidence: every device exercises the same scenario each
	// window; the suspect's teletext build carries the defect.
	recorders := map[string]*tvsim.Recorder{suspectID: testRecorder(0)}
	fault := recorders[suspectID].InjectFault("teletext")
	for i, id := range cohortIDs {
		recorders[id] = testRecorder(i + 1)
	}
	for id, r := range recorders {
		for w := 0; w < 4; w++ {
			r.Press("teletext")
			r.Press("volume")
			r.Press("zapping")
			r.Rotate(sim.Time(w+1) * 100 * sim.Millisecond)
		}
		_ = id
	}

	eng.HandleAction(control.Action{Device: suspectID, Rung: control.RungReset, Class: control.ClassDeviation})
	eng.Sync()
	req.mu.Lock()
	pulled := append([]string(nil), req.ids...)
	req.mu.Unlock()
	if len(pulled) != 9 || pulled[0] != suspectID {
		t.Fatalf("pulled %v, want suspect first + 8 peers", pulled)
	}
	for _, id := range pulled {
		eng.HandleSnapshot(id, wire.Message{Type: wire.TypeSnapshot, SUO: id,
			At: 400 * sim.Millisecond, Snapshot: recorders[id].Snapshot()})
	}
	eng.Sync()

	ro := eng.Rollup()
	if ro.Episodes != 1 || ro.Snapshots != 9 || ro.Pending != 0 {
		t.Fatalf("rollup: %s", ro)
	}
	if ro.FailWindows != 4 || ro.PassWindows != 8*4 {
		t.Fatalf("windows: %s (open windows with coverage count too?)", ro)
	}

	res := eng.Result(5)
	if len(res.Ranking) != 5 {
		t.Fatalf("ranking has %d entries", len(res.Ranking))
	}
	if res.Ranking[0].Block != fault {
		t.Fatalf("top suspect = block %d (score %f), want fault block %d\n%s",
			res.Ranking[0].Block, res.Ranking[0].Score, fault, res)
	}
	if res.Ranking[0].Component != "teletext" {
		t.Fatalf("top suspect attributed to %q", res.Ranking[0].Component)
	}
	if len(res.Verdict) == 0 || res.Verdict[0].Component != "teletext" {
		t.Fatalf("verdict = %+v, want teletext first", res.Verdict)
	}

	// Every folded snapshot was journaled write-ahead, labeled.
	js.mu.Lock()
	defer js.mu.Unlock()
	if len(js.frames) != 9 {
		t.Fatalf("journaled %d evidence frames, want 9", len(js.frames))
	}
	labels := map[string]int{}
	for _, f := range js.frames {
		if f.Type != wire.TypeSnapshot || f.Snapshot == nil {
			t.Fatalf("journaled frame %+v is not evidence", f)
		}
		labels[f.Target]++
	}
	if labels[LabelFail] != 1 || labels[LabelPass] != 8 {
		t.Fatalf("labels = %v", labels)
	}
}

// A second escalation while the first episode's pulls are outstanding
// coalesces; unsolicited and malformed snapshots are counted, not folded.
func TestEngineEdgeCases(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	if err := pool.AddDevice("a", 1, fleet.LightFactory(0)); err != nil {
		t.Fatal(err)
	}
	eng := Attach(pool, Options{Blocks: testBlocks})
	defer eng.Close()

	act := control.Action{Device: "a", Rung: control.RungRestart}
	eng.HandleAction(act)
	eng.HandleAction(act)
	eng.Sync()
	if ro := eng.Rollup(); ro.Episodes != 1 || ro.Coalesced != 1 {
		t.Fatalf("rollup: %s", ro)
	}
	// Unsolicited device.
	eng.HandleSnapshot("stranger", wire.Message{Type: wire.TypeSnapshot,
		Snapshot: &wire.Snapshot{Blocks: testBlocks}})
	// Wrong block count from the pending suspect.
	eng.HandleSnapshot("a", wire.Message{Type: wire.TypeSnapshot,
		Snapshot: &wire.Snapshot{Blocks: 64}})
	eng.Sync()
	ro := eng.Rollup()
	if ro.Unsolicited != 1 || ro.Malformed != 1 || ro.Snapshots != 0 || ro.Pending != 0 {
		t.Fatalf("rollup: %s", ro)
	}
}

// Overlapping re-pulls must not double-count: a second snapshot re-serving
// already-folded windows (same Seq) folds only the new ones, and the open
// window is never folded (it would double-count when re-captured closed).
func TestEngineDedupsOverlappingPulls(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	if err := pool.AddDevice("a", 1, fleet.LightFactory(0)); err != nil {
		t.Fatal(err)
	}
	eng := Attach(pool, Options{Blocks: testBlocks, Requery: sim.Second})
	defer eng.Close()

	r := testRecorder(0)
	r.Press("volume")
	r.Rotate(100 * sim.Millisecond)
	r.Press("volume") // open-window coverage: must NOT fold
	snap1 := r.Snapshot()

	eng.HandleAction(control.Action{Device: "a", Rung: control.RungReset, At: 100 * sim.Millisecond})
	eng.HandleSnapshot("a", wire.Message{Type: wire.TypeSnapshot, Snapshot: snap1})
	eng.Sync()
	if ro := eng.Rollup(); ro.FailWindows != 1 || ro.SkippedWindows != 1 {
		t.Fatalf("first pull: %s (open window folded?)", ro)
	}

	// The open window closes and one fresh window accrues; the re-pull
	// re-serves window 0 alongside them.
	r.Rotate(200 * sim.Millisecond)
	r.Press("menu")
	r.Rotate(2 * sim.Second)
	eng.HandleAction(control.Action{Device: "a", Rung: control.RungReset, At: 3 * sim.Second})
	eng.HandleSnapshot("a", wire.Message{Type: wire.TypeSnapshot, Snapshot: r.Snapshot()})
	eng.Sync()
	ro := eng.Rollup()
	if ro.FailWindows != 3 {
		t.Fatalf("after re-pull: %d fail windows, want 3 (window 0 deduped, 1+2 folded): %s", ro.FailWindows, ro)
	}
	if ro.Transactions != 3 {
		t.Fatalf("transactions = %d, want 3", ro.Transactions)
	}
}

// A pull that is never answered expires after the requery window, so the
// device becomes diagnosable (and cohort-eligible) again instead of
// pending forever.
func TestEnginePendingPullExpires(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	if err := pool.AddDevice("a", 1, fleet.LightFactory(0)); err != nil {
		t.Fatal(err)
	}
	eng := Attach(pool, Options{Blocks: testBlocks, Requery: sim.Second})
	defer eng.Close()

	eng.HandleAction(control.Action{Device: "a", Rung: control.RungReset, At: sim.Second})
	eng.Sync()
	if ro := eng.Rollup(); ro.Episodes != 1 || ro.Pending != 1 {
		t.Fatalf("first episode: %s", ro)
	}
	// Within the window: coalesces against the outstanding pull.
	eng.HandleAction(control.Action{Device: "a", Rung: control.RungReset, At: 1500 * sim.Millisecond})
	eng.Sync()
	if ro := eng.Rollup(); ro.Episodes != 1 || ro.Coalesced != 1 {
		t.Fatalf("within window: %s", ro)
	}
	// Past the window: the unanswered pull is written off and a fresh
	// episode opens.
	eng.HandleAction(control.Action{Device: "a", Rung: control.RungReset, At: 4 * sim.Second})
	eng.Sync()
	ro := eng.Rollup()
	if ro.Expired != 1 || ro.Episodes != 2 || ro.Pending != 1 {
		t.Fatalf("past window: %s", ro)
	}
}

// A fresh engine warm-started from a journal's evidence (a daemon restart)
// holds exactly the ranking the first engine held — the byte-identity
// invariant across daemon restarts.
func TestEngineRecoverWarmStart(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{})
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
	first := Attach(pool, Options{Journal: jw, Blocks: testBlocks, Cohort: 3})
	recorders := make([]*tvsim.Recorder, 4)
	for i := range recorders {
		recorders[i] = testRecorder(i)
	}
	recorders[0].InjectFault("menu")
	for i := range recorders {
		for w := 0; w < 2; w++ {
			recorders[i].Press("menu")
			recorders[i].Rotate(sim.Time(w+1) * sim.Second)
		}
	}
	first.HandleAction(control.Action{Device: fleet.DeviceID(0), Rung: control.RungReset})
	first.Sync()
	for i, r := range recorders {
		first.HandleSnapshot(fleet.DeviceID(i), wire.Message{Type: wire.TypeSnapshot,
			At: 2 * sim.Second, Snapshot: r.Snapshot()})
	}
	live := first.Result(8)
	first.Close()
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
	if n != 4 {
		t.Fatalf("recovered %d evidence records, want 4", n)
	}
	if got, want := second.Result(8).String(), live.String(); got != want {
		t.Fatalf("warm-started ranking diverged:\nlive:\n%s\nrecovered:\n%s", want, got)
	}
	if ro := second.Rollup(); ro.Snapshots != 4 || ro.FailWindows == 0 {
		t.Fatalf("recovered tallies: %s", ro)
	}
}

// Evidence journaled through a real journal replays to a byte-identical
// Result string — the property the e2e asserts over the full wire path.
func TestReplayReproducesResult(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	for i := 0; i < 5; i++ {
		if err := pool.AddDevice(fleet.DeviceID(i), 1, fleet.LightFactory(0)); err != nil {
			t.Fatal(err)
		}
	}
	eng := Attach(pool, Options{Journal: jw, Blocks: testBlocks, Cohort: 4})
	recorders := make([]*tvsim.Recorder, 5)
	for i := range recorders {
		recorders[i] = testRecorder(i)
	}
	fault := recorders[0].InjectFault("zapping")
	for _, r := range recorders {
		for w := 0; w < 3; w++ {
			r.Press("zapping")
			r.Press("menu")
			r.Rotate(sim.Time(w+1) * sim.Second)
		}
	}
	eng.HandleAction(control.Action{Device: fleet.DeviceID(0), Rung: control.RungReset})
	eng.Sync()
	for i, r := range recorders {
		eng.HandleSnapshot(fleet.DeviceID(i), wire.Message{Type: wire.TypeSnapshot,
			At: 3 * sim.Second, Snapshot: r.Snapshot()})
	}
	live := eng.Result(10)
	eng.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if live.Ranking[0].Block != fault {
		t.Fatalf("live top = %d, want %d", live.Ranking[0].Block, fault)
	}

	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	replayed, st, err := Replay(jr, spectrum.Ochiai, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 5 {
		t.Fatalf("replayed %d snapshots, want 5", st.Snapshots)
	}
	if replayed.String() != live.String() {
		t.Fatalf("replay diverged:\nlive:\n%s\nreplayed:\n%s", live, replayed)
	}
	if !strings.Contains(replayed.String(), "zapping") {
		t.Fatalf("result does not attribute the fault: %s", replayed)
	}
}
