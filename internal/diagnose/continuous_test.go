package diagnose

import (
	"strings"
	"testing"

	"trader/internal/control"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// deltaMsg wraps a recorder's rotated delta as the wire frame the fleet
// server would hand to the engine.
func deltaMsg(id string, at sim.Time, d *wire.SpectrumDelta) wire.Message {
	return wire.Message{Type: wire.TypeSpectrumDelta, SUO: id, At: at, Delta: d}
}

// With the requery gap disabled (Requery < 0) an unanswered pull must be
// written off by the very next escalation, not parked for the default
// window: before the fix the expiry path fell back to DefaultRequery, so a
// device that vanished mid-pull stayed pinned as in-flight — and coalesced
// every later escalation of its cohort peers — for two virtual seconds the
// caller had explicitly turned off.
func TestRequeryDisabledExpiresImmediately(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	for _, id := range []string{"a", "b"} {
		if err := pool.AddDevice(id, 1, fleet.LightFactory(0)); err != nil {
			t.Fatal(err)
		}
	}
	eng := Attach(pool, Options{Blocks: testBlocks, Requery: -1})
	defer eng.Close()

	// Episode 1 pulls the suspect "a" and its only healthy peer "b";
	// neither ever answers.
	eng.HandleAction(control.Action{Device: "a", Rung: control.RungReset, At: sim.Second})
	eng.Sync()
	if ro := eng.Rollup(); ro.Episodes != 1 || ro.Pending != 2 {
		t.Fatalf("first episode: %s", ro)
	}
	// One virtual second later "b" escalates. With the gap disabled both
	// stale pulls are expired on the spot and a fresh episode opens —
	// DefaultRequery (2 s) must play no part.
	eng.HandleAction(control.Action{Device: "b", Rung: control.RungReset, At: 2 * sim.Second})
	eng.Sync()
	ro := eng.Rollup()
	if ro.Expired != 2 {
		t.Fatalf("expired %d pulls, want 2 (stale pulls pinned past the disabled gap): %s", ro.Expired, ro)
	}
	if ro.Episodes != 2 || ro.Coalesced != 0 {
		t.Fatalf("second escalation did not open an episode: %s", ro)
	}
}

// Continuous mode end to end, offline: deltas fold as they arrive, labeled
// by the live suspect set; the fold high-water mark dedups a later snapshot
// pull re-serving the same windows; empty and malformed deltas are counted,
// not folded; every accepted delta is journaled labeled.
func TestEngineContinuousDeltas(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	if err := pool.AddDevice("a", 1, fleet.LightFactory(0)); err != nil {
		t.Fatal(err)
	}
	js := &sink{}
	eng := Attach(pool, Options{Blocks: testBlocks, Continuous: true, Journal: js})
	defer eng.Close()

	r := testRecorder(0)
	r.Press("volume")
	d0 := r.RotateDelta(100 * sim.Millisecond)
	if d0.Seq != 0 || d0.Blocks != testBlocks || len(d0.Index) == 0 {
		t.Fatalf("delta 0 = %+v", d0)
	}
	eng.HandleSpectrumDelta("a", deltaMsg("a", 100*sim.Millisecond, d0))
	eng.Sync()
	if ro := eng.Rollup(); ro.Deltas != 1 || ro.PassWindows != 1 || ro.FailWindows != 0 {
		t.Fatalf("healthy delta: %s", ro)
	}

	// The device escalates: from here on its deltas carry the fail label
	// and open its verdict partition.
	eng.HandleAction(control.Action{Device: "a", Rung: control.RungReset, At: 200 * sim.Millisecond})
	r.Press("teletext")
	d1 := r.RotateDelta(200 * sim.Millisecond)
	eng.HandleSpectrumDelta("a", deltaMsg("a", 200*sim.Millisecond, d1))
	eng.Sync()
	if ro := eng.Rollup(); ro.FailWindows != 1 || ro.PassWindows != 1 {
		t.Fatalf("suspect delta: %s", ro)
	}

	// The episode's pull answers with the full ring: both closed windows
	// were already delta-folded, so the snapshot folds nothing — the HWM
	// scheme keeps deltas and snapshots from double-counting.
	eng.HandleSnapshot("a", wire.Message{Type: wire.TypeSnapshot, SUO: "a",
		At: 250 * sim.Millisecond, Snapshot: r.Snapshot()})
	eng.Sync()
	ro := eng.Rollup()
	if ro.Snapshots != 1 || ro.FailWindows != 1 || ro.PassWindows != 1 {
		t.Fatalf("re-pull double-folded: %s", ro)
	}
	if ro.SkippedWindows != 3 { // two deduped closed windows + the open one
		t.Fatalf("skipped %d windows, want 3: %s", ro.SkippedWindows, ro)
	}
	if ro.Transactions != 2 {
		t.Fatalf("transactions = %d, want 2", ro.Transactions)
	}

	// A quiet window advances the mark without folding; a foreign-layout
	// delta is malformed.
	d2 := r.RotateDelta(300 * sim.Millisecond)
	if len(d2.Index) != 0 {
		t.Fatalf("quiet delta has coverage: %+v", d2)
	}
	eng.HandleSpectrumDelta("a", deltaMsg("a", 300*sim.Millisecond, d2))
	eng.HandleSpectrumDelta("a", deltaMsg("a", 300*sim.Millisecond, &wire.SpectrumDelta{Seq: 9, Blocks: 64}))
	eng.Sync()
	ro = eng.Rollup()
	if ro.Deltas != 3 || ro.SkippedWindows != 4 || ro.Malformed != 1 || ro.Transactions != 2 {
		t.Fatalf("quiet+malformed deltas: %s", ro)
	}

	res := eng.Result(3)
	if len(res.Parts) != 1 || res.Parts[0].Suspect != "a" {
		t.Fatalf("partitions = %+v, want one for device a", res.Parts)
	}
	if res.Parts[0].Result.Failures != 1 {
		t.Fatalf("partition failures = %d, want 1", res.Parts[0].Result.Failures)
	}

	// Journal: two good deltas labeled pass/fail, one quiet delta (still
	// journaled — it advances the replayed HWM) and the snapshot record.
	js.mu.Lock()
	defer js.mu.Unlock()
	var labels []string
	for _, f := range js.frames {
		if f.Type == wire.TypeSpectrumDelta {
			labels = append(labels, f.Target)
		}
	}
	if len(labels) != 3 || labels[0] != LabelPass || labels[1] != LabelFail || labels[2] != LabelFail {
		t.Fatalf("journaled delta labels = %v", labels)
	}
}

// Two devices failing simultaneously with faults in different components
// must yield two clean per-verdict rankings — each naming its own fault
// block first — where the merged ranking smears both; and a journal replay
// reconstructs the whole thing, partitions included, byte for byte.
func TestEngineMultiFaultPartitions(t *testing.T) {
	const devices = 6
	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	ids := make([]string, devices)
	recorders := make([]*tvsim.Recorder, devices)
	for i := range ids {
		ids[i] = fleet.DeviceID(i)
		if err := pool.AddDevice(ids[i], 1, fleet.LightFactory(0)); err != nil {
			t.Fatal(err)
		}
		recorders[i] = testRecorder(i)
	}
	faultTxt := recorders[0].InjectFault("teletext")
	faultVol := recorders[1].InjectFault("volume")
	if faultTxt == faultVol {
		t.Fatalf("faults collide at block %d", faultTxt)
	}

	eng := Attach(pool, Options{Blocks: testBlocks, Continuous: true, Journal: jw})
	round := func(at sim.Time) {
		// Suspects first, then the healthy fleet, so every partition sees
		// the round's exonerating pass evidence.
		for i, r := range recorders {
			r.Press("teletext")
			r.Press("volume")
			r.Press("zapping")
			eng.HandleSpectrumDelta(ids[i], deltaMsg(ids[i], at, r.RotateDelta(at)))
		}
		eng.Sync()
	}
	round(1 * sim.Second) // everyone healthy: all pass
	eng.HandleAction(control.Action{Device: ids[0], Rung: control.RungReset, At: 1500 * sim.Millisecond})
	eng.HandleAction(control.Action{Device: ids[1], Rung: control.RungReset, At: 1600 * sim.Millisecond})
	for w := 0; w < 4; w++ {
		round(sim.Time(w+2) * sim.Second)
	}

	live := eng.Result(5)
	liveRo := eng.Rollup()
	eng.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if liveRo.Deltas != 5*devices || liveRo.FailWindows != 2*4 {
		t.Fatalf("rollup: %s", liveRo)
	}

	if len(live.Parts) != 2 {
		t.Fatalf("got %d partitions, want 2:\n%s", len(live.Parts), live)
	}
	if live.Parts[0].Suspect != ids[0] || live.Parts[1].Suspect != ids[1] {
		t.Fatalf("partition suspects = %s, %s", live.Parts[0].Suspect, live.Parts[1].Suspect)
	}
	p0, p1 := live.Parts[0].Result, live.Parts[1].Result
	if p0.Ranking[0].Block != faultTxt || p0.Ranking[0].Component != "teletext" {
		t.Fatalf("partition %s top = block %d (%s), want teletext fault %d\n%s",
			ids[0], p0.Ranking[0].Block, p0.Ranking[0].Component, faultTxt, live)
	}
	if p1.Ranking[0].Block != faultVol || p1.Ranking[0].Component != "volume" {
		t.Fatalf("partition %s top = block %d (%s), want volume fault %d\n%s",
			ids[1], p1.Ranking[0].Block, p1.Ranking[0].Component, faultVol, live)
	}
	if len(p0.Verdict) == 0 || p0.Verdict[0].Component != "teletext" ||
		len(p1.Verdict) == 0 || p1.Verdict[0].Component != "volume" {
		t.Fatalf("partition verdicts do not separate the faults:\n%s", live)
	}

	// Offline replay: same Result, partitions and all, byte for byte.
	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	replayed, st, err := Replay(jr, spectrum.Ochiai, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deltas != 5*devices {
		t.Fatalf("replayed %d deltas, want %d", st.Deltas, 5*devices)
	}
	if replayed.String() != live.String() {
		t.Fatalf("replay diverged:\nlive:\n%s\nreplayed:\n%s", live, replayed)
	}
	if !strings.Contains(replayed.String(), "partition "+ids[0]) {
		t.Fatalf("replayed result lacks partitions:\n%s", replayed)
	}
}

// A diagnosis checkpoint captured mid-continuous-run restores the whole
// plane — merged spectrum, partitions, fold marks AND the suspect set, so
// the resumed engine keeps labeling a suspect's deltas as fail.
func TestCheckpointCarriesPartitionsAndSuspects(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	for _, id := range []string{"a", "b"} {
		if err := pool.AddDevice(id, 1, fleet.LightFactory(0)); err != nil {
			t.Fatal(err)
		}
	}
	live := Attach(pool, Options{Blocks: testBlocks, Continuous: true})
	ra, rb := testRecorder(0), testRecorder(1)
	ra.InjectFault("menu")
	live.HandleAction(control.Action{Device: "a", Rung: control.RungReset, At: sim.Second})
	for w := 0; w < 2; w++ {
		at := sim.Time(w+1) * sim.Second
		ra.Press("menu")
		rb.Press("menu")
		live.HandleSpectrumDelta("a", deltaMsg("a", at, ra.RotateDelta(at)))
		live.HandleSpectrumDelta("b", deltaMsg("b", at, rb.RotateDelta(at)))
	}
	live.Sync()
	cpMsg := live.Checkpoint()
	cp := cpMsg.Checkpoint
	if cp == nil || len(cp.Parts) != 1 || cp.Parts[0].ID != "a" {
		t.Fatalf("checkpoint parts = %+v", cp)
	}
	suspectFlagged := false
	for _, d := range cp.Devices {
		if d.ID == "a" && len(d.Stats) == 2 && d.Stats[1]&1 != 0 {
			suspectFlagged = true
		}
		if d.ID == "b" && len(d.Stats) != 1 {
			t.Fatalf("healthy device stats = %v", d.Stats)
		}
	}
	if !suspectFlagged {
		t.Fatalf("suspect flag missing from checkpoint devices: %+v", cp.Devices)
	}
	if err := jw.Append(cpMsg); err != nil {
		t.Fatal(err)
	}
	want := live.Result(5)
	live.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	second := Attach(pool, Options{Blocks: testBlocks, Continuous: true})
	defer second.Close()
	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Replay(jr, second); err != nil {
		jr.Close()
		t.Fatal(err)
	}
	jr.Close()
	if got := second.Result(5).String(); got != want.String() {
		t.Fatalf("restored plane diverged:\nlive:\n%s\nrestored:\n%s", want, got)
	}
	// The restored suspect set labels the device's next delta fail — and
	// the restored fold marks refuse a replayed window.
	ra.Press("menu")
	stale := &wire.SpectrumDelta{Seq: 0, Blocks: testBlocks, Index: []uint32{0}, Words: []uint64{1}}
	second.HandleSpectrumDelta("a", deltaMsg("a", 3*sim.Second, stale))
	second.HandleSpectrumDelta("a", deltaMsg("a", 3*sim.Second, ra.RotateDelta(3*sim.Second)))
	second.Sync()
	ro := second.Rollup()
	if ro.FailWindows != 3 { // 2 checkpointed + 1 fresh; the stale Seq-0 replay deduped
		t.Fatalf("restored labeling: %d fail windows, want 3: %s", ro.FailWindows, ro)
	}
}
