package control

import (
	"testing"

	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

// deviation builds a comparator report at the given virtual time.
func deviation(at sim.Time) wire.ErrorReport {
	return wire.ErrorReport{Detector: detectorComparator, At: at}
}

// TestCheckpointRestoreRoundTrip drives the ladder through every rung,
// snapshots the controller, journals the record, recovers it into a fresh
// controller and compares the full rollups.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	pol := Policy{Tolerate: 1, Resets: 1, Restarts: 1, RestartLatency: 5 * sim.Millisecond}
	p1 := fleet.NewPool(fleet.Options{Shards: 1})
	defer p1.Stop()
	c1 := newController(p1, Options{Policy: pol})
	at := sim.Time(0)
	for i := 0; i < 4; i++ {
		// Wider than RestartLatency, so no report is absorbed by an
		// in-flight restart and every one climbs: tolerate, reset,
		// restart, quarantine.
		at += 10 * sim.Millisecond
		c1.handleReport("dev-a", deviation(at))
	}
	c1.handleReport("dev-b", deviation(at))
	c1.advanceTo(at + 100*sim.Millisecond) // settle any remaining restart accounting
	want := c1.rollup()
	if want.Quarantines == 0 || want.Downtime == 0 {
		t.Fatalf("drive did not climb the ladder: %+v", want)
	}

	msg := c1.checkpoint()
	if msg.Checkpoint == nil || msg.Checkpoint.Plane != wire.PlaneControl {
		t.Fatalf("checkpoint record malformed: %+v", msg)
	}
	dir := t.TempDir()
	w, err := journal.Create(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(msg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := fleet.NewPool(fleet.Options{Shards: 1})
	defer p2.Stop()
	c2 := Attach(p2, Options{Policy: pol})
	defer c2.Close()
	r, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	err = journal.Replay(r, c2)
	found := c2.Recovered() > 0
	if err != nil || !found {
		t.Fatalf("Recover: found=%v err=%v", found, err)
	}
	if got := c2.Rollup(); got != want {
		t.Fatalf("recovered rollup diverges:\n got  %+v\n want %+v", got, want)
	}

	// The restored ladder continues where it left off: dev-b (one report,
	// still on tolerate) escalates on its next report instead of starting
	// over, and dev-a stays quarantined.
	c2.Report("dev-b", deviation(at+101*sim.Millisecond))
	c2.Report("dev-a", deviation(at+102*sim.Millisecond))
	c2.Sync()
	ro := c2.Rollup()
	if ro.Resets != want.Resets+1 {
		t.Fatalf("dev-b did not resume its climb: %+v", ro)
	}
	if ro.AfterQuarantine != want.AfterQuarantine+1 {
		t.Fatalf("dev-a lost its quarantine: %+v", ro)
	}
}

// TestRecoverWithoutCheckpoint pins the no-checkpoint path: found=false,
// nothing restored.
func TestRecoverWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Create(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(wire.Message{Type: wire.TypeControl, SUO: "dev-a", Control: wire.CtrlReset}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	p := fleet.NewPool(fleet.Options{Shards: 1})
	defer p.Stop()
	c := Attach(p, Options{})
	defer c.Close()
	r, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	err = journal.Replay(r, c)
	if found := c.Recovered() > 0; err != nil || found {
		t.Fatalf("Recover on checkpoint-less journal: found=%v err=%v", found, err)
	}
}
