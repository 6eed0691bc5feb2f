package diagnose

import (
	"testing"
	"time"

	"trader/internal/control"
	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/wire"
)

// gatedRequester parks the engine goroutine inside its first snapshot pull.
type gatedRequester struct{ parked, gate chan struct{} }

func (g gatedRequester) RequestSnapshot(string) error {
	select {
	case <-g.parked:
	default:
		close(g.parked)
		<-g.gate
	}
	return nil
}

// TestHandleSnapshotNeverBlocksBehindQuery is the engine's half of the
// regression the controller's TestReportNeverBlocksBehindQuery pins: a
// Rollup waiting for an inbox slot must not stall HandleSnapshot, which
// runs on connection read goroutines.
func TestHandleSnapshotNeverBlocksBehindQuery(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	g := gatedRequester{parked: make(chan struct{}), gate: make(chan struct{})}
	eng := Attach(pool, Options{Requester: g, Blocks: testBlocks})
	defer eng.Close()
	eng.HandleAction(control.Action{Device: "dev", Rung: control.RungReset})
	<-g.parked
	snap := wire.Message{Type: wire.TypeSnapshot, Snapshot: testRecorder(0).Snapshot()}
	const shed = 5
	for i := 0; i < inboxSize+shed; i++ {
		eng.HandleSnapshot("peer", snap)
	}
	rollup := make(chan Rollup)
	go func() { rollup <- eng.Rollup() }()
	time.Sleep(20 * time.Millisecond) // let the query reach the full inbox
	returned := make(chan struct{})
	go func() { eng.HandleSnapshot("peer", snap); close(returned) }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		close(g.gate)
		t.Fatal("HandleSnapshot blocked behind a Rollup waiting for an inbox slot")
	}
	close(g.gate)
	if ro := <-rollup; ro.Dropped != shed+1 || ro.Unsolicited != inboxSize {
		t.Fatalf("Dropped = %d, Unsolicited = %d; want %d and %d", ro.Dropped, ro.Unsolicited, shed+1, inboxSize)
	}
}

// After Close, Result, Rollup and Checkpoint answer from the frozen state.
func TestClosedEngineAnswersFromFrozenState(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	eng := Attach(pool, Options{Blocks: testBlocks})
	r := testRecorder(0)
	fault := r.InjectFault("zapping")
	r.Press("zapping")
	r.Rotate(sim.Second)
	eng.HandleAction(control.Action{Device: "dev", Rung: control.RungReset})
	eng.HandleSnapshot("dev", wire.Message{Type: wire.TypeSnapshot, At: sim.Second, Snapshot: r.Snapshot()})
	eng.Close()
	eng.HandleSnapshot("dev", wire.Message{Type: wire.TypeSnapshot}) // dropped silently

	ro := eng.Rollup()
	if ro.Snapshots != 1 || ro.FailWindows != 1 || ro.Dropped != 0 || ro.Unsolicited != 0 {
		t.Fatalf("frozen rollup = %+v", ro)
	}
	if res := eng.Result(3); len(res.Ranking) == 0 || res.Ranking[0].Score != 1 {
		t.Fatalf("frozen result does not rank the failing window's blocks (fault %d):\n%s", fault, res)
	}
	cp := eng.Checkpoint().Checkpoint
	if cp == nil || cp.Plane != wire.PlaneDiagnose || cp.NFail != 1 {
		t.Fatalf("frozen checkpoint = %+v", cp)
	}
}
