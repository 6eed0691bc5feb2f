package control

import (
	"testing"
	"time"

	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/wire"
)

// TestReportNeverBlocksBehindQuery is the regression test for the stall the
// hand-rolled inbox had: with the controller goroutine busy and the inbox
// full, a Rollup waiting for a slot held the lifecycle lock, and Report —
// called on shard goroutines, documented never to block — queued behind it.
func TestReportNeverBlocksBehindQuery(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	gate, parked := make(chan struct{}), make(chan struct{})
	c := Attach(pool, Options{Policy: ladderPolicy(), OnAction: func(Action) {
		select {
		case <-parked:
		default:
			close(parked)
			<-gate // the controller goroutine stays inside its first report
		}
	}})
	defer c.Close()
	c.Report("dev", report(deviationAt(1)))
	<-parked
	const shed = 5
	for i := 0; i < inboxSize+shed; i++ {
		c.Report("dev", report(deviationAt(int64(2+i))))
	}
	rollup := make(chan Rollup)
	go func() { rollup <- c.Rollup() }()
	time.Sleep(20 * time.Millisecond) // let the query reach the full inbox
	returned := make(chan struct{})
	go func() { c.Report("dev", report(deviationAt(1))); close(returned) }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		close(gate)
		t.Fatal("Report blocked behind a Rollup waiting for an inbox slot")
	}
	close(gate)
	if ro := <-rollup; ro.Dropped != shed+1 {
		t.Fatalf("Dropped = %d, want the %d shed before the query and the 1 shed behind it", ro.Dropped, shed+1)
	}
}

// After Close every call that waits for an answer works on the frozen state,
// commands (Restore, Advance) as well as queries.
func TestClosedControllerAnswersFromFrozenState(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	c := Attach(pool, Options{Policy: ladderPolicy()})
	for i := int64(1); i <= 3; i++ { // tolerate, reset, restart (in flight)
		c.Report("dev", report(deviationAt(10*i)))
	}
	c.Sync()
	c.Close()

	ro := c.Rollup()
	if ro.Reports != 3 || ro.Restarts != 1 || ro.RestartsCompleted != 0 {
		t.Fatalf("frozen rollup = %+v", ro)
	}
	cp := c.Checkpoint()
	if cp.Checkpoint == nil || len(cp.Checkpoint.Devices) != 1 {
		t.Fatalf("frozen checkpoint = %+v", cp)
	}
	c.Advance(sim.Second) // completes the restart the close cut short
	if ro = c.Rollup(); ro.RestartsCompleted != 1 || ro.Now != sim.Second {
		t.Fatalf("Advance after Close did not move the frozen clock: %+v", ro)
	}
	if err := c.Restore(cp.Checkpoint); err != nil {
		t.Fatalf("Restore after Close: %v", err)
	}
	if ro = c.Rollup(); ro.Reports != 3 || ro.RestartsCompleted != 0 {
		t.Fatalf("Restore after Close did not assign the record: %+v", ro)
	}
	if err := c.Restore(&wire.Checkpoint{Plane: wire.PlaneDiagnose}); err == nil {
		t.Fatal("Restore accepted a foreign plane's record")
	}
}
