package daemon_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"trader/internal/control"
	"trader/internal/daemon"
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

// countPlane counts the records a boot pass hands it.
type countPlane struct{ n int }

func (c *countPlane) Apply(wire.Message) error { c.n++; return nil }
func (c *countPlane) Settle() error            { return nil }

// TestCloseWaitsForIncidentBundles boots a daemon on a long history, then
// escalates a device to the restart rung and closes the daemon at once:
// every incident bundle directory must hold both halves, although the
// bundle is rebuilt from the journal and written off the controller
// goroutine.
func TestCloseWaitsForIncidentBundles(t *testing.T) {
	root, dir := t.TempDir(), t.TempDir()
	// A long history ahead of the incident: rebuilding the bundle walks it,
	// so the bundle is still being written when Close is called.
	jw, err := journal.CreateSharded(dir, 2, journal.Options{NoSync: true})
	const history = 100000
	for n := 0; err == nil && n < history; n++ {
		ev := event.Event{Kind: event.Output, Name: "out", Source: "history", At: sim.Time(n) * sim.Microsecond}.With("x", 0)
		err = jw.AppendShard(journal.ShardOf("dev", 2), wire.Message{Type: wire.TypeOutput, SUO: "history", At: ev.At, Event: &ev})
	}
	if err != nil || jw.Close() != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{Listen: "unix:unused.sock", Journal: dir, Shards: 2, IncidentDir: root,
		SUO: "light", Profiles: map[string]fleet.MonitorFactory{"light": fleet.LightMonitorFactory()},
		Recover: control.Policy{Name: "restart-fast", Resets: 1, Restarts: 1, RestartLatency: 10 * sim.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var seen countPlane
	d.AddRider(&seen)
	st, err := d.Boot()
	if err != nil {
		t.Fatal(err)
	}
	// One pass: a rider beside the pool and the controller saw each record
	// exactly once, and so did the pool.
	if seen.n != history || st.Frames != history {
		t.Fatalf("journal holds %d records; the pass handed a rider %d, the pool applied %d (%s)", history, seen.n, st.Frames, st)
	}
	pool := d.Pool()
	if err := pool.AddRemoteDevice("dev", fleet.LightMonitorFactory(), func(wire.Message) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// A persistent deviation climbs the ladder; the restart action fires
	// the incident hook before Rollup, a barrier on the controller, sees it.
	for n := 1; d.Controller().Rollup().Restarts == 0; n++ {
		at := sim.Second + sim.Time(n)*10*sim.Millisecond
		out := event.Event{Kind: event.Output, Name: "out", Source: "dev", At: at - sim.Millisecond}.With("x", 2)
		if err := errors.Join(pool.Dispatch("dev", out), pool.AdvanceDevice("dev", at), pool.Sync()); err != nil || n > 1000 {
			t.Fatalf("the ladder never reached restart: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	dirs, _ := filepath.Glob(filepath.Join(root, "incident-*"))
	if len(dirs) == 0 {
		t.Fatal("Close returned before any incident bundle was written")
	}
	for _, dir := range dirs {
		for _, f := range []string{"bundle.json", "live.json"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("incident bundle %s is missing %s after Close", filepath.Base(dir), f)
			}
		}
	}
}
