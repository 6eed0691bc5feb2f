package trader_test

// End-to-end test of the fleet diagnosis plane (ISSUE 5): 13 remote devices
// stream through a journaling ingestion server with the recovery controller
// and the diagnosis engine attached. One device carries an injected faulty
// block in its teletext feature AND streams deviating observations, so the
// controller escalates it past tolerate; the engine must then pull coverage
// snapshots from the faulty device and a healthy cohort over the wire,
// fold them into the fleet spectrum, and rank the injected block first
// (top 1 is required here: the cohort has ≥ 8 healthy devices). Closing the
// loop, `journal -replay` must reconstruct a byte-identical ranking from
// the labeled evidence records alone, and the pool replay must absorb the
// evidence records without disturbing frame replay.

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trader/internal/control"
	"trader/internal/diagnose"
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// diagClient is a remote SUO with a spectral flight recorder: it streams
// observations, heartbeats once per round (rotating its coverage window),
// and answers snapshot pulls — the in-test twin of tvsim's -connect client
// with -diagnose on the daemon.
type diagClient struct {
	t   *testing.T
	id  string
	wc  *wire.Conn
	rec *tvsim.Recorder

	lastAt atomic.Int64
	echo   chan sim.Time
	pulls  atomic.Uint64
}

func dialDiag(t *testing.T, addr, id string, rec *tvsim.Recorder) *diagClient {
	t.Helper()
	wc, _, err := wire.Dial(addr, wire.Message{SUO: id, Codec: wire.CodecBinary})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	c := &diagClient{t: t, id: id, wc: wc, rec: rec, echo: make(chan sim.Time, 64)}
	go c.read()
	return c
}

func (c *diagClient) read() {
	for {
		msg, err := c.wc.Decode()
		if err != nil {
			return
		}
		switch msg.Type {
		case wire.TypeHeartbeat:
			select {
			case c.echo <- msg.At:
			default:
			}
		case wire.TypeSnapshotReq:
			c.pulls.Add(1)
			_ = c.wc.Encode(wire.Message{Type: wire.TypeSnapshot, SUO: c.id,
				At: sim.Time(c.lastAt.Load()), Snapshot: c.rec.Snapshot()})
		case wire.TypeControl:
			if msg.Control == wire.CtrlReset {
				_ = c.wc.Encode(wire.Ack(c.id, wire.CtrlReset, sim.Time(c.lastAt.Load())))
			}
		}
	}
}

func (c *diagClient) frame(at sim.Time, x float64) {
	c.lastAt.Store(int64(at))
	ev := event.Event{Kind: event.Output, Name: "out", Source: c.id, At: at}.With("x", x)
	_ = c.wc.SendEvent(c.id, ev)
}

// heartbeat closes the round: flush barrier on the wire, window boundary in
// the recorder.
func (c *diagClient) heartbeat(at sim.Time) {
	c.lastAt.Store(int64(at))
	if c.wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: c.id, At: at}) != nil {
		return
	}
	select {
	case <-c.echo:
	case <-time.After(2 * time.Second):
	}
	c.rec.Rotate(at)
}

func TestE2EFleetDiagnosis(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fleet-diagnosis e2e in -short mode")
	}
	const (
		devices = 13 // 1 faulty + 12 healthy: the cohort bar for a top-1 ranking
		blocks  = 512
		cohort  = 8
		rounds  = 12
		tick    = 100 * sim.Millisecond
		topN    = 5
	)
	id := func(i int) string { return fmt.Sprintf("dx-%02d", i) }
	faulty := func(i int) bool { return i == 0 }

	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Options{Shards: 4})
	defer pool.Stop()
	srv := &fleet.Server{Pool: pool, Factory: fleet.LightMonitorFactory(),
		HelloTimeout: 5 * time.Second, Journal: jw}
	defer srv.Close()

	eng := diagnose.Attach(pool, diagnose.Options{
		Requester: srv, Journal: jw, Blocks: blocks, Cohort: cohort, Logf: t.Logf})
	defer eng.Close()
	srv.OnSnapshot = eng.HandleSnapshot

	// Resets never exhaust, so the faulty device keeps streaming (no
	// restart/quarantine churn) while every post-tolerate report confirms
	// the escalation the diagnosis pull hangs off.
	pol := control.Policy{Name: "diag-e2e", Tolerate: 1, Resets: 1000, Restarts: 1,
		RestartLatency: 50 * sim.Millisecond}
	ctl := control.Attach(pool, control.Options{
		Actuator: srv, Journal: jw, Policy: pol, Logf: t.Logf,
		OnEscalate: eng.HandleAction,
	})
	defer ctl.Close()
	srv.OnAck = ctl.HandleAck

	addr := "unix:" + filepath.Join(t.TempDir(), "dx.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	// Every device plays the same per-round feature scenario, so healthy
	// peers exonerate the shared code; the faulty device's teletext build
	// additionally executes the injected fault block on every invocation.
	recs := make([]*tvsim.Recorder, devices)
	var faultBlock int
	for i := range recs {
		recs[i] = tvsim.NewRecorder(tvsim.RecorderOptions{
			Blocks: blocks, Windows: rounds, Seed: int64(i + 1)})
		if faulty(i) {
			faultBlock = recs[i].InjectFault("teletext")
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialDiag(t, addr, id(i), recs[i])
			defer c.wc.Close()
			x := 0.0
			if faulty(i) {
				x = 2.0 // persistent deviation: the detector flags every compare
			}
			for n := 1; n <= rounds; n++ {
				at := sim.Time(n) * tick
				recs[i].Press("teletext")
				recs[i].Press("volume")
				recs[i].Press("zapping")
				c.frame(at, x)
				c.heartbeat(at)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The escalation fired and every pull of the final episode resolved.
	waitFor(t, "diagnosis evidence folded", func() bool {
		ro := eng.Rollup()
		return ro.Episodes >= 1 && ro.Snapshots >= uint64(1+cohort) && ro.Pending == 0
	})
	ctl.Sync()
	eng.Sync()
	ro := eng.Rollup()
	if ro.JournalErrors != 0 || ro.Dropped != 0 || ro.Malformed != 0 {
		t.Fatalf("engine lost evidence: %s", ro)
	}
	if ro.FailWindows == 0 || ro.PassWindows == 0 {
		t.Fatalf("both labels must contribute: %s", ro)
	}

	// 1. The fleet-aggregated ranking places the injected block first (≥ 8
	// healthy cohort devices answered), attributed to its feature, and the
	// FMEA-weighted verdict names the feature.
	live := eng.Result(topN)
	if len(live.Ranking) != topN {
		t.Fatalf("ranking has %d entries, want %d", len(live.Ranking), topN)
	}
	if live.Ranking[0].Block != faultBlock {
		t.Fatalf("top suspect is block %d, want injected fault %d\n%s",
			live.Ranking[0].Block, faultBlock, live)
	}
	if live.Ranking[0].Component != "teletext" {
		t.Fatalf("top suspect attributed to %q\n%s", live.Ranking[0].Component, live)
	}
	if len(live.Verdict) == 0 || live.Verdict[0].Component != "teletext" {
		t.Fatalf("verdict does not name teletext:\n%s", live)
	}

	// 2. Shut the plane down and replay the journal: the diagnosis
	// reconstructed offline from the labeled evidence records must format
	// byte-identically to the live result.
	srv.Close()
	ln.Close()
	ctl.Close()
	eng.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	jr, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, rst, err := diagnose.Replay(jr, spectrum.Ochiai, topN)
	jr.Close()
	if err != nil {
		t.Fatal(err)
	}
	if replayed == nil || rst.Snapshots != int(ro.Snapshots) {
		t.Fatalf("replay folded %d snapshots, live folded %d", rst.Snapshots, ro.Snapshots)
	}
	if got, want := replayed.String(), live.String(); got != want {
		t.Fatalf("replayed ranking not byte-identical:\nlive:\n%s\nreplayed:\n%s", want, got)
	}

	// 3. The pool replay absorbs the evidence records (counting them)
	// without disturbing frame replay.
	rec := fleet.NewPool(fleet.Options{Shards: 4})
	defer rec.Stop()
	jr2, err := journal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rec.Replay(jr2, fleet.LightMonitorFactory())
	jr2.Close()
	if err != nil {
		t.Fatalf("pool replay: %v", err)
	}
	if st.Evidence != int(ro.Snapshots) {
		t.Fatalf("pool replay counted %d evidence records, want %d", st.Evidence, ro.Snapshots)
	}
	if st.Devices != devices {
		t.Fatalf("pool replay rebuilt %d devices, want %d", st.Devices, devices)
	}
}
