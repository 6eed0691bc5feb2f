package trader_test

// End-to-end test of continuous multi-fault diagnosis (ISSUE 9): a fleet of
// remote devices streams through a journaling ingestion server with the
// recovery controller and the diagnosis engine in continuous mode. Every
// device piggybacks a sparse spectrum delta on each heartbeat — evidence
// flows without any pull round-trip. TWO devices misbehave simultaneously,
// each with an injected fault in a DIFFERENT feature (teletext vs volume),
// and each streams deviating observations so the controller escalates both.
// The engine must keep the two failures apart: its Result carries one
// per-verdict partition per suspect, and each partition ranks that suspect's
// own injected block first — where a single merged spectrum would smear the
// two faults together (Sect. 4.4's multiple-fault caveat). Closing the loop,
// an offline journal replay must reconstruct the whole Result — partitions
// included — byte for byte from the labeled delta records.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/control"
	"trader/internal/device"
	"trader/internal/diagnose"
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

func TestE2EContinuousMultiFaultDiagnosis(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping continuous-diagnosis e2e in -short mode")
	}
	const (
		devices = 12 // 2 faulty + 10 healthy exonerating peers
		blocks  = 512
		cohort  = 8
		rounds  = 12
		tick    = 100 * sim.Millisecond
		topN    = 5
	)
	id := func(i int) string { return fmt.Sprintf("mf-%02d", i) }
	faultFeature := map[int]string{0: "teletext", 1: "volume"}

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
		Requester: srv, Journal: jw, Blocks: blocks, Cohort: cohort,
		Continuous: true, Logf: t.Logf})
	defer eng.Close()
	srv.OnSnapshot = eng.HandleSnapshot
	srv.OnSpectrumDelta = eng.HandleSpectrumDelta

	pol := control.Policy{Name: "multifault-e2e", Tolerate: 1, Resets: 1000, Restarts: 1,
		RestartLatency: 50 * sim.Millisecond}
	ctl := control.Attach(pool, control.Options{
		Actuator: srv, Journal: jw, Policy: pol, Logf: t.Logf,
		OnEscalate: eng.HandleAction,
	})
	defer ctl.Close()
	srv.OnAck = ctl.HandleAck

	addr := "unix:" + filepath.Join(t.TempDir(), "mf.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	// Every device plays the same per-round scenario, so the healthy fleet
	// exonerates the shared code in both partitions; device 0's teletext
	// build and device 1's volume build each execute their own injected
	// fault block.
	recs := make([]*tvsim.Recorder, devices)
	faultBlock := map[int]int{}
	for i := range recs {
		recs[i] = tvsim.NewRecorder(tvsim.RecorderOptions{
			Blocks: blocks, Windows: rounds, Seed: int64(i + 1)})
		if f, ok := faultFeature[i]; ok {
			faultBlock[i] = recs[i].InjectFault(f)
		}
	}
	if faultBlock[0] == faultBlock[1] {
		t.Fatalf("fault blocks collide at %d", faultBlock[0])
	}

	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each heartbeat ships the closing coverage window as a
			// spectrum delta right before it — the continuous-diagnosis
			// client behavior (tvsim -deltas).
			c := &device.Client{Snapshot: recs[i].Snapshot, Delta: recs[i].RotateDelta}
			if _, err := c.Dial(addr, wire.Message{SUO: id(i), Codec: wire.CodecBinary}); err != nil {
				t.Errorf("%s: %v", id(i), err)
				return
			}
			defer c.Close()
			x := 0.0
			if _, bad := faultFeature[i]; bad {
				x = 2.0 // persistent deviation: every compare flags it
			}
			for n := 1; n <= rounds; n++ {
				at := sim.Time(n) * tick
				recs[i].Press("teletext")
				recs[i].Press("volume")
				recs[i].Press("zapping")
				_ = c.Send(event.Event{Kind: event.Output, Name: "out", Source: id(i), At: at}.With("x", x))
				_ = c.Heartbeat(at)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Both escalations fired; the delta stream delivered the evidence.
	waitFor(t, "continuous evidence folded", func() bool {
		ro := eng.Rollup()
		return ro.Escalations >= 2 && ro.Deltas >= devices*(rounds-2) && ro.Pending == 0
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

	// 1. Two simultaneous distinct faults → two per-verdict partitions, each
	// ranking its own suspect's injected block first, attributed to the
	// right feature.
	live := eng.Result(topN)
	if len(live.Parts) != 2 {
		t.Fatalf("got %d verdict partitions, want 2:\n%s", len(live.Parts), live)
	}
	if live.Parts[0].Suspect != id(0) || live.Parts[1].Suspect != id(1) {
		t.Fatalf("partition suspects are %s and %s, want %s and %s",
			live.Parts[0].Suspect, live.Parts[1].Suspect, id(0), id(1))
	}
	for p, feature := range map[int]string{0: "teletext", 1: "volume"} {
		part := live.Parts[p].Result
		if len(part.Ranking) == 0 {
			t.Fatalf("partition %s is empty:\n%s", id(p), live)
		}
		if part.Ranking[0].Block != faultBlock[p] || part.Ranking[0].Component != feature {
			t.Fatalf("partition %s top suspect is block %d (%s), want injected %s fault %d\n%s",
				id(p), part.Ranking[0].Block, part.Ranking[0].Component, feature, faultBlock[p], live)
		}
		if len(part.Verdict) == 0 || part.Verdict[0].Component != feature {
			t.Fatalf("partition %s verdict does not name %s:\n%s", id(p), feature, live)
		}
	}

	// 2. Offline replay of the labeled evidence reconstructs the Result —
	// partitions included — byte for byte.
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
	if replayed == nil || rst.Deltas != int(ro.Deltas) || rst.Snapshots != int(ro.Snapshots) {
		t.Fatalf("replay folded %d deltas + %d snapshots, live folded %d + %d",
			rst.Deltas, rst.Snapshots, ro.Deltas, ro.Snapshots)
	}
	if got, want := replayed.String(), live.String(); got != want {
		t.Fatalf("replayed diagnosis not byte-identical:\nlive:\n%s\nreplayed:\n%s", want, got)
	}

	// 3. The pool replay absorbs delta evidence records like snapshot ones.
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
	if st.Evidence != int(ro.Deltas+ro.Snapshots) {
		t.Fatalf("pool replay counted %d evidence records, want %d", st.Evidence, ro.Deltas+ro.Snapshots)
	}
	if st.Devices != devices {
		t.Fatalf("pool replay rebuilt %d devices, want %d", st.Devices, devices)
	}
}
