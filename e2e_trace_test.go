package trader_test

// End-to-end tests of the frame-lifecycle tracing plane (ISSUE 10).
//
// TestE2ETraceExemplarFederation pins the cross-tier exemplar contract:
// devices stream through two traced edge daemons uplinking to one traced
// aggregator, and a p999 latency exemplar surfaced at the aggregator must
// resolve — via the edge's tracer — to the full span chain of one frame's
// lifecycle, rooted at its ingest span.
//
// TestE2EIncidentBundleReplay pins the incident-bundle determinism
// contract: bundles written live at the moment the control ladder fired
// must be byte-identical to bundles rebuilt later by replaying the
// journal, even though the run kept journaling actions past each trigger.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/control"
	"trader/internal/daemon"
	"trader/internal/event"
	"trader/internal/federate"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/trace"
	"trader/internal/wire"
)

func TestE2ETraceExemplarFederation(t *testing.T) {
	const (
		devices = 16
		ranges  = 2
		frames  = 24
	)

	aggTr := trace.New(trace.Options{Shards: 1, SampleN: 1, Seed: 0xa66})
	agg := &federate.Aggregator{Ranges: ranges, Logf: t.Logf, Tracer: aggTr}
	aln, err := wire.Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go agg.Serve(aln)
	t.Cleanup(agg.Close)
	upstream := "tcp:" + aln.Addr().String()

	// -trace-sample 1 traces every frame, so the exemplar chain is never
	// sampled away.
	edges := []*e2eEdge{startE2EEdge(t, upstream, 0, ranges, 1), startE2EEdge(t, upstream, 1, ranges, 1)}
	tr0, tr1 := edges[0].d.Tracer(), edges[1].d.Tracer()
	tracers := []*trace.Tracer{tr0, tr1}

	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("tdev-%03d", i)
		e := edges[fleet.RangeOf(id, ranges)]
		c := dialE2E(t, e.addr, id, wire.CodecBinary)
		defer c.Close()
		stream(t, c, id, frames, 0.0, 0)
	}
	waitFor(t, "aggregator sees every device", func() bool {
		return agg.View().Devices == devices
	})

	// 1. Each edge's p999 exemplar resolves locally to a complete frame
	// lifecycle: an ingest root with journal, dispatch and monitor spans
	// causally chained under it, all owned by one device.
	for i, e := range edges {
		lat := e.d.Pool().Latency()
		ex := lat.Exemplar(0.999)
		if ex == 0 {
			t.Fatalf("%s: no p999 exemplar after %d traced frames", e.id, frames)
		}
		chain := tracers[i].Trace(ex)
		if len(chain) == 0 {
			t.Fatalf("%s: exemplar %s resolves to no retained spans", e.id, trace.ID(ex))
		}
		byKind := map[trace.Kind]trace.Span{}
		for _, s := range chain {
			byKind[s.Kind] = s
		}
		ingest, ok := byKind[trace.KindIngest]
		if !ok {
			t.Fatalf("%s: exemplar chain %s has no ingest root: %+v", e.id, trace.ID(ex), chain)
		}
		if ingest.Parent != 0 {
			t.Fatalf("%s: ingest span is not the chain's root (parent %s)", e.id, trace.ID(ingest.Parent))
		}
		for _, k := range []trace.Kind{trace.KindJournal, trace.KindDispatch, trace.KindMonitor} {
			s, ok := byKind[k]
			if !ok {
				t.Fatalf("%s: exemplar chain %s missing %s span: %+v", e.id, trace.ID(ex), k, chain)
			}
			if s.Device != ingest.Device {
				t.Fatalf("%s: %s span owned by %q, ingest by %q", e.id, k, s.Device, ingest.Device)
			}
		}
		// The causal edges the §6.2 taxonomy promises: journal and dispatch
		// parent on ingest, monitor on dispatch.
		if byKind[trace.KindJournal].Parent != ingest.SpanID {
			t.Fatalf("%s: journal span parents on %s, want ingest %s",
				e.id, trace.ID(byKind[trace.KindJournal].Parent), trace.ID(ingest.SpanID))
		}
		if byKind[trace.KindDispatch].Parent != ingest.SpanID {
			t.Fatalf("%s: dispatch span parents on %s, want ingest %s",
				e.id, trace.ID(byKind[trace.KindDispatch].Parent), trace.ID(ingest.SpanID))
		}
		if byKind[trace.KindMonitor].Parent != byKind[trace.KindDispatch].SpanID {
			t.Fatalf("%s: monitor span parents on %s, want dispatch %s",
				e.id, trace.ID(byKind[trace.KindMonitor].Parent), trace.ID(byKind[trace.KindDispatch].SpanID))
		}
	}

	// 2. The cross-tier link: the aggregator retains a receive-side uplink
	// span whose trace ID resolves on an edge to an ingest-rooted chain
	// that also carries the edge-side uplink span — one trace spanning a
	// frame's lifecycle on the edge AND its exemplar's ride upstream.
	var crossTrace uint64
	waitFor(t, "aggregator uplink span resolving to an edge ingest chain", func() bool {
		for _, s := range aggTr.Snapshot() {
			if s.Kind != trace.KindUplink {
				continue
			}
			for _, tr := range tracers {
				var haveIngest, haveUplink bool
				for _, es := range tr.Trace(s.TraceID) {
					haveIngest = haveIngest || es.Kind == trace.KindIngest
					haveUplink = haveUplink || es.Kind == trace.KindUplink
				}
				if haveIngest && haveUplink {
					crossTrace = s.TraceID
					return true
				}
			}
		}
		return false
	})
	t.Logf("cross-tier exemplar trace %s resolved through the federation", trace.ID(crossTrace))

	// 3. Nothing in the steady state touches the forced ring: overflow is
	// zero everywhere (the invariant the CI chaos job scrapes), and the
	// sampled rings actually recorded the fleet's traffic.
	for i, tr := range append(tracers, aggTr) {
		if n := tr.ForcedOverflow(); n != 0 {
			t.Fatalf("tracer %d: %d forced spans evicted in a run with no control traffic", i, n)
		}
	}
	if tr0.Written() == 0 || tr1.Written() == 0 || aggTr.Written() == 0 {
		t.Fatalf("span counts: edge0 %d, edge1 %d, aggregator %d — every tier must record",
			tr0.Written(), tr1.Written(), aggTr.Written())
	}
}

// liveBundle is one incident bundle as the daemon wrote it at escalation
// time, kept for the post-run replay comparison.
type liveBundle struct {
	device string
	seq    int
	rung   string
	det    []byte // the deterministic half, bundle.json
	dir    string // the bundle directory on disk
}

// readBundles reads every incident bundle under root, in directory order.
func readBundles(t *testing.T, root string) (bundles []liveBundle) {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(root, "incident-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		var inc trace.Incident
		var live trace.LiveReport
		det, err := os.ReadFile(filepath.Join(dir, "bundle.json"))
		if err == nil {
			err = json.Unmarshal(det, &inc)
		}
		if lb, lerr := os.ReadFile(filepath.Join(dir, "live.json")); err == nil {
			err = errors.Join(lerr, json.Unmarshal(lb, &live))
		}
		if err != nil {
			t.Fatalf("incident bundle %s: %v", dir, err)
		}
		bundles = append(bundles, liveBundle{device: inc.Device, seq: inc.Seq, rung: live.Rung, det: det, dir: dir})
	}
	return bundles
}

func TestE2EIncidentBundleReplay(t *testing.T) {
	const (
		devices = 6
		ticks   = 150
		tick    = 10 * sim.Millisecond
		latency = 40 * sim.Millisecond
	)
	id := func(i int) string { return fmt.Sprintf("ib-%03d", i) }
	faultyID := id(0) // device 0 deviates persistently; the rest stay clean

	// The daemon's -incident-dir recorder scans the journal up to the
	// triggering action (already appended — the OnIncident contract) and
	// writes the bundle directory; -trace-sample 1 traces every frame.
	dir, bundleRoot := t.TempDir(), t.TempDir()
	pol := control.Policy{Name: "e2e-trace", Tolerate: 1, Resets: 1, Restarts: 1,
		RestartLatency: latency, Cooldown: 10 * sim.Second}
	d, addr := serveDaemon(t, daemon.Config{Shards: 2, Journal: dir, Recover: pol, TraceSample: 1, IncidentDir: bundleRoot},
		silenceMonitorFactory())
	ctl, tr := d.Controller(), d.Tracer()
	// Drive the fleet: clean devices for the full horizon, the faulty one
	// until the ladder quarantines it (it keeps producing evidence through
	// its own restart, exactly like the recovery e2e's clients).
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialE2E(t, addr, id(i), wire.CodecBinary)
			defer c.Close()
			x := 0.0
			if i == 0 {
				x = 2.0
			}
			// step streams tick n; an error means the device is down.
			step := func(n int) error {
				at := sim.Time(n) * tick
				err := c.Send(event.Event{Kind: event.Output, Name: "out", Source: id(i), At: at}.With("x", x))
				if n%10 == 0 {
					err = c.Heartbeat(at)
				}
				return err
			}
			quarantined := func() bool { return c.Stats().Quarantines > 0 }
			for n := 1; n <= ticks; n++ {
				if quarantined() {
					return
				}
				step(n)
			}
			for n := ticks + 1; n <= 2000 && !quarantined(); n++ {
				if step(n) != nil {
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	waitFor(t, "faulty device quarantined", func() bool {
		return ctl.Rollup().Quarantined == 1
	})
	ctl.Sync()

	// Seal the journal the way a crashed-then-replayed daemon would see it;
	// Close waits for the bundles still being written.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Two incidents fired — the restart trigger and the quarantine trigger
	// — both for the faulty device, in rung order.
	got := readBundles(t, bundleRoot)
	if len(got) != 2 {
		t.Fatalf("%d incident bundles written, want 2 (restart, quarantine): %+v", len(got), got)
	}
	for i, want := range []control.Rung{control.RungRestart, control.RungQuarantine} {
		if got[i].device != faultyID || got[i].seq != i+1 || got[i].rung != want.String() {
			t.Fatalf("bundle %d is %s/%d at %s, want %s/%d at %s",
				i, got[i].device, got[i].seq, got[i].rung, faultyID, i+1, want)
		}
	}

	for _, b := range got {
		// 1. Replay determinism: rebuilding the incident from the sealed
		// journal reproduces the live bundle byte for byte — the actions
		// and evidence journaled after each trigger (the run kept going all
		// the way to quarantine) must not leak in.
		r, err := journal.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := trace.BuildIncident(r, b.device, b.seq)
		r.Close()
		if err != nil {
			t.Fatalf("replay incident %s/%d: %v", b.device, b.seq, err)
		}
		replayed, err := inc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(replayed, b.det) {
			t.Fatalf("incident %s/%d: replay differs from live bundle:\nlive:\n%s\nreplay:\n%s",
				b.device, b.seq, b.det, replayed)
		}

		// 2. The deterministic half carries the full ladder history through
		// its trigger and nothing past it.
		wantRungs := []string{"tolerate", "reset", "restart"}
		if b.seq == 2 {
			wantRungs = append(wantRungs, "quarantine")
		}
		if len(inc.Actions) != len(wantRungs) {
			t.Fatalf("incident %s/%d: %d actions %+v, want rungs %v",
				b.device, b.seq, len(inc.Actions), inc.Actions, wantRungs)
		}
		for i, a := range inc.Actions {
			if a.Rung != wantRungs[i] {
				t.Fatalf("incident %s/%d action %d: rung %q, want %q", b.device, b.seq, i, a.Rung, wantRungs[i])
			}
		}

		// 3. The live half holds the flight-recorder evidence: at least one
		// forced control span for the escalated device (the push that can
		// never be sampled away), and a live.json that parses.
		var live trace.LiveReport
		lb, err := os.ReadFile(filepath.Join(b.dir, "live.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(lb, &live); err != nil {
			t.Fatalf("incident %s/%d: live.json: %v", b.device, b.seq, err)
		}
		if live.Rung != b.rung {
			t.Fatalf("incident %s/%d: live rung %q, want %q", b.device, b.seq, live.Rung, b.rung)
		}
		var forcedControl bool
		for _, s := range live.Spans {
			if s.Kind == "control" && s.Forced && s.Device == b.device {
				forcedControl = true
				break
			}
		}
		if !forcedControl {
			t.Fatalf("incident %s/%d: live.json holds no forced control span for the device (%d spans)",
				b.device, b.seq, len(live.Spans))
		}
	}

	// The forced ring never overflowed: every control span the incidents
	// rely on was still retained when the bundles were cut.
	if n := tr.ForcedOverflow(); n != 0 {
		t.Fatalf("forced ring evicted %d spans during a four-action episode", n)
	}

	// A full pool replay of the sealed journal still works with the traced
	// frames in it — trace contexts on journaled control pushes are replay
	// metadata, not state.
	_, st := newDaemon(t, daemon.Config{Replay: dir, Shards: 2}, silenceMonitorFactory())
	if st.Devices != devices {
		t.Fatalf("replay rebuilt %d devices, want %d", st.Devices, devices)
	}
}
