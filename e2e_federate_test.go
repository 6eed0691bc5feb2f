package trader_test

// End-to-end test of the federation tier (ISSUE 8): 32 SUO clients stream
// through two edge ingestion daemons, each owning one device-ID hash range,
// each journaling accepted frames write-ahead, each uplinking rollup deltas
// to one aggregator over the binary wire codec. The aggregator's merged
// view must equal the sum of the edge rollups exactly — the counter-fold
// conservation law — then edge A is killed mid-stream with no orderly
// shutdown, the aggregator's failover directs the survivor to adopt A's
// journal, and afterwards zero devices are lost, the merged view is still
// conserved, and a replay of the survivor's journal alone reproduces the
// merged fleet's monitor state exactly.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"trader/internal/daemon"
	"trader/internal/device"
	"trader/internal/federate"
	"trader/internal/fleet"
	"trader/internal/wire"
)

// e2eEdge is one edge daemon: ingestion server + journal + uplink, booted
// the way traderd -listen -journal DIR -edge upstream=ADDR,range=N/M is.
type e2eEdge struct {
	id, dir, addr string
	d             *daemon.Daemon
}

// startE2EEdge boots edge rng of the federation; traceSample is its
// -trace-sample.
func startE2EEdge(t *testing.T, upstream string, rng, of, traceSample int) *e2eEdge {
	t.Helper()
	e := &e2eEdge{id: fmt.Sprintf("edge-%d", rng), dir: t.TempDir()}
	e.d, e.addr = serveDaemon(t, daemon.Config{Shards: 4, Journal: e.dir, TraceSample: traceSample,
		Edge: fmt.Sprintf("upstream=%s,range=%d/%d", upstream, rng, of)}, fleet.LightMonitorFactory())
	return e
}

// kill is the SIGKILL equivalent: connections and the uplink drop, and
// the journal is NOT closed — exactly the state a crashed process leaves.
func (e *e2eEdge) kill() { e.d.Drain() }

// sample is what the edge's uplink streams: its pool and server counters
// (an edge daemon without planes adds none).
func (e *e2eEdge) sample() federate.Sample { return federate.PoolSampler(e.d.Pool(), e.d.Server())() }

func TestE2EFederation(t *testing.T) {
	const (
		devices = 32
		ranges  = 2
		phase1  = 20 // frames per device before the kill
		phase2  = 10 // frames per surviving device after the kill
	)

	agg := &federate.Aggregator{Ranges: ranges, Failover: 100 * time.Millisecond, Logf: t.Logf}
	aln, err := wire.Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go agg.Serve(aln)
	t.Cleanup(agg.Close)
	upstream := "tcp:" + aln.Addr().String()

	edges := []*e2eEdge{
		startE2EEdge(t, upstream, 0, ranges, 0),
		startE2EEdge(t, upstream, 1, ranges, 0),
	}

	// 32 devices, each connected to the edge owning its hash range — the
	// same FNV fold that routes devices to pool shards.
	clients := make(map[string][]string) // edge ID → its devices
	conns := make(map[string]*device.Client)
	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("fdev-%03d", i)
		e := edges[fleet.RangeOf(id, ranges)]
		c := dialE2E(t, e.addr, id, wire.CodecBinary)
		defer c.Close()
		clients[e.id] = append(clients[e.id], id)
		conns[id] = c
	}
	if len(clients["edge-0"]) == 0 || len(clients["edge-1"]) == 0 {
		t.Fatalf("degenerate hash split: %d/%d", len(clients["edge-0"]), len(clients["edge-1"]))
	}
	for _, ids := range clients {
		for _, id := range ids {
			stream(t, conns[id], id, phase1, 0.0, 0)
		}
	}

	// Conservation, live: the merged view converges to exactly the sum of
	// the two edges' cumulative samples — every counter, not a selection.
	sumOfEdges := func() federate.Sample {
		var s federate.Sample
		s.Counters = federate.Counters{}
		for _, e := range edges {
			es := e.sample()
			s.Devices += es.Devices
			s.Counters.Add(es.Counters)
		}
		return s
	}
	viewEquals := func(want federate.Sample) func() bool {
		return func() bool {
			v := agg.View()
			return v.Devices == want.Devices &&
				reflect.DeepEqual(v.Counters.Diff(want.Counters), federate.Counters{})
		}
	}
	waitFor(t, "merged view to equal the sum of edge rollups", viewEquals(sumOfEdges()))
	v := agg.View()
	if v.Devices != devices {
		t.Fatalf("merged view holds %d devices, want %d", v.Devices, devices)
	}
	if got := v.Counters["outputs"]; got != devices*phase1 {
		t.Fatalf("merged outputs = %d, want %d", got, devices*phase1)
	}

	// Kill edge-0 mid-stream: no journal close, no drain. The survivor's
	// clients keep streaming while the aggregator times out the corpse and
	// directs edge-1 to adopt its journal.
	edges[0].kill()
	for _, id := range clients["edge-1"] {
		stream(t, conns[id], id, phase2, 0.0, phase1*10)
	}
	waitFor(t, "failover adoption to complete", func() bool {
		v := agg.View()
		return v.Adoptions == 1 && len(v.Edges) == 1
	})

	// Zero devices lost: every device — including each of edge-0's — is
	// owned by the survivor and alive in its pool.
	survivor := edges[1]
	waitFor(t, "all devices on the survivor", func() bool {
		return survivor.d.Pool().Rollup().Devices == devices
	})
	for _, id := range clients["edge-0"] {
		if owner := agg.OwnerOf(id); owner != "edge-1" {
			t.Fatalf("device %s owned by %q after failover, want edge-1", id, owner)
		}
	}

	// Conservation, post-failover: the merged view now equals the
	// survivor's sample alone, and no output frame was lost or counted
	// twice across the kill.
	waitFor(t, "merged view to re-converge on the survivor",
		viewEquals(survivor.sample()))
	v = agg.View()
	wantOutputs := int64(devices*phase1 + len(clients["edge-1"])*phase2)
	if got := v.Counters["outputs"]; got != wantOutputs {
		t.Fatalf("post-failover outputs = %d, want %d", got, wantOutputs)
	}
	if v.Devices != devices {
		t.Fatalf("post-failover view holds %d devices, want %d", v.Devices, devices)
	}

	// Replay invariant: the survivor's journal alone — its own frames, the
	// adopted devices' arrival checkpoints, the adopted baseline — rebuilds
	// the merged fleet's monitor state exactly.
	live, liveStats := survivor.d.Pool().Rollup(), survivor.d.Pool().DeviceStats()
	if err := survivor.d.Close(); err != nil {
		t.Fatal(err)
	}
	rd, _ := newDaemon(t, daemon.Config{Replay: survivor.dir, Shards: 4}, fleet.LightMonitorFactory())
	replayed := rd.Pool()
	rebuilt := replayed.Rollup()
	if rebuilt.Devices != devices {
		t.Fatalf("replay rebuilt %d devices, want %d", rebuilt.Devices, devices)
	}
	if rebuilt.Monitor != live.Monitor {
		t.Fatalf("replayed monitor rollup diverged from the live survivor:\n got: %+v\nwant: %+v",
			rebuilt.Monitor, live.Monitor)
	}
	if !reflect.DeepEqual(replayed.DeviceStats(), liveStats) {
		t.Fatal("per-device monitor stats diverged between live survivor and journal replay")
	}
}
