// Command traderd is the awareness-monitor daemon: the right-hand process of
// Fig. 2. A System Under Observation (e.g. cmd/tvsim) connects and streams
// input/output/state events; traderd executes the specification model,
// compares, and sends error reports back on the same connection.
//
// With -listen it is the fleet ingestion daemon: it accepts many concurrent
// SUO connections (Unix socket and/or TCP, comma-separated), performs the
// Hello handshake (negotiating the JSON or binary codec per connection),
// registers each connection as a device in a sharded fleet.Pool — one
// monitor per connection, built from the -suo profile — and pushes
// control/error frames back down each connection. `tvsim -connect` is the
// matching client; `-n 1` there is the paper's two-process deployment. See
// ARCHITECTURE.md for the protocol.
//
// With -journal DIR the ingestion daemon writes every accepted frame to a
// durable write-ahead journal before dispatching it, and recovers existing
// journal state on boot — kill -9 the daemon and restart it, and every
// device's monitor state and fault history is rebuilt before new
// connections are admitted (reconnecting devices adopt their recovered
// monitors). The pool and every plane below recover from ONE pass over the
// journal: each implements the plane contract (ARCHITECTURE.md §3.6), the
// daemon registers the planes its flags ask for in a list, and recovery,
// checkpoints, /metrics, the rollup log and the edge uplink sample are
// loops over that list. With -replay DIR the daemon instead replays a
// journal offline into a fresh pool, prints the fleet rollup and exits:
// deterministic post-mortem diagnosis without the fleet attached.
//
// With -recover POLICY the awareness loop is closed: a recovery controller
// (internal/control) subscribes to the fleet's error reports, classifies
// them (deviation, silence, runaway), and escalates each misbehaving device
// — tolerate, reset its comparator, restart it as a recoverable unit,
// quarantine it — pushing the corresponding control commands down the
// device's connection and journaling every action, so -replay reconstructs
// what the controller did. A periodic recovery rollup (actions, downtime,
// FMEA criticality of the observed failure classes) joins the fleet stats,
// and trader_recovery_* families join /metrics.
//
// With -diagnose COEFF the fleet diagnosis plane (internal/diagnose) rides
// on the controller: whenever a device escalates past tolerate, the daemon
// pulls block-coverage snapshots from it and from a sampled healthy cohort,
// labels them fail/pass, journals the labeled evidence write-ahead, and
// folds it into a fleet-level program spectrum. Periodic rollups name the
// top suspect code block and the FMEA-weighted component verdict; -replay
// -diagnose reconstructs the identical ranking offline from the journal,
// in the same pass that rebuilds the pool.
//
// With -edge upstream=ADDR,range=N/M the ingestion daemon joins a
// federation (ARCHITECTURE.md §7): it serves the devices whose IDs hash
// into range N of M (fleet.RangeOf), dials the aggregator at ADDR, and
// streams rollup deltas of everything it counts — fleet, connection,
// shed/latency, recovery and diagnosis rollups — upstream, carrying out
// live device migrations and journal adoptions the aggregator directs.
// With -aggregate the daemon is the other end: -listen accepts edge
// uplinks instead of devices, the merged fleet-wide view is logged
// periodically and served on -metrics, -ranges M fixes the hash-range
// count, -failover-seconds G directs a surviving edge to adopt a dead
// edge's journal after G seconds, and -journal DIR persists the ownership
// record so a restarted aggregator recovers its range map.
//
// Usage:
//
//	traderd -listen unix:/tmp/trader-fleet.sock,tcp:127.0.0.1:7700 [-suo tv|mediaplayer|light] [-shards 8] [-journal DIR] [-recover default] [-diagnose ochiai] [-v]
//	traderd -replay DIR [-suo light] [-shards 8] [-diagnose ochiai] [-v]
//	traderd -listen tcp:127.0.0.1:7801 -edge upstream=tcp:127.0.0.1:7800,range=0/2 [-journal DIR]
//	traderd -aggregate -listen tcp:127.0.0.1:7800 [-ranges 2] [-failover-seconds 10] [-journal DIR] [-metrics ADDR]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"trader/internal/control"
	"trader/internal/core"
	"trader/internal/diagnose"
	"trader/internal/federate"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/mediaplayer"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/trace"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

func main() {
	listen := flag.String("listen", "", "fleet ingestion addresses, comma-separated (unix:/path, tcp:host:port)")
	suo := flag.String("suo", "tv", "SUO profile: "+profileNames())
	verbose := flag.Bool("v", false, "log every error report")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "worker shards for -listen/-replay modes")
	statsEvery := flag.Int("stats-seconds", 10, "fleet rollup log interval in -listen mode (0: off)")
	maxAdvance := flag.Int("max-advance", 0, "largest virtual-time jump in seconds a single client frame may request in -listen mode (0: default 300)")
	journalDir := flag.String("journal", "", "write-ahead journal directory for -listen mode: journal every accepted frame, auto-recover on boot")
	replayDir := flag.String("replay", "", "replay a journal directory into a fresh pool, print the rollup, and exit")
	recoverPol := flag.String("recover", "", "recovery controller policy for -listen mode: default, aggressive or patient (empty: monitoring only)")
	diagCoeff := flag.String("diagnose", "", "fleet diagnosis coefficient for -listen mode (requires -recover; e.g. ochiai) or for -replay output; empty: off")
	diagBlocks := flag.Int("diagnose-blocks", spectrum.DefaultBlocks, "instrumented block count of the fleet's spectral recorders (must match the clients)")
	diagCohort := flag.Int("diagnose-cohort", diagnose.DefaultCohort, "healthy peers sampled per diagnosis episode")
	diagCont := flag.Bool("diagnose-continuous", false, "continuous diagnosis: fold spectrum deltas piggybacked on client heartbeats as they arrive, with per-verdict partition rankings (requires -diagnose)")
	cpSecs := flag.Int("checkpoint-seconds", 0, "write a global journal checkpoint every N seconds in -listen -journal mode, truncating covered segments (0: off)")
	creditWindow := flag.Int("credit-window", 0, "frame-credit window granted to each -listen connection; compliant clients block when it is spent, violators are disconnected (0: flow control off)")
	shed := flag.Bool("shed", false, "tiered load shedding in -listen mode: observations drop at 75% shard-queue pressure, heartbeats at 95%, control traffic never")
	metricsAddr := flag.String("metrics", "", "serve the latency-SLO plane as Prometheus text on this HTTP address in -listen mode (e.g. 127.0.0.1:9464)")
	edgeSpec := flag.String("edge", "", "federation edge uplink for -listen mode: upstream=ADDR,range=N/M — stream rollup deltas to an aggregator and accept live migrations")
	aggregate := flag.Bool("aggregate", false, "run as the federation aggregator: -listen addresses accept edge uplinks instead of devices")
	ranges := flag.Int("ranges", 2, "device-ID hash range count of the federation (-aggregate mode; must match every edge's range=N/M)")
	failoverSecs := flag.Int("failover-seconds", 10, "grace period before the aggregator directs a survivor to adopt a dead edge's journal (-aggregate mode; 0: off)")
	logFormat := flag.String("log-format", "text", "structured log output: text or json")
	traceSample := flag.Int("trace-sample", trace.DefaultSampleN, "frame-lifecycle trace sampling: 1 in N ingested frames starts a trace (control traffic is always traced; 0: sampling off)")
	incidentDir := flag.String("incident-dir", "", "write an incident bundle (spans, counters, ladder, top-K spectrum) to this directory whenever the recovery ladder reaches restart (requires -recover)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -metrics listener")
	flag.Parse()

	if err := setupLogging(*logFormat); err != nil {
		fmt.Fprintf(os.Stderr, "traderd: %v\n", err)
		os.Exit(1)
	}
	if *journalDir != "" && *listen == "" {
		// Only -listen mode journals; silently accepting the flag elsewhere
		// (including -replay, which only reads a journal) would leave an
		// operator believing frames are durable when nothing is written.
		fatal("-journal requires -listen (only the ingestion daemon and the aggregator journal)")
	}
	if *pprofOn && *metricsAddr == "" {
		fatal("-pprof requires -metrics (pprof rides on the metrics listener)")
	}
	if *aggregate {
		if *listen == "" {
			fatal("-aggregate requires -listen (the addresses edge uplinks dial)")
		}
		if *edgeSpec != "" {
			fatal("-aggregate and -edge are different tiers of the federation; run them as separate processes")
		}
		obs := obsConfig{TraceSample: *traceSample, Pprof: *pprofOn}
		if err := runAggregate(*listen, *journalDir, *ranges, *failoverSecs, *statsEvery, *metricsAddr, obs, *verbose); err != nil {
			fatal("aggregate failed", "err", err)
		}
		return
	}
	if *edgeSpec != "" && *listen == "" {
		fatal("-edge requires -listen (the edge keeps ingesting devices; the uplink rides on top)")
	}
	if *replayDir != "" {
		if err := runReplay(*replayDir, *suo, *shards, *diagCoeff, *verbose); err != nil {
			fatal("replay failed", "err", err)
		}
		return
	}
	if *recoverPol != "" && *listen == "" {
		fatal("-recover requires -listen (the controller actuates through the ingestion server)")
	}
	if *diagCoeff != "" && *recoverPol == "" {
		fatal("-diagnose requires -recover (diagnosis pulls evidence when the controller escalates) or -replay (offline)")
	}
	if *diagCont && *diagCoeff == "" {
		fatal("-diagnose-continuous requires -diagnose (it feeds the diagnosis engine)")
	}
	if *cpSecs > 0 && *journalDir == "" {
		fatal("-checkpoint-seconds requires -journal (checkpoints are journal resume points)")
	}
	if *incidentDir != "" && *recoverPol == "" {
		fatal("-incident-dir requires -recover (incidents open when the recovery ladder escalates)")
	}
	if (*creditWindow != 0 || *shed || *metricsAddr != "") && *listen == "" {
		fatal("-credit-window, -shed and -metrics require -listen (they are ingestion-server overload controls)")
	}
	if *listen == "" {
		fmt.Fprintln(os.Stderr, "traderd: pick a mode: -listen or -replay")
		flag.Usage()
		os.Exit(2)
	}
	diag := diagConfig{Coeff: *diagCoeff, Blocks: *diagBlocks, Cohort: *diagCohort, Continuous: *diagCont}
	over := overloadConfig{CreditWindow: *creditWindow, Shed: *shed, MetricsAddr: *metricsAddr}
	obs := obsConfig{TraceSample: *traceSample, IncidentDir: *incidentDir, Pprof: *pprofOn}
	if err := runIngest(*listen, *suo, *shards, *statsEvery, *maxAdvance, *journalDir, *recoverPol, *cpSecs, diag, over, obs, *edgeSpec, *verbose); err != nil {
		fatal("ingest failed", "err", err)
	}
}

// profiles maps each -suo name to the per-connection monitor factory
// -listen and -replay mode hand the fleet. It is the one place the daemon
// names a product: each product package owns its reference monitor.
var profiles = map[string]fleet.MonitorFactory{
	"light": fleet.LightMonitorFactory(),
	"tv": fixedSeed(func(k *sim.Kernel) (*core.Monitor, error) {
		return tvsim.NewMonitor(k, tvsim.Config{})
	}),
	"mediaplayer": fixedSeed(func(k *sim.Kernel) (*core.Monitor, error) {
		return mediaplayer.NewMonitor(k, mediaplayer.Config{})
	}),
}

// fixedSeed adapts a product's monitor constructor to a fleet factory whose
// every monitor runs on a fresh kernel of seed 1: product monitors are
// deterministic per connection, so a journal replays identically.
func fixedSeed(build func(*sim.Kernel) (*core.Monitor, error)) fleet.MonitorFactory {
	return func(string, int64) (*sim.Kernel, *core.Monitor, error) {
		k := sim.NewKernel(1)
		mon, err := build(k)
		if err != nil {
			return nil, nil, err
		}
		return k, mon, nil
	}
}

// profileNames lists the -suo names in sorted order.
func profileNames() string {
	return strings.Join(slices.Sorted(maps.Keys(profiles)), ", ")
}

// monitorFactory looks up the -suo profile's monitor factory.
func monitorFactory(suo string) (fleet.MonitorFactory, error) {
	f, ok := profiles[suo]
	if !ok {
		return nil, fmt.Errorf("unknown SUO profile %q (known: %s)", suo, profileNames())
	}
	return f, nil
}

// diagConfig carries the -diagnose knobs into ingest mode.
type diagConfig struct {
	Coeff      string
	Blocks     int
	Cohort     int
	Continuous bool
}

// overloadConfig carries the overload-control knobs into ingest mode:
// credit-based flow control, tiered load shedding and the /metrics
// latency-SLO endpoint.
type overloadConfig struct {
	CreditWindow int
	Shed         bool
	MetricsAddr  string
}

// obsConfig carries the observability knobs: trace sampling, the incident
// bundle directory and the pprof toggle.
type obsConfig struct {
	TraceSample int
	IncidentDir string
	Pprof       bool
}

// Shed-tier thresholds -shed enables: observations (tier 1) drop first,
// heartbeats (tier 2) only near saturation, control traffic (tier 3) never.
const (
	shedObservationsAt = 0.75
	shedHeartbeatsAt   = 0.95
)

// runReplay is offline post-mortem mode: rebuild a fleet pool from a frame
// journal — no listeners, no clients — print what the fleet had observed
// and detected at the moment of the last durable frame, and exit. With
// -diagnose the same pass additionally reconstructs the fleet diagnosis
// from the journal's diagnosis checkpoint and labeled evidence records: the
// exact ranking the live engine held, byte for byte.
func runReplay(dir, suo string, shards int, diagCoeff string, verbose bool) error {
	factory, err := monitorFactory(suo)
	if err != nil {
		return err
	}
	var riders []journal.Plane
	var diag *diagnose.Offline
	if diagCoeff != "" {
		coeff, ok := spectrum.CoefficientByName(diagCoeff)
		if !ok {
			return fmt.Errorf("unknown coefficient %q", diagCoeff)
		}
		diag = &diagnose.Offline{Coeff: coeff}
		riders = append(riders, diag)
	}
	pool := fleet.NewPool(fleet.Options{Shards: shards})
	defer pool.Stop()
	if verbose {
		pool.OnReport(func(device string, r wire.ErrorReport) {
			slog.Info("error report", "component", "replay", "device", device, "report", r.String())
		})
	}
	if _, err := recoverJournal(dir, suo, pool, factory, riders...); err != nil {
		return err
	}
	ro := pool.Rollup()
	slog.Info("replay rollup", "component", "replay",
		"devices", ro.Devices, "dispatched", ro.Dispatched,
		"comparisons", ro.Monitor.Comparisons, "deviations", ro.Monitor.Deviations,
		"reports", ro.Reports)
	if diag != nil {
		res, st := diag.Result(10)
		if res == nil {
			slog.Info("journal holds no diagnosis evidence", "component", "replay")
			return nil
		}
		slog.Info("replayed diagnosis", "component", "replay",
			"snapshots", st.Snapshots, "deltas", st.Deltas,
			"windows", st.Windows, "skipped", st.Skipped, "result", res.String())
	}
	return nil
}

// runIngest is the networked fleet daemon: every accepted connection is one
// remote SUO monitored as a device of a single sharded pool. With a journal
// directory it is also crash-durable: existing journal state is recovered
// into the pool before any listener opens, and every accepted frame is
// journaled write-ahead from then on. With a -recover policy the awareness
// loop is closed: a recovery controller escalates each device's error
// reports (tolerate → reset → restart → quarantine), actuates through the
// server's control pushes, and journals every action. With -diagnose the
// diagnosis plane additionally pulls coverage snapshots from escalated
// devices and healthy cohorts, folds them into a fleet-level spectrum and
// logs periodic top-suspect rollups.
func runIngest(addrs, suo string, shards, statsEvery, maxAdvance int, journalDir, recoverPol string, cpSecs int, diag diagConfig, over overloadConfig, obs obsConfig, edgeSpec string, verbose bool) error {
	factory, err := monitorFactory(suo)
	if err != nil {
		return err
	}
	// Saturate rather than convert blindly: a huge flag value (an operator
	// disabling the bound) must not wrap negative and silently fall back
	// to the 300s default.
	adv := sim.Time(math.MaxInt64)
	if int64(maxAdvance) <= math.MaxInt64/int64(sim.Second) {
		adv = sim.Time(maxAdvance) * sim.Second
	}
	// The frame-lifecycle tracer is always on: 1-in-N sampling on the
	// ingest path, forced recording for control traffic (§6.2).
	tracer := trace.New(trace.Options{Shards: shards, SampleN: obs.TraceSample})
	pool := fleet.NewPool(fleet.Options{Shards: shards, Tracer: tracer})
	defer pool.Stop()
	srv := &fleet.Server{
		Pool:         pool,
		Factory:      factory,
		HelloTimeout: 10 * time.Second,
		MaxAdvance:   adv,
		CreditWindow: over.CreditWindow,
		Tracer:       tracer,
	}
	if over.Shed {
		srv.ShedObservationsAt = shedObservationsAt
		srv.ShedHeartbeatsAt = shedHeartbeatsAt
		slog.Info("load shedding on", "component", "ingest",
			"observations_at", shedObservationsAt, "heartbeats_at", shedHeartbeatsAt)
	}
	if over.CreditWindow > 0 {
		slog.Info("flow control on", "component", "ingest", "credit_window", over.CreditWindow)
	}
	// Register the planes the flags ask for. They are built before the
	// boot pass, which restores into them, and so before the journal is
	// open for writing: their journal handle is bound once it is (§3.3).
	var planes []plane
	planeCounters := func(c federate.Counters) {
		for _, p := range planes {
			p.Counters(c)
		}
	}
	sink := &journalSink{}
	var planeJournal fleet.FrameJournal
	if journalDir != "" {
		planeJournal = sink
	}
	// Deferred ahead of the planes' own Close calls, so on the way out the
	// journal closes after the planes that append to it have stopped.
	var jw *journal.Sharded
	defer func() {
		if jw != nil {
			jw.Close()
		}
	}()
	var onEscalate func(control.Action)
	topSuspects := func() []trace.TopSuspect { return nil }
	if diag.Coeff != "" {
		coeff, ok := spectrum.CoefficientByName(diag.Coeff)
		if !ok {
			return fmt.Errorf("unknown coefficient %q", diag.Coeff)
		}
		opts := diagnose.Options{Requester: srv, Journal: planeJournal, Coeff: coeff, Blocks: diag.Blocks,
			Cohort: diag.Cohort, Continuous: diag.Continuous, Tracer: tracer}
		if verbose {
			opts.Logf = logfAdapter("diagnosis")
		}
		eng := diagnose.Attach(pool, opts)
		defer eng.Close()
		srv.OnSnapshot = eng.HandleSnapshot
		mode := "episodic pulls"
		if diag.Continuous {
			srv.OnSpectrumDelta = eng.HandleSpectrumDelta
			mode = "continuous heartbeat deltas + episodic pulls"
		}
		slog.Info("fleet diagnosis on", "component", "diagnosis",
			"coeff", coeff.Name, "blocks", diag.Blocks, "cohort", diag.Cohort, "mode", mode)
		planes = append(planes, eng)
		onEscalate = eng.HandleAction
		topSuspects = func() (top []trace.TopSuspect) {
			for _, rb := range eng.Result(5).Ranking {
				top = append(top, trace.TopSuspect{Block: rb.Block, Component: rb.Component, Score: rb.Score})
			}
			return top
		}
	}
	if recoverPol != "" {
		pol, err := control.PolicyByName(recoverPol)
		if err != nil {
			return err
		}
		opts := control.Options{Actuator: srv, Journal: planeJournal, Policy: pol, OnEscalate: onEscalate}
		if verbose {
			opts.Logf = logfAdapter("recovery")
		}
		if obs.IncidentDir != "" {
			opts.OnIncident = incidentRecorder(obs.IncidentDir, journalDir, tracer, pool, srv, topSuspects, planeCounters)
			slog.Info("incident bundles on", "component", "trace", "dir", obs.IncidentDir)
		}
		// New, not Attach: the controller subscribes to the pool's reports
		// when the boot pass settles, never during it.
		ctl := control.New(pool, opts)
		defer ctl.Close()
		srv.OnAck = ctl.HandleAck
		slog.Info("recovery controller on", "component", "recovery",
			"policy", pol.Name, "tolerate", pol.Tolerate, "resets", pol.Resets,
			"restarts", pol.Restarts, "restart_latency", pol.RestartLatency.String())
		planes = append(planes, ctl)
	}

	// Recover before listening: devices must carry their pre-crash monitor
	// state — and the planes their ladders and spectra — before connections
	// come back. One pass over the journal serves them all.
	if journalDir != "" {
		riders := make([]journal.Plane, len(planes))
		for i, p := range planes {
			riders[i] = p
		}
		if _, err := recoverJournal(journalDir, suo, pool, factory, riders...); err != nil {
			return fmt.Errorf("recovering journal %s: %w", journalDir, err)
		}
		for _, p := range planes {
			if n := p.Recovered(); n > 0 {
				slog.Info("plane recovered", append(p.Summary(false), "records", n, "dir", journalDir)...)
			}
		}
		// One journal stream per pool shard: each stream group-commits on
		// its own fsync pipeline, so the fleet's append traffic no longer
		// serialises behind a single queue. Any flat pre-sharding segments
		// in the directory root were replayed above and stay readable.
		if jw, err = journal.CreateSharded(journalDir, pool.Shards(), journal.Options{}); err != nil {
			return err
		}
		if err := jw.AppendShard(0, profileMarker(suo)); err != nil {
			return err
		}
		srv.Journal, sink.w = jw, jw
		slog.Info("journaling accepted frames", "component", "journal",
			"dir", journalDir, "streams", jw.Shards())
	} else {
		// Nothing to replay: settling alone takes the planes live.
		for _, p := range planes {
			if err := p.Settle(); err != nil {
				return err
			}
		}
	}
	if verbose {
		srv.Logf = logfAdapter("ingest")
		pool.OnReport(func(device string, r wire.ErrorReport) {
			slog.Info("error report", "component", "fleet", "device", device, "report", r.String())
		})
	}
	if over.MetricsAddr != "" {
		defer serveMetrics(over.MetricsAddr, metricsHandler(pool, srv, jw, planes, tracer), tracer, obs.Pprof)()
		slog.Info("serving metrics and traces", "component", "metrics",
			"addr", over.MetricsAddr, "pprof", obs.Pprof)
	}
	if cpSecs > 0 && jw != nil {
		cper := &fleet.Checkpointer{Pool: pool, Journal: jw, Profile: suo}
		for _, p := range planes {
			cper.Planes = append(cper.Planes, p.Checkpoint)
		}
		if verbose {
			cper.Logf = logfAdapter("checkpoint")
		}
		cpDone := make(chan struct{})
		defer close(cpDone)
		go cper.Run(time.Duration(cpSecs)*time.Second, cpDone)
		slog.Info("checkpointing fleet state", "component", "checkpoint", "every_seconds", cpSecs)
	}
	if edgeSpec != "" {
		// The delta carries every plane's rollup next to the fleet counters
		// — all order-independent folds, so the aggregator's sums stay exact.
		e := &federate.Edge{
			Sample:  federate.PoolSampler(pool, srv, planeCounters),
			Pool:    pool,
			Factory: factory,
			Tracer:  tracer,
		}
		if jw != nil {
			e.Journal = jw
		}
		stopEdge, err := startEdge(edgeSpec, journalDir, e)
		if err != nil {
			return err
		}
		defer stopEdge()
	}

	listeners, errc, err := listenAll(addrs, func(addr string) {
		slog.Info("ingesting fleet SUOs", "component", "ingest",
			"addr", addr, "shards", pool.Shards(), "suo", suo)
	}, func(ln net.Listener) error {
		if err := srv.Serve(ln); err != fleet.ErrServerClosed {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}

	// logRollups writes the periodic (or final) rollup: the fleet's own
	// line, the overload line once anything was shed or granted, then one
	// record per registered plane.
	logRollups := func(prefix string, final bool) {
		ro := pool.Rollup()
		cs := srv.Stats()
		slog.Info(prefix+"fleet rollup", "component", "fleet",
			"devices", ro.Devices, "frames", cs.Frames, "dispatched", ro.Dispatched,
			"comparisons", ro.Monitor.Comparisons, "deviations", ro.Monitor.Deviations,
			"reports", ro.Reports, "accepted", cs.Accepted, "rejected", cs.Rejected,
			"disconnected", cs.Disconnected)
		if ro.ShedObservations+ro.ShedHeartbeats+cs.CreditGrants+cs.CreditViolations > 0 {
			lat := pool.Latency()
			slog.Info(prefix+"overload rollup", "component", "ingest",
				"shed_observations", ro.ShedObservations, "shed_heartbeats", ro.ShedHeartbeats,
				"shed_control", ro.ShedControl, "credit_grants", cs.CreditGrants,
				"credit_violations", cs.CreditViolations,
				"latency_p50", lat.Quantile(0.5).String(), "latency_p99", lat.Quantile(0.99).String(),
				"latency_p999", lat.Quantile(0.999).String())
		}
		for _, p := range planes {
			slog.Info(prefix+"plane rollup", p.Summary(final)...)
		}
	}
	sig, err := awaitStop(statsEvery, errc, func() { logRollups("", false) })
	if err != nil {
		srv.Close()
		return err
	}
	slog.Info("draining fleet", "component", "ingest", "signal", sig.String())
	srv.Close()
	for _, ln := range listeners {
		ln.Close()
	}
	logRollups("final ", true)
	if jw != nil {
		js := jw.Stats()
		slog.Info("journal totals", "component", "journal",
			"appends", js.Appends, "fsync_batches", js.Syncs, "segments", js.Segments)
	}
	return nil
}

// The three helpers below are the daemon scaffolding ingest mode and
// aggregator mode share.

// listenAll opens a listener on each comma-separated address — a stale Unix
// socket path is removed first — announces it through opened, and runs serve
// on it in a goroutine of its own; what serve returns arrives on the channel.
// A failed listen closes the listeners already open.
func listenAll(addrs string, opened func(addr string), serve func(net.Listener) error) ([]net.Listener, <-chan error, error) {
	errc := make(chan error, 8)
	var listeners []net.Listener
	for _, addr := range strings.Split(addrs, ",") {
		addr = strings.TrimSpace(addr)
		if network, path, err := wire.SplitAddr(addr); err == nil && network == "unix" {
			_ = os.Remove(path)
		}
		ln, err := wire.Listen(addr)
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, nil, err
		}
		listeners = append(listeners, ln)
		opened(addr)
		go func() { errc <- serve(ln) }()
	}
	return listeners, errc, nil
}

// serveMetrics starts the -metrics HTTP listener — /metrics plus the trace
// and pprof endpoints — and returns the function that stops it.
func serveMetrics(addr string, metrics http.Handler, tracer *trace.Tracer, pprof bool) (stop func()) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics)
	registerObservability(mux, tracer, pprof)
	msrv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			slog.Error("metrics listener failed", "component", "metrics", "err", err)
		}
	}()
	return func() { msrv.Close() }
}

// awaitStop is the daemon's main loop: tick runs every statsEvery seconds
// (never, when that is ≤ 0) until SIGINT or SIGTERM arrives, which it
// returns, or a listener fails, whose error it returns.
func awaitStop(statsEvery int, errc <-chan error, tick func()) (os.Signal, error) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(time.Duration(max(statsEvery, 1)) * time.Second)
	if statsEvery <= 0 {
		ticker.Stop()
	}
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			tick()
		case sig := <-sigc:
			return sig, nil
		case err := <-errc:
			if err != nil {
				return nil, err
			}
		}
	}
}
