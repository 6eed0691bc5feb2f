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
// deterministic post-mortem diagnosis without the fleet attached. main only
// maps the flags onto a daemon.Config, whose Validate refuses flags the
// chosen mode would ignore, and hands it the product table:
// internal/daemon assembles the process.
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
// the journal adoptions the aggregator directs.
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
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"trader/internal/control"
	"trader/internal/core"
	"trader/internal/daemon"
	"trader/internal/diagnose"
	"trader/internal/fleet"
	"trader/internal/mediaplayer"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/trace"
	"trader/internal/tvsim"
)

// flags is traderd's command line: the daemon's Config, and the flags only
// main and the federation aggregator read.
type flags struct {
	daemon.Config
	aggregate                             bool
	ranges, failoverSeconds, statsSeconds int
}

func main() {
	f := flags{Config: daemon.Config{Profiles: profiles}}
	flag.StringVar(&f.Listen, "listen", "", "fleet ingestion addresses, comma-separated (unix:/path, tcp:host:port)")
	flag.StringVar(&f.SUO, "suo", "tv", "SUO profile: "+f.ProfileNames())
	flag.BoolVar(&f.Verbose, "v", false, "log every error report")
	flag.IntVar(&f.Shards, "shards", runtime.GOMAXPROCS(0), "worker shards for -listen/-replay modes")
	flag.IntVar(&f.statsSeconds, "stats-seconds", 10, "fleet rollup log interval in -listen mode (0: off)")
	flag.IntVar(&f.MaxAdvance, "max-advance", 0, "largest virtual-time jump in seconds a single client frame may request in -listen mode (0: default 300)")
	flag.StringVar(&f.Journal, "journal", "", "write-ahead journal directory for -listen mode: journal every accepted frame, auto-recover on boot")
	flag.StringVar(&f.Replay, "replay", "", "replay a journal directory into a fresh pool, print the rollup, and exit")
	recoverPol := flag.String("recover", "", "recovery controller policy for -listen mode: default, aggressive or patient (empty: monitoring only)")
	diagCoeff := flag.String("diagnose", "", "fleet diagnosis coefficient for -listen mode (requires -recover; e.g. ochiai) or for -replay output; empty: off")
	flag.IntVar(&f.DiagnoseBlocks, "diagnose-blocks", spectrum.DefaultBlocks, "instrumented block count of the fleet's spectral recorders (must match the clients)")
	flag.IntVar(&f.DiagnoseCohort, "diagnose-cohort", diagnose.DefaultCohort, "healthy peers sampled per diagnosis episode")
	flag.BoolVar(&f.DiagnoseContinuous, "diagnose-continuous", false, "continuous diagnosis: fold spectrum deltas piggybacked on client heartbeats as they arrive, with per-verdict partition rankings (requires -diagnose)")
	flag.IntVar(&f.CheckpointSeconds, "checkpoint-seconds", 0, "write a global journal checkpoint every N seconds in -listen -journal mode, truncating covered segments (0: off)")
	flag.IntVar(&f.CreditWindow, "credit-window", 0, "frame-credit window granted to each -listen connection; compliant clients block when it is spent, violators are disconnected (0: flow control off)")
	flag.BoolVar(&f.Shed, "shed", false, "tiered load shedding in -listen mode: observations drop at 75% shard-queue pressure, heartbeats at 95%, control traffic never")
	flag.StringVar(&f.Metrics, "metrics", "", "serve the latency-SLO plane as Prometheus text on this HTTP address in -listen mode (e.g. 127.0.0.1:9464)")
	flag.StringVar(&f.Edge, "edge", "", "federation edge uplink for -listen mode: upstream=ADDR,range=N/M — stream rollup deltas to an aggregator and adopt a dead edge's journal when it directs")
	flag.BoolVar(&f.aggregate, "aggregate", false, "run as the federation aggregator: -listen addresses accept edge uplinks instead of devices")
	flag.IntVar(&f.ranges, "ranges", 2, "device-ID hash range count of the federation (-aggregate mode; must match every edge's range=N/M)")
	flag.IntVar(&f.failoverSeconds, "failover-seconds", 10, "grace period before the aggregator directs a survivor to adopt a dead edge's journal (-aggregate mode; 0: off)")
	logFormat := flag.String("log-format", "text", "structured log output: text or json")
	flag.IntVar(&f.TraceSample, "trace-sample", trace.DefaultSampleN, "frame-lifecycle trace sampling: 1 in N ingested frames starts a trace (control traffic is always traced; 0: sampling off)")
	flag.StringVar(&f.IncidentDir, "incident-dir", "", "write an incident bundle (spans, counters, ladder, top-K spectrum) to this directory whenever the recovery ladder reaches restart (requires -recover)")
	flag.BoolVar(&f.Pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ on the -metrics listener")
	flag.Parse()

	if err := setupLogging(*logFormat); err != nil {
		fmt.Fprintf(os.Stderr, "traderd: %v\n", err)
		os.Exit(1)
	}
	failed, run := "ingest failed", runDaemon
	switch {
	case f.aggregate:
		failed, run = "aggregate failed", runAggregate
	case f.Replay != "":
		failed = "replay failed"
	}
	if *recoverPol != "" {
		pol, err := control.PolicyByName(*recoverPol)
		if err != nil {
			fatal(failed, "err", err)
		}
		f.Recover = pol
	}
	if *diagCoeff != "" {
		coeff, ok := spectrum.CoefficientByName(*diagCoeff)
		if !ok {
			fatal(failed, "err", fmt.Errorf("unknown coefficient %q", *diagCoeff))
		}
		f.Diagnose = coeff
	}
	if err := f.validate(); errors.Is(err, daemon.ErrNoMode) {
		fmt.Fprintln(os.Stderr, "traderd: "+err.Error())
		flag.Usage()
		os.Exit(2)
	} else if err != nil {
		fatal(err.Error())
	}
	if err := run(f); err != nil {
		fatal(failed, "err", err)
	}
}

// validate is Config.Validate, except that -aggregate runs no Daemon: it
// reads -listen, -journal, -stats-seconds, -metrics, -trace-sample, -pprof,
// -ranges and -failover-seconds, and refuses every flag of the daemon that
// ingests devices rather than ignoring it.
func (f flags) validate() error {
	switch {
	case f.aggregate && f.Listen == "":
		return errors.New("-aggregate requires -listen (the addresses edge uplinks dial)")
	case f.aggregate && f.Edge != "":
		return errors.New("-aggregate and -edge are different tiers of the federation; run them as separate processes")
	case f.aggregate && (f.Replay != "" || f.Recover != (control.Policy{}) || f.Diagnose.F != nil || f.DiagnoseContinuous ||
		f.CheckpointSeconds != 0 || f.CreditWindow != 0 || f.Shed || f.MaxAdvance != 0 || f.IncidentDir != ""):
		return errors.New("-aggregate ingests no devices: -replay, -recover, -diagnose, -diagnose-continuous, -checkpoint-seconds, -credit-window, -shed, -max-advance and -incident-dir apply only to the ingestion daemon")
	}
	return f.Validate()
}

// runDaemon boots the daemon the Config describes. -replay mode ends there;
// in -listen mode the daemon serves, logging its rollup every
// -stats-seconds, until a signal drains it.
func runDaemon(f flags) error {
	d, err := daemon.New(f.Config)
	if err != nil {
		return err
	}
	defer d.Close()
	if _, err := d.Boot(); err != nil || f.Replay != "" {
		return err
	}
	errc, err := d.Serve()
	if err != nil {
		return err
	}
	sig, err := awaitStop(f.statsSeconds, errc, func() { d.LogRollups("", false) })
	if err != nil {
		return err
	}
	slog.Info("draining fleet", "component", "ingest", "signal", sig.String())
	d.Drain()
	return nil
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

// setupLogging installs the process-wide slog default: text (human) or
// JSON (machine) lines on stderr, per the -log-format flag.
func setupLogging(format string) error {
	var h slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	switch format {
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	case "text", "":
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// fatal is the slog replacement for log.Fatalf: one error record, exit 1.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// awaitStop is the main loop of the daemon and the aggregator: tick runs
// every statsEvery seconds (never, when that is ≤ 0) until SIGINT or
// SIGTERM arrives, which it returns, or a listener fails, whose error it
// returns.
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
