// Package daemon assembles the awareness monitor of Fig. 2 as traderd ships
// it: the sharded fleet pool, the ingestion server, and the planes its
// Config asks for — recovery controller, diagnosis engine, journal,
// checkpointer, /metrics, incident bundles and the federation edge uplink —
// wired once, recovered from the journal in one pass (Boot), served
// (Serve), drained and closed. The product is injected (Config.Profiles),
// so this package names none; cmd/traderd maps its flags onto a Config and
// the tests boot the same assembly. ARCHITECTURE.md §3.3 (boot order) and
// §3.6 (plane contract) are the normative spec.
package daemon

import (
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"trader/internal/control"
	"trader/internal/diagnose"
	"trader/internal/federate"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/trace"
	"trader/internal/wire"
)

// Config is the flag set of traderd's -listen and -replay modes as typed
// fields, one field per flag, plus the injected product table. The zero
// value of a field is its flag left unset, except where the flag's default
// is spelled out.
type Config struct {
	// Listen is -listen: the comma-separated ingestion addresses.
	Listen string
	// Replay is -replay: the journal to replay offline.
	Replay string
	// SUO is -suo: the Profiles entry every device is monitored with.
	SUO string
	// Profiles is the injected product: each -suo name's monitor factory.
	Profiles map[string]fleet.MonitorFactory
	// Verbose is -v: log every error report and plane action.
	Verbose bool
	// Shards is -shards: pool shards, and journal streams (0: GOMAXPROCS).
	Shards int
	// MaxAdvance is -max-advance: the largest virtual-time jump in seconds
	// one frame may request (0: fleet.Server's default).
	MaxAdvance int
	// Journal is -journal: the write-ahead journal directory.
	Journal string
	// Recover is -recover resolved through control.PolicyByName; the zero
	// Policy leaves the controller off. Without a Journal the ladder lives
	// in memory only: a quarantine is durable only with a journal (§4).
	Recover control.Policy
	// Diagnose is -diagnose resolved through spectrum.CoefficientByName;
	// the zero Coefficient leaves diagnosis off.
	Diagnose spectrum.Coefficient
	// DiagnoseBlocks is -diagnose-blocks (0: spectrum.DefaultBlocks).
	DiagnoseBlocks int
	// DiagnoseCohort is -diagnose-cohort (0: diagnose.DefaultCohort).
	DiagnoseCohort int
	// DiagnoseContinuous is -diagnose-continuous.
	DiagnoseContinuous bool
	// CheckpointSeconds is -checkpoint-seconds (0: off).
	CheckpointSeconds int
	// CreditWindow is -credit-window (0: flow control off).
	CreditWindow int
	// Shed is -shed: tiered load shedding.
	Shed bool
	// Metrics is -metrics: the HTTP address of /metrics and /trace.
	Metrics string
	// Edge is -edge: upstream=ADDR,range=N/M.
	Edge string
	// TraceSample is -trace-sample: 1 in N frames starts a trace (0: off).
	TraceSample int
	// IncidentDir is -incident-dir: where incident bundles are written.
	IncidentDir string
	// Pprof is -pprof: serve net/http/pprof on the Metrics listener.
	Pprof bool
}

// ErrNoMode is Validate's answer to a Config that picks no mode.
var ErrNoMode = errors.New("pick a mode: -listen or -replay")

// Validate refuses flag combinations that would silently not do what they
// say: a flag the chosen mode never reads is an error, not a no-op, or an
// operator believes frames are durable, or devices recovered, when nothing
// of the kind happens. The first broken rule is reported.
func (c Config) Validate() error {
	recovering, diagnosing := c.Recover != (control.Policy{}), c.Diagnose.F != nil
	for _, r := range []struct {
		broken bool
		why    string
	}{
		// Only -listen mode journals; accepting the flag elsewhere
		// (including -replay, which only reads a journal) would leave an
		// operator believing frames are durable when nothing is written.
		{c.Journal != "" && c.Listen == "", "-journal requires -listen (only the ingestion daemon and the aggregator journal)"},
		{c.Pprof && c.Metrics == "", "-pprof requires -metrics (pprof rides on the metrics listener)"},
		{c.Edge != "" && c.Listen == "", "-edge requires -listen (the edge keeps ingesting devices; the uplink rides on top)"},
		{c.Replay != "" && c.Listen != "", "-replay and -listen are different modes: -replay reads a journal offline and exits without listening"},
		{recovering && c.Listen == "", "-recover requires -listen (the controller actuates through the ingestion server)"},
		{diagnosing && !recovering && c.Replay == "", "-diagnose requires -recover (diagnosis pulls evidence when the controller escalates) or -replay (offline)"},
		{c.DiagnoseContinuous && !diagnosing, "-diagnose-continuous requires -diagnose (it feeds the diagnosis engine)"},
		{c.CheckpointSeconds != 0 && c.Journal == "", "-checkpoint-seconds requires -journal (checkpoints are journal resume points)"},
		{c.IncidentDir != "" && !recovering, "-incident-dir requires -recover (incidents open when the recovery ladder escalates)"},
		{(c.CreditWindow != 0 || c.Shed || c.Metrics != "") && c.Listen == "", "-credit-window, -shed and -metrics require -listen (they are ingestion-server overload controls)"},
		{(c.MaxAdvance != 0 || c.DiagnoseContinuous) && c.Listen == "", "-max-advance and -diagnose-continuous require -listen (they act on live connections)"},
	} {
		if r.broken {
			return errors.New(r.why)
		}
	}
	if c.Listen == "" && c.Replay == "" {
		return ErrNoMode
	}
	return nil
}

// Shed-tier thresholds Config.Shed enables: observations (tier 1) drop
// first, heartbeats (tier 2) only near saturation, control traffic (tier 3)
// never.
const (
	shedObservationsAt = 0.75
	shedHeartbeatsAt   = 0.95
)

// Daemon is one assembled monitor process: in -listen mode the ingestion
// server and every plane the Config asks for, in -replay mode a pool and
// the offline diagnosis rider.
type Daemon struct {
	cfg     Config
	tracer  *trace.Tracer
	pool    *fleet.Pool
	srv     *fleet.Server
	ctl     *control.Controller
	eng     *diagnose.Engine
	offline *diagnose.Offline
	// planes are the optional planes in registration order; every
	// cross-cutting concern loops over them (§3.6). riders are what the
	// boot pass feeds beside the pool: the planes, or the offline diagnosis.
	planes []plane
	riders []journal.Plane
	// sink is the planes' late-bound journal handle, jw the journal once
	// Boot has opened it for writing.
	sink journalSink
	jw   *journal.Sharded

	listeners    []net.Listener
	stopEdge     func()   // a no-op until Serve starts an uplink
	stops        []func() // Serve's other background loops, stopped by Close in reverse
	incidents    sync.WaitGroup
	incidentSeqs map[string]int // per-device incident count, controller goroutine only
}

// New validates cfg and builds the daemon it describes. In -listen mode the
// planes are registered — diagnosis before the controller that escalates
// into it — with their journal handle not yet bound: Boot restores into
// them, and only then opens the journal for writing (§3.3).
func New(cfg Config) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	factory, ok := cfg.Profiles[cfg.SUO]
	if !ok {
		return nil, fmt.Errorf("unknown SUO profile %q (known: %s)", cfg.SUO, cfg.ProfileNames())
	}
	d := &Daemon{cfg: cfg, stopEdge: func() {}, incidentSeqs: map[string]int{}}
	if cfg.Replay != "" {
		d.pool = fleet.NewPool(fleet.Options{Shards: cfg.Shards})
		if cfg.Diagnose.F != nil {
			d.offline = &diagnose.Offline{Coeff: cfg.Diagnose}
			d.riders = append(d.riders, d.offline)
		}
		d.logReports("replay")
		return d, nil
	}
	// The frame-lifecycle tracer is always on: 1-in-N sampling on the
	// ingest path, forced recording for control traffic (§6.2).
	d.tracer = trace.New(trace.Options{Shards: cfg.Shards, SampleN: cfg.TraceSample})
	d.pool = fleet.NewPool(fleet.Options{Shards: cfg.Shards, Tracer: d.tracer})
	// Saturate rather than convert blindly: a huge -max-advance (an
	// operator disabling the bound) must not wrap negative and silently
	// fall back to the 300s default.
	adv := sim.Time(math.MaxInt64)
	if int64(cfg.MaxAdvance) <= math.MaxInt64/int64(sim.Second) {
		adv = sim.Time(cfg.MaxAdvance) * sim.Second
	}
	d.srv = &fleet.Server{Pool: d.pool, Factory: factory, HelloTimeout: 10 * time.Second, MaxAdvance: adv,
		CreditWindow: cfg.CreditWindow, Tracer: d.tracer}
	if cfg.Shed {
		d.srv.ShedObservationsAt = shedObservationsAt
		d.srv.ShedHeartbeatsAt = shedHeartbeatsAt
		slog.Info("load shedding on", "component", "ingest",
			"observations_at", shedObservationsAt, "heartbeats_at", shedHeartbeatsAt)
	}
	if cfg.CreditWindow > 0 {
		slog.Info("flow control on", "component", "ingest", "credit_window", cfg.CreditWindow)
	}
	var planeJournal fleet.FrameJournal
	if cfg.Journal != "" {
		planeJournal = &d.sink
	}
	var onEscalate func(control.Action)
	if cfg.Diagnose.F != nil {
		opts := diagnose.Options{Requester: d.srv, Journal: planeJournal, Coeff: cfg.Diagnose, Blocks: cfg.DiagnoseBlocks,
			Cohort: cfg.DiagnoseCohort, Continuous: cfg.DiagnoseContinuous, Tracer: d.tracer, Logf: cfg.vlogf("diagnosis")}
		d.eng = diagnose.Attach(d.pool, opts)
		d.srv.OnSnapshot = d.eng.HandleSnapshot
		mode := "episodic pulls"
		if cfg.DiagnoseContinuous {
			d.srv.OnSpectrumDelta = d.eng.HandleSpectrumDelta
			mode = "continuous heartbeat deltas + episodic pulls"
		}
		slog.Info("fleet diagnosis on", "component", "diagnosis",
			"coeff", cfg.Diagnose.Name, "blocks", cfg.DiagnoseBlocks, "cohort", cfg.DiagnoseCohort, "mode", mode)
		d.planes, d.riders = append(d.planes, d.eng), append(d.riders, d.eng)
		onEscalate = d.eng.HandleAction
	}
	if pol := cfg.Recover; pol != (control.Policy{}) {
		opts := control.Options{Actuator: d.srv, Journal: planeJournal, Policy: pol, OnEscalate: onEscalate,
			Logf: cfg.vlogf("recovery")}
		if cfg.IncidentDir != "" {
			opts.OnIncident = d.recordIncident
			slog.Info("incident bundles on", "component", "trace", "dir", cfg.IncidentDir)
		}
		// New, not Attach: the controller subscribes to the pool's reports
		// when the boot pass settles, never during it.
		d.ctl = control.New(d.pool, opts)
		d.srv.OnAck = d.ctl.HandleAck
		slog.Info("recovery controller on", "component", "recovery",
			"policy", pol.Name, "tolerate", pol.Tolerate, "resets", pol.Resets,
			"restarts", pol.Restarts, "restart_latency", pol.RestartLatency.String())
		d.planes, d.riders = append(d.planes, d.ctl), append(d.riders, d.ctl)
	}
	return d, nil
}

// vlogf is Logf(component) under -v, and nil — silent — without it.
func (c Config) vlogf(component string) func(string, ...any) {
	if !c.Verbose {
		return nil
	}
	return Logf(component)
}

// ProfileNames lists the Profiles names in sorted order.
func (c Config) ProfileNames() string {
	return strings.Join(slices.Sorted(maps.Keys(c.Profiles)), ", ")
}

// Boot runs the one journal pass. In -replay mode it rebuilds the pool (and
// the offline diagnosis) from the journal and logs what the fleet had
// observed and detected at its last durable frame. In -listen mode it
// recovers the pool and every plane before any listener opens — devices
// must carry their pre-crash monitor state, and the planes their ladders
// and spectra, before connections come back — then opens the journal for
// writing, appends the profile marker and binds the planes' journal handle.
// Without a journal, settling alone takes the planes live.
func (d *Daemon) Boot() (st fleet.ReplayStats, err error) {
	if dir := d.cfg.Replay; dir != "" {
		if st, err = d.replay(dir); err == nil {
			d.logReplay()
		}
		return st, err
	}
	if dir := d.cfg.Journal; dir != "" {
		if st, err = d.replay(dir); err != nil {
			return st, fmt.Errorf("recovering journal %s: %w", dir, err)
		}
		for _, p := range d.planes {
			if n := p.Recovered(); n > 0 {
				slog.Info("plane recovered", append(p.Summary(false), "records", n, "dir", dir)...)
			}
		}
		// One journal stream per pool shard: each stream group-commits on
		// its own fsync pipeline, so the fleet's append traffic does not
		// serialise behind a single queue. Any flat pre-sharding segments
		// in the directory root were replayed above and stay readable.
		if d.jw, err = journal.CreateSharded(dir, d.pool.Shards(), journal.Options{}); err != nil {
			return st, err
		}
		if err := d.jw.AppendShard(0, profileMarker(d.cfg.SUO)); err != nil {
			return st, err
		}
		d.srv.Journal, d.sink.w = d.jw, d.jw
		slog.Info("journaling accepted frames", "component", "journal",
			"dir", dir, "streams", d.jw.Shards())
	} else {
		for _, p := range d.planes {
			if err := p.Settle(); err != nil {
				return st, err
			}
		}
	}
	d.srv.Logf = d.cfg.vlogf("ingest")
	d.logReports("fleet")
	return st, nil
}

// logReports logs every error report the pool raises under -v.
func (d *Daemon) logReports(component string) {
	if !d.cfg.Verbose {
		return
	}
	d.pool.OnReport(func(device string, r wire.ErrorReport) {
		slog.Info("error report", "component", component, "device", device, "report", r.String())
	})
}

// logReplay logs the -replay rollup and, with -diagnose, the diagnosis the
// same pass reconstructed: the exact ranking the live engine held.
func (d *Daemon) logReplay() {
	ro := d.pool.Rollup()
	slog.Info("replay rollup", "component", "replay",
		"devices", ro.Devices, "dispatched", ro.Dispatched,
		"comparisons", ro.Monitor.Comparisons, "deviations", ro.Monitor.Deviations,
		"reports", ro.Reports)
	if d.offline == nil {
		return
	}
	res, st := d.offline.Result(10)
	if res == nil {
		slog.Info("journal holds no diagnosis evidence", "component", "replay")
		return
	}
	slog.Info("replayed diagnosis", "component", "replay",
		"snapshots", st.Snapshots, "deltas", st.Deltas,
		"windows", st.Windows, "skipped", st.Skipped, "result", res.String())
}

// Serve starts the -metrics listener, the checkpointer and the edge uplink,
// then opens every -listen address and serves it. It returns once the
// listeners are open; what a listener's Serve later returns arrives on the
// channel.
func (d *Daemon) Serve() (errc <-chan error, err error) {
	if d.cfg.Metrics != "" {
		d.stops = append(d.stops, ServeMetrics(d.cfg.Metrics, d.writeMetrics, d.tracer, d.cfg.Pprof))
		slog.Info("serving metrics and traces", "component", "metrics",
			"addr", d.cfg.Metrics, "pprof", d.cfg.Pprof)
	}
	if d.cfg.CheckpointSeconds > 0 && d.jw != nil {
		cper := &fleet.Checkpointer{Pool: d.pool, Journal: d.jw, Profile: d.cfg.SUO, Logf: d.cfg.vlogf("checkpoint")}
		for _, p := range d.planes {
			cper.Planes = append(cper.Planes, p.Checkpoint)
		}
		done := make(chan struct{})
		d.stops = append(d.stops, func() { close(done) })
		go cper.Run(time.Duration(d.cfg.CheckpointSeconds)*time.Second, done)
		slog.Info("checkpointing fleet state", "component", "checkpoint", "every_seconds", d.cfg.CheckpointSeconds)
	}
	if d.cfg.Edge != "" {
		if err := d.startEdge(); err != nil {
			return nil, err
		}
	}
	d.listeners, errc, err = Listen(d.cfg.Listen, func(addr string) {
		slog.Info("ingesting fleet SUOs", "component", "ingest",
			"addr", addr, "shards", d.pool.Shards(), "suo", d.cfg.SUO)
	}, func(ln net.Listener) error {
		if err := d.srv.Serve(ln); err != fleet.ErrServerClosed {
			return err
		}
		return nil
	})
	return errc, err
}

// parseEdgeSpec parses the -edge flag: "upstream=ADDR,range=N/M" — the
// aggregator address and this edge's claimed hash range (fleet.RangeOf over
// M ranges equals N for every device it should serve).
func parseEdgeSpec(spec string) (upstream string, rng, of int, err error) {
	for _, part := range strings.Split(spec, ",") {
		switch k, v, _ := strings.Cut(strings.TrimSpace(part), "="); {
		case err != nil: // the first error stands
		case k == "upstream":
			upstream = v
		case k == "range":
			_, err = fmt.Sscanf(v, "%d/%d", &rng, &of)
		default:
			err = fmt.Errorf("unknown key %q", k)
		}
	}
	if err == nil && (upstream == "" || of <= 0 || rng < 0 || rng >= of) {
		err = errors.New("missing upstream, or range index out of bounds")
	}
	if err != nil {
		return "", 0, 0, fmt.Errorf("-edge %q: %v (want upstream=ADDR,range=N/M)", spec, err)
	}
	return upstream, rng, of, nil
}

// startEdge layers the federation uplink on the ingest daemon: the pool and
// server keep serving devices exactly as before; the Edge streams their
// rollup deltas upstream — every plane's rollup next to the fleet counters,
// all order-independent folds, so the aggregator's sums stay exact — and
// carries out adoptions until Drain or Close stops it.
func (d *Daemon) startEdge() error {
	upstream, rng, of, err := parseEdgeSpec(d.cfg.Edge)
	if err != nil {
		return err
	}
	e := &federate.Edge{ID: fmt.Sprintf("edge-%d", rng), Upstream: upstream, Range: rng, Of: of,
		Sample: federate.PoolSampler(d.pool, d.srv, d.planeCounters), Pool: d.pool, Factory: d.srv.Factory,
		JournalDir: d.cfg.Journal, Tracer: d.tracer, Logf: Logf("edge")}
	if d.jw != nil {
		e.Journal = d.jw
	}
	done, ran := make(chan struct{}), make(chan struct{})
	go func() { defer close(ran); e.Run(done) }()
	d.stopEdge = sync.OnceFunc(func() { close(done); <-ran })
	slog.Info("edge uplink started", "component", "edge",
		"upstream", upstream, "edge", e.ID, "range", rng, "of", of)
	return nil
}

// planeCounters adds every plane's rollup to c.
func (d *Daemon) planeCounters(c federate.Counters) {
	for _, p := range d.planes {
		p.Counters(c)
	}
}

// LogRollups writes the periodic (or final) rollup: the fleet's own line,
// the overload line once anything was shed or granted, then one record per
// registered plane.
func (d *Daemon) LogRollups(prefix string, final bool) {
	ro, cs := d.pool.Rollup(), d.srv.Stats()
	slog.Info(prefix+"fleet rollup", "component", "fleet",
		"devices", ro.Devices, "frames", cs.Frames, "dispatched", ro.Dispatched,
		"comparisons", ro.Monitor.Comparisons, "deviations", ro.Monitor.Deviations,
		"reports", ro.Reports, "accepted", cs.Accepted, "rejected", cs.Rejected,
		"disconnected", cs.Disconnected)
	if ro.ShedObservations+ro.ShedHeartbeats+cs.CreditGrants+cs.CreditViolations > 0 {
		lat := d.pool.Latency()
		slog.Info(prefix+"overload rollup", "component", "ingest",
			"shed_observations", ro.ShedObservations, "shed_heartbeats", ro.ShedHeartbeats,
			"shed_control", ro.ShedControl, "credit_grants", cs.CreditGrants,
			"credit_violations", cs.CreditViolations,
			"latency_p50", lat.Quantile(0.5).String(), "latency_p99", lat.Quantile(0.99).String(),
			"latency_p999", lat.Quantile(0.999).String())
	}
	for _, p := range d.planes {
		slog.Info(prefix+"plane rollup", p.Summary(final)...)
	}
}

// Drain stops serving: every device connection and listener closes, the
// edge uplink ends, and the final rollup and journal totals are logged. The
// planes and the journal stay open until Close.
func (d *Daemon) Drain() {
	d.stopServing()
	d.LogRollups("final ", true)
	if d.jw != nil {
		js := d.jw.Stats()
		slog.Info("journal totals", "component", "journal",
			"appends", js.Appends, "fsync_batches", js.Syncs, "segments", js.Segments)
	}
}

// stopServing closes the device connections, the listeners and the uplink.
func (d *Daemon) stopServing() {
	if d.srv != nil {
		d.srv.Close()
	}
	for _, ln := range d.listeners {
		ln.Close()
	}
	d.stopEdge()
}

// Close stops everything New and Serve started that Drain has not: the
// connections and the uplink, then the checkpointer and the metrics
// listener, then the controller and the diagnosis engine. It waits for the
// incident bundles still being written, closes the journal after every
// plane that appends to it has stopped, and stops the pool last.
func (d *Daemon) Close() error {
	d.stopServing()
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
	d.stops = nil // Close is idempotent
	for i := len(d.planes) - 1; i >= 0; i-- {
		d.planes[i].Close()
	}
	d.incidents.Wait()
	var err error
	if d.jw != nil {
		err = d.jw.Close()
	}
	d.pool.Stop()
	return err
}

// Pool is the daemon's fleet pool.
func (d *Daemon) Pool() *fleet.Pool { return d.pool }

// Server is the ingestion server (nil in -replay mode).
func (d *Daemon) Server() *fleet.Server { return d.srv }

// Controller is the recovery controller (nil without Recover).
func (d *Daemon) Controller() *control.Controller { return d.ctl }

// Engine is the diagnosis engine (nil without Diagnose, or in -replay mode).
func (d *Daemon) Engine() *diagnose.Engine { return d.eng }

// Tracer is the frame-lifecycle tracer (nil in -replay mode).
func (d *Daemon) Tracer() *trace.Tracer { return d.tracer }
