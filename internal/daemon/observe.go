// Observability glue for the daemon and the aggregator: the listener and
// metrics-endpoint scaffolding both serve through, the printf-to-slog
// bridge, the /trace endpoint, process self-metrics, trace-plane metrics,
// pprof registration and the incident-bundle recorder. ARCHITECTURE.md §6
// is the normative spec.

package daemon

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"trader/internal/control"
	"trader/internal/journal"
	"trader/internal/trace"
	"trader/internal/wire"
)

// processStart anchors the uptime gauge.
var processStart = time.Now()

// Listen opens a listener on each comma-separated address — a stale Unix
// socket path is removed first — announces it through opened, and runs serve
// on it in a goroutine of its own; what serve returns arrives on the channel.
// A failed listen closes the listeners already open.
func Listen(addrs string, opened func(addr string), serve func(net.Listener) error) ([]net.Listener, <-chan error, error) {
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

// ServeMetrics starts the -metrics HTTP listener and returns the function
// that stops it. /metrics renders write's families as Prometheus text
// (exposition format 0.0.4, stdlib only), then the trace plane's health and
// the process self-metrics every traderd mode exports; /trace serves the
// tracer's flight recorder, and /debug/pprof/* rides along with pprof.
func ServeMetrics(addr string, write func(io.Writer), tr *trace.Tracer, withPprof bool) (stop func()) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		write(w)
		writeTraceHealth(w, tr)
		writeProcessMetrics(w)
	})
	// /trace dumps recent spans as span JSON, or in Chrome trace-event
	// format with ?format=chrome (chrome://tracing, Perfetto);
	// ?trace=<16-hex-digit id> restricts it to one trace's span chain.
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		var spans []trace.Span
		if id := r.URL.Query().Get("trace"); id != "" {
			var tid uint64
			if _, err := fmt.Sscanf(id, "%x", &tid); err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			spans = tr.Trace(tid)
		} else {
			spans = tr.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("format") == "chrome" {
			_ = trace.WriteChrome(w, spans)
			return
		}
		_ = trace.WriteJSON(w, spans)
	})
	if withPprof {
		// Importing net/http/pprof registers its handlers under this
		// prefix on the default mux.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
	}
	msrv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			slog.Error("metrics listener failed", "component", "metrics", "err", err)
		}
	}()
	return func() { msrv.Close() }
}

// Logf bridges the subsystems' printf-style Logf hooks onto slog, tagging
// every line with its component.
func Logf(component string) func(string, ...any) {
	return func(format string, args ...any) {
		slog.Info(fmt.Sprintf(format, args...), "component", component)
	}
}

// writeProcessMetrics renders the process self-metrics every traderd mode
// exports: goroutines, heap, GC pause p99, open FDs and uptime — the
// "is the daemon itself healthy" row of a scrape.
func writeProcessMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintln(w, "# TYPE trader_process_goroutines gauge")
	fmt.Fprintf(w, "trader_process_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintln(w, "# TYPE trader_process_heap_bytes gauge")
	fmt.Fprintf(w, "trader_process_heap_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintln(w, "# TYPE trader_process_gc_pause_p99_seconds gauge")
	fmt.Fprintf(w, "trader_process_gc_pause_p99_seconds %g\n", gcPauseP99())
	if fds, err := os.ReadDir("/proc/self/fd"); err == nil { // Linux only
		fmt.Fprintln(w, "# TYPE trader_process_open_fds gauge")
		fmt.Fprintf(w, "trader_process_open_fds %d\n", len(fds))
	}
	fmt.Fprintln(w, "# TYPE trader_process_uptime_seconds gauge")
	fmt.Fprintf(w, "trader_process_uptime_seconds %g\n", time.Since(processStart).Seconds())
}

// gcPauseP99 reads the runtime's stop-the-world pause histogram and
// returns its 99th percentile in seconds (0 before the first GC).
func gcPauseP99() float64 {
	samples := []rtmetrics.Sample{{Name: "/gc/pauses:seconds"}}
	rtmetrics.Read(samples)
	if samples[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		return 0
	}
	h := samples[0].Value.Float64Histogram()
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total) * 0.99)
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= target {
			// Buckets[i+1] is the bucket's upper bound; the last bucket
			// may be +Inf, in which case its lower bound is the honest
			// answer.
			hi := h.Buckets[i+1]
			if hi > h.Buckets[len(h.Buckets)-2] { // +Inf guard
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// writeTraceHealth renders the trace plane's own health: the forced-ring
// overflow counter CI asserts stays 0 and the span write count.
func writeTraceHealth(w io.Writer, tr *trace.Tracer) {
	fmt.Fprintln(w, "# HELP trader_trace_forced_overflow_total Forced (control-plane) spans evicted from the forced ring before a snapshot saw them. Must stay 0.")
	fmt.Fprintln(w, "# TYPE trader_trace_forced_overflow_total counter")
	fmt.Fprintf(w, "trader_trace_forced_overflow_total %d\n", tr.ForcedOverflow())
	fmt.Fprintln(w, "# TYPE trader_trace_spans_written_total counter")
	fmt.Fprintf(w, "trader_trace_spans_written_total %d\n", tr.Written())
}

// recordIncident is the control.Options.OnIncident hook: when the ladder
// reaches restart (or beyond) it freezes the live half of a bundle on the
// controller goroutine — span rings, counters, ladder, ranking are all
// cheap reads — then rebuilds the deterministic half from the journal and
// writes the bundle directory off-thread; Close waits for those writes.
// Incidents are numbered per device in trigger order, matching
// BuildIncident's journal scan.
func (d *Daemon) recordIncident(act control.Action) {
	d.incidentSeqs[act.Device]++ // controller goroutine only
	seq := d.incidentSeqs[act.Device]

	ro, cs := d.pool.Rollup(), d.srv.Stats()
	live := &trace.LiveReport{
		WrittenNS: time.Now().UnixNano(),
		Rung:      act.Rung.String(),
		Class:     act.Class.String(),
		Counters: map[string]int64{
			"shed_observations": int64(ro.ShedObservations),
			"shed_heartbeats":   int64(ro.ShedHeartbeats),
			"shed_control":      int64(ro.ShedControl),
			"credit_grants":     int64(cs.CreditGrants),
			"credit_violations": int64(cs.CreditViolations),
		},
	}
	if d.eng != nil {
		for _, rb := range d.eng.Result(5).Ranking {
			live.TopK = append(live.TopK, trace.TopSuspect{Block: rb.Block, Component: rb.Component, Score: rb.Score})
		}
	}
	// The device's recent spans plus every retained forced span — the
	// forced ring is fleet-wide, so keep foreign-device forced spans too:
	// the escalation's control push lives there.
	for _, s := range d.tracer.Snapshot() {
		if s.Device == act.Device || s.Forced {
			live.Spans = append(live.Spans, trace.Export([]trace.Span{s})...)
		}
	}

	d.incidents.Add(1)
	go func() {
		defer d.incidents.Done()
		// Plane rollups are barriers through the planes' own loops — the
		// controller's included, which is why they are read here and not
		// on its goroutine above.
		d.planeCounters(live.Counters)
		inc := &trace.Incident{Device: act.Device, Seq: seq}
		if dir := d.cfg.Journal; dir != "" {
			// The triggering action is journaled before this hook runs,
			// but the group-commit pipeline may still be flushing it;
			// retry briefly rather than write a truncated bundle.
			for attempt := 0; attempt < 20; attempt++ {
				r, err := journal.OpenReader(dir)
				if err != nil {
					break
				}
				built, berr := trace.BuildIncident(r, act.Device, seq)
				r.Close()
				if berr == nil {
					inc = built
					break
				}
				time.Sleep(25 * time.Millisecond)
			}
		}
		dir, err := trace.WriteBundle(d.cfg.IncidentDir, inc, live)
		if err != nil {
			slog.Error("incident bundle write failed", "component", "trace",
				"device", act.Device, "seq", seq, "err", err)
			return
		}
		slog.Info("incident bundle written", "component", "trace",
			"device", act.Device, "seq", seq, "rung", act.Rung.String(), "dir", dir)
	}()
}

// writeMetrics renders the daemon's latency-SLO plane: the
// ingest-to-dispatch latency histogram — aggregate and per shard, with the
// p50/p99/p999 the SLO is stated over — and its exemplars (info-series
// carrying the trace ID of the frame currently exemplifying each SLO
// quantile, so an alert on p999 can link straight to /trace?trace=<id>),
// next to the shed tiers, the flow-control counters, the fleet rollup,
// every registered plane's own families (recovery, diagnosis) and the
// journal's group-commit ratio. One scrape answers "is the fleet inside its
// SLO, and if not, what is it shedding?".
func (d *Daemon) writeMetrics(w io.Writer) {
	pool, cs := d.pool, d.srv.Stats()
	fmt.Fprintln(w, "# HELP trader_ingest_latency_seconds Ingest-to-dispatch latency of admitted observation frames.")
	fmt.Fprintln(w, "# TYPE trader_ingest_latency_seconds histogram")
	agg := pool.Latency()
	agg.WriteProm(w, "trader_ingest_latency_seconds", "", nil)
	fmt.Fprintln(w, "# TYPE trader_ingest_shard_latency_seconds histogram")
	for i := 0; i < pool.Shards(); i++ {
		s := pool.ShardLatency(i)
		s.WriteProm(w, "trader_ingest_shard_latency_seconds", fmt.Sprintf(`shard="%d"`, i), nil)
	}
	fmt.Fprintln(w, "# TYPE trader_ingest_latency_quantile_seconds gauge")
	for _, q := range []float64{0.5, 0.99, 0.999} {
		fmt.Fprintf(w, "trader_ingest_latency_quantile_seconds{quantile=\"%g\"} %g\n",
			q, agg.Quantile(q).Seconds())
	}

	ro := pool.Rollup()
	fmt.Fprintln(w, "# HELP trader_shed_frames_total Frames refused under queue pressure, by shed tier. Control is never shed; the series exists so its flatline is monitorable.")
	fmt.Fprintln(w, "# TYPE trader_shed_frames_total counter")
	fmt.Fprintf(w, "trader_shed_frames_total{tier=\"observation\"} %d\n", ro.ShedObservations)
	fmt.Fprintf(w, "trader_shed_frames_total{tier=\"heartbeat\"} %d\n", ro.ShedHeartbeats)
	fmt.Fprintf(w, "trader_shed_frames_total{tier=\"control\"} %d\n", ro.ShedControl)

	fmt.Fprintln(w, "# TYPE trader_credit_grants_total counter")
	fmt.Fprintf(w, "trader_credit_grants_total %d\n", cs.CreditGrants)
	fmt.Fprintln(w, "# TYPE trader_credit_violations_total counter")
	fmt.Fprintf(w, "trader_credit_violations_total %d\n", cs.CreditViolations)

	fmt.Fprintf(w, "trader_fleet_devices %d\n", ro.Devices)
	fmt.Fprintf(w, "trader_fleet_frames_total %d\n", cs.Frames)
	fmt.Fprintf(w, "trader_fleet_dispatched_total %d\n", ro.Dispatched)
	fmt.Fprintf(w, "trader_fleet_comparisons_total %d\n", ro.Monitor.Comparisons)
	fmt.Fprintf(w, "trader_fleet_deviations_total %d\n", ro.Monitor.Deviations)
	fmt.Fprintf(w, "trader_fleet_reports_total %d\n", ro.Reports)
	fmt.Fprintf(w, "trader_conns_accepted_total %d\n", cs.Accepted)
	fmt.Fprintf(w, "trader_conns_rejected_total %d\n", cs.Rejected)
	fmt.Fprintf(w, "trader_conns_disconnected_total %d\n", cs.Disconnected)

	for _, p := range d.planes {
		p.WriteMetrics(w)
	}

	if d.jw != nil {
		js := d.jw.Stats()
		fmt.Fprintf(w, "trader_journal_appends_total %d\n", js.Appends)
		fmt.Fprintf(w, "trader_journal_fsyncs_total %d\n", js.Syncs)
		fmt.Fprintf(w, "trader_journal_segments %d\n", js.Segments)
	}

	fmt.Fprintln(w, "# TYPE trader_ingest_latency_exemplar_info gauge")
	for _, q := range []float64{0.99, 0.999} {
		if id := agg.Exemplar(q); id != 0 {
			fmt.Fprintf(w, "trader_ingest_latency_exemplar_info{quantile=\"%g\",trace_id=\"%s\"} 1\n",
				q, trace.ID(id))
		}
	}
}
