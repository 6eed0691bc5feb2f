// Observability glue for traderd: structured logging, the /trace endpoint,
// process self-metrics, trace-plane metrics, pprof registration and the
// incident-bundle recorder. ARCHITECTURE.md §6 is the normative spec.

package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"runtime"

	"trader/internal/control"
	"trader/internal/federate"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/trace"
)

// processStart anchors the uptime gauge.
var processStart = time.Now()

// setupLogging installs the process-wide slog default: text (human) or
// JSON (machine) lines on stderr, per the -log-format flag.
func setupLogging(format string) error {
	var h slog.Handler
	switch format {
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, nil)
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

// logfAdapter bridges the subsystems' printf-style Logf hooks onto slog,
// tagging every line with its component.
func logfAdapter(component string) func(string, ...any) {
	return func(format string, args ...any) {
		slog.Info(fmt.Sprintf(format, args...), "component", component)
	}
}

// traceHandler serves the tracer's flight-recorder contents: recent spans
// as span JSON (default) or Chrome trace-event format (?format=chrome,
// loadable in chrome://tracing / Perfetto). ?trace=<16-hex-digit id>
// restricts the dump to one trace's span chain.
func traceHandler(tr *trace.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
}

// registerObservability mounts the shared observability endpoints on a
// metrics mux: /trace always, /debug/pprof/* when -pprof is set.
func registerObservability(mux *http.ServeMux, tr *trace.Tracer, withPprof bool) {
	mux.Handle("/trace", traceHandler(tr))
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
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
	if n, ok := openFDs(); ok {
		fmt.Fprintln(w, "# TYPE trader_process_open_fds gauge")
		fmt.Fprintf(w, "trader_process_open_fds %d\n", n)
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

// openFDs counts the process's open file descriptors via /proc (Linux);
// ok is false where /proc is absent.
func openFDs() (int, bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	return len(ents), true
}

// writeTraceMetrics renders the trace plane's own health on /metrics: the
// forced-ring overflow counter CI asserts stays 0, the span write count,
// and the latency exemplars — info-series carrying the trace ID of the
// frame currently exemplifying each SLO quantile, so an alert on p999 can
// link straight to /trace?trace=<id>.
func writeTraceMetrics(w io.Writer, tr *trace.Tracer, pool *fleet.Pool) {
	fmt.Fprintln(w, "# HELP trader_trace_forced_overflow_total Forced (control-plane) spans evicted from the forced ring before a snapshot saw them. Must stay 0.")
	fmt.Fprintln(w, "# TYPE trader_trace_forced_overflow_total counter")
	fmt.Fprintf(w, "trader_trace_forced_overflow_total %d\n", tr.ForcedOverflow())
	fmt.Fprintln(w, "# TYPE trader_trace_spans_written_total counter")
	fmt.Fprintf(w, "trader_trace_spans_written_total %d\n", tr.Written())
	lat := pool.Latency()
	fmt.Fprintln(w, "# TYPE trader_ingest_latency_exemplar_info gauge")
	for _, q := range []float64{0.99, 0.999} {
		if id := lat.Exemplar(q); id != 0 {
			fmt.Fprintf(w, "trader_ingest_latency_exemplar_info{quantile=\"%g\",trace_id=\"%s\"} 1\n",
				q, trace.ID(id))
		}
	}
}

// incidentRecorder returns the control.Options.OnIncident hook: when the
// ladder reaches restart (or beyond) it freezes the live half of a bundle
// on the controller goroutine — span rings, counters, ladder, ranking are
// all cheap reads — then rebuilds the deterministic half from the journal
// and writes the bundle directory off-thread. Incidents are numbered per
// device in trigger order, matching BuildIncident's journal scan.
func incidentRecorder(root, journalDir string, tr *trace.Tracer, pool *fleet.Pool, srv *fleet.Server, topSuspects func() []trace.TopSuspect, planeCounters func(federate.Counters)) func(control.Action) {
	var mu sync.Mutex
	seqs := make(map[string]int)
	return func(act control.Action) {
		mu.Lock()
		seqs[act.Device]++
		seq := seqs[act.Device]
		mu.Unlock()

		ro := pool.Rollup()
		cs := srv.Stats()
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
		live.TopK = topSuspects()
		if tr != nil {
			// The device's recent spans plus every retained forced span —
			// the forced ring is fleet-wide, so keep foreign-device forced
			// spans too: the escalation's control push lives there.
			for _, s := range tr.Snapshot() {
				if s.Device == act.Device || s.Forced {
					live.Spans = append(live.Spans, trace.Export([]trace.Span{s})...)
				}
			}
		}

		go func() {
			// Plane rollups are barriers through the planes' own loops — the
			// controller's included, which is why they are read here and not
			// on its goroutine above.
			planeCounters(live.Counters)
			inc := &trace.Incident{Device: act.Device, Seq: seq}
			if journalDir != "" {
				// The triggering action is journaled before this hook runs,
				// but the group-commit pipeline may still be flushing it;
				// retry briefly rather than write a truncated bundle.
				for attempt := 0; attempt < 20; attempt++ {
					r, err := journal.OpenReader(journalDir)
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
			dir, err := trace.WriteBundle(root, inc, live)
			if err != nil {
				slog.Error("incident bundle write failed", "component", "trace",
					"device", act.Device, "seq", seq, "err", err)
				return
			}
			slog.Info("incident bundle written", "component", "trace",
				"device", act.Device, "seq", seq, "rung", act.Rung.String(), "dir", dir)
		}()
	}
}
