package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trader/internal/federate"
	"trader/internal/journal"
	"trader/internal/metrics"
	"trader/internal/trace"
)

// parseEdgeSpec parses the -edge flag: "upstream=ADDR,range=N/M" — the
// aggregator address and this edge's claimed hash range (fleet.RangeOf over
// M ranges equals N for every device it should serve).
func parseEdgeSpec(spec string) (upstream string, rng, of int, err error) {
	bad := func(why string) (string, int, int, error) {
		return "", 0, 0, fmt.Errorf("-edge %q: %s (want upstream=ADDR,range=N/M)", spec, why)
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return bad("missing '='")
		}
		switch k {
		case "upstream":
			upstream = v
		case "range":
			n, m, ok := strings.Cut(v, "/")
			if !ok {
				return bad("range is not N/M")
			}
			if rng, err = strconv.Atoi(n); err != nil {
				return bad("bad range index")
			}
			if of, err = strconv.Atoi(m); err != nil {
				return bad("bad range count")
			}
		default:
			return bad(fmt.Sprintf("unknown key %q", k))
		}
	}
	if upstream == "" {
		return bad("missing upstream")
	}
	if of <= 0 || rng < 0 || rng >= of {
		return bad("range index out of bounds")
	}
	return upstream, rng, of, nil
}

// startEdge layers the federation uplink on an ingest daemon: the pool and
// server keep serving devices exactly as before; the Edge streams their
// rollup deltas upstream and carries out adoptions. The returned stop
// function ends the uplink.
func startEdge(spec, journalDir string, e *federate.Edge) (func(), error) {
	upstream, rng, of, err := parseEdgeSpec(spec)
	if err != nil {
		return nil, err
	}
	e.ID = fmt.Sprintf("edge-%d", rng)
	e.Upstream = upstream
	e.Range, e.Of = rng, of
	e.JournalDir = journalDir
	e.Logf = logfAdapter("edge")
	done := make(chan struct{})
	go e.Run(done)
	slog.Info("edge uplink started", "component", "edge",
		"upstream", upstream, "edge", e.ID, "range", rng, "of", of)
	return func() { close(done) }, nil
}

// runAggregate is federation-aggregator mode: the -listen addresses accept
// edge uplinks (RoleEdge Hellos) instead of devices, the merged fleet-wide
// view is logged every -stats-seconds and served on -metrics, and -journal
// persists the ownership record so a restarted aggregator recovers its
// range map (credited totals re-feed themselves through resume baselines).
func runAggregate(addrs, journalDir string, ranges, failoverSecs, statsEvery int, metricsAddr string, obs obsConfig, verbose bool) error {
	// The aggregator traces too: the receive side of each uplink span lands
	// here, so an exemplar surfaced on the merged view resolves to the span
	// chain that began on an edge's ingest path.
	tracer := trace.New(trace.Options{Shards: 1, SampleN: obs.TraceSample})
	agg := &federate.Aggregator{
		Ranges:   ranges,
		Failover: time.Duration(failoverSecs) * time.Second,
		Logf:     logfAdapter("aggregator"),
		Tracer:   tracer,
	}
	if journalDir != "" {
		// Recover the ownership journal before listening, then append to it.
		if r, err := journal.OpenReader(journalDir); err == nil {
			err := journal.Replay(r, agg)
			r.Close()
			if err != nil {
				return fmt.Errorf("recovering ownership journal %s: %w", journalDir, err)
			}
			if n := agg.Recovered(); n > 0 {
				slog.Info("recovered ownership records", "component", "aggregator",
					"records", n, "dir", journalDir)
			}
		}
		jw, err := journal.Create(journalDir, journal.Options{})
		if err != nil {
			return err
		}
		defer jw.Close()
		agg.Journal = jw
		slog.Info("journaling ownership changes", "component", "aggregator", "dir", journalDir)
	}
	if metricsAddr != "" {
		defer serveMetrics(metricsAddr, federationMetricsHandler(agg, tracer), tracer, obs.Pprof)()
		slog.Info("serving merged fleet view", "component", "aggregator",
			"addr", metricsAddr, "pprof", obs.Pprof)
	}

	// The aggregator keeps the listeners it serves and closes them itself.
	_, errc, err := listenAll(addrs, func(addr string) {
		slog.Info("aggregating edge uplinks", "component", "aggregator",
			"addr", addr, "ranges", ranges, "failover_seconds", failoverSecs)
	}, agg.Serve)
	if err != nil {
		return err
	}
	logView := func(msg string) {
		v := agg.View()
		live := 0
		for _, e := range v.Edges {
			if e.Live {
				live++
			}
		}
		slog.Info(msg, "component", "federation",
			"devices", v.Devices, "edges", len(v.Edges), "live", live,
			"outputs", v.Counters["outputs"], "deviations", v.Counters["deviations"],
			"reports", v.Counters["reports"], "adoptions", v.Adoptions)
	}
	sig, err := awaitStop(statsEvery, errc, func() { logView("federation rollup") })
	if err != nil {
		agg.Close()
		return err
	}
	slog.Info("stopping aggregator", "component", "aggregator", "signal", sig.String())
	agg.Close()
	logView("final federation rollup")
	return nil
}

// federationMetricsHandler renders the aggregator's merged view as
// Prometheus text: the fleet-wide counter folds, the per-edge accounts
// (labelled by edge), and the federation's own lifecycle counters.
func federationMetricsHandler(agg *federate.Aggregator, tr *trace.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		v := agg.View()
		fmt.Fprintln(w, "# HELP trader_federation Fleet-wide counter folds merged from every edge's rollup deltas.")
		fmt.Fprintf(w, "trader_federation_devices %d\n", v.Devices)
		metrics.WritePromCounters(w, "trader_federation", "", v.Counters)
		for _, e := range v.Edges {
			live := 0
			if e.Live {
				live = 1
			}
			label := fmt.Sprintf("edge=%q", e.ID)
			fmt.Fprintf(w, "trader_federation_edge_live{%s} %d\n", label, live)
			fmt.Fprintf(w, "trader_federation_edge_devices{%s} %d\n", label, e.Devices)
			metrics.WritePromCounters(w, "trader_federation_edge", label, e.Counters)
		}
		fmt.Fprintf(w, "trader_federation_adoptions_total %d\n", v.Adoptions)
		if tr != nil {
			fmt.Fprintln(w, "# TYPE trader_trace_forced_overflow_total counter")
			fmt.Fprintf(w, "trader_trace_forced_overflow_total %d\n", tr.ForcedOverflow())
			fmt.Fprintln(w, "# TYPE trader_trace_spans_written_total counter")
			fmt.Fprintf(w, "trader_trace_spans_written_total %d\n", tr.Written())
		}
		writeProcessMetrics(w)
	})
}
