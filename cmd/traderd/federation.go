package main

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"trader/internal/daemon"
	"trader/internal/federate"
	"trader/internal/journal"
	"trader/internal/metrics"
	"trader/internal/trace"
)

// runAggregate is federation-aggregator mode: the -listen addresses accept
// edge uplinks (RoleEdge Hellos) instead of devices, the merged fleet-wide
// view is logged every -stats-seconds and served on -metrics, and -journal
// persists the ownership record so a restarted aggregator recovers its
// range map (credited totals re-feed themselves through resume baselines).
func runAggregate(f flags) error {
	// The aggregator traces too: the receive side of each uplink span lands
	// here, so an exemplar surfaced on the merged view resolves to the span
	// chain that began on an edge's ingest path.
	tracer := trace.New(trace.Options{Shards: 1, SampleN: f.TraceSample})
	agg := &federate.Aggregator{
		Ranges:   f.ranges,
		Failover: time.Duration(f.failoverSeconds) * time.Second,
		Logf:     daemon.Logf("aggregator"),
		Tracer:   tracer,
	}
	if journalDir := f.Journal; journalDir != "" {
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
	if f.Metrics != "" {
		defer daemon.ServeMetrics(f.Metrics, federationMetrics(agg), tracer, f.Pprof)()
		slog.Info("serving merged fleet view", "component", "aggregator",
			"addr", f.Metrics, "pprof", f.Pprof)
	}

	// The aggregator keeps the listeners it serves and closes them itself.
	_, errc, err := daemon.Listen(f.Listen, func(addr string) {
		slog.Info("aggregating edge uplinks", "component", "aggregator",
			"addr", addr, "ranges", f.ranges, "failover_seconds", f.failoverSeconds)
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
	sig, err := awaitStop(f.statsSeconds, errc, func() { logView("federation rollup") })
	if err != nil {
		agg.Close()
		return err
	}
	slog.Info("stopping aggregator", "component", "aggregator", "signal", sig.String())
	agg.Close()
	logView("final federation rollup")
	return nil
}

// federationMetrics renders the aggregator's merged view as Prometheus
// text: the fleet-wide counter folds, the per-edge accounts (labelled by
// edge), and the federation's own lifecycle counters.
func federationMetrics(agg *federate.Aggregator) func(io.Writer) {
	return func(w io.Writer) {
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
	}
}
