package main

import (
	"fmt"
	"net/http"

	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/trace"
)

// metricsHandler renders the daemon's latency-SLO plane as Prometheus text
// (exposition format 0.0.4, stdlib only): the ingest-to-dispatch latency
// histogram — aggregate and per shard, with the p50/p99/p999 the SLO is
// stated over — next to the shed tiers, the flow-control counters, the
// fleet rollup, every registered plane's own families (recovery,
// diagnosis), the journal's group-commit ratio, the trace plane's health
// (forced-ring overflow, latency exemplars) and the process self-metrics.
// One scrape answers "is the fleet inside its SLO, and if not, what is it
// shedding?".
func metricsHandler(pool *fleet.Pool, srv *fleet.Server, jw *journal.Sharded, planes []plane, tr *trace.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

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

		cs := srv.Stats()
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

		for _, p := range planes {
			p.WriteMetrics(w)
		}

		if jw != nil {
			js := jw.Stats()
			fmt.Fprintf(w, "trader_journal_appends_total %d\n", js.Appends)
			fmt.Fprintf(w, "trader_journal_fsyncs_total %d\n", js.Syncs)
			fmt.Fprintf(w, "trader_journal_segments %d\n", js.Segments)
		}

		if tr != nil {
			writeTraceMetrics(w, tr, pool)
		}
		writeProcessMetrics(w)
	})
}
