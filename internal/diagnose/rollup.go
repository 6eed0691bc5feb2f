package diagnose

import (
	"fmt"
	"io"
)

// Rollup is the diagnosis plane's accounting: what escalated, what was
// pulled, what evidence arrived and how it folded.
type Rollup struct {
	// Escalations observed; Episodes opened (pull rounds); Coalesced
	// escalations were absorbed by an episode already in flight.
	Escalations uint64
	Episodes    uint64
	Coalesced   uint64
	// Requests pushed; RequestFailures could not be delivered; Pending
	// pulls still await their snapshot.
	Requests        uint64
	RequestFailures uint64
	Pending         int
	// Snapshots folded and heartbeat spectrum deltas accepted (continuous
	// mode), split into fail/pass coverage windows; Skipped windows were
	// not folded (no coverage, still open, or already folded by an earlier
	// pull or delta of the same device).
	Snapshots      uint64
	Deltas         uint64
	FailWindows    uint64
	PassWindows    uint64
	SkippedWindows uint64
	// Unsolicited snapshots came from devices never asked; Malformed ones
	// carried a foreign block count; Expired pulls were written off
	// unanswered; JournalErrors count evidence whose write-ahead record
	// failed; Dropped items were shed on inbox overflow.
	Unsolicited   uint64
	Malformed     uint64
	Expired       uint64
	JournalErrors uint64
	Dropped       uint64
	// Transactions and Failures are the folded spectra totals.
	Transactions int
	Failures     int
}

func (ro Rollup) String() string {
	return fmt.Sprintf(
		"%d escalations → %d episodes (%d coalesced), %d pulls (%d failed, %d pending, %d expired) → %d snapshots + %d deltas: %d fail + %d pass windows (%d skipped, %d unsolicited, %d malformed, %d dropped, %d journal errors)",
		ro.Escalations, ro.Episodes, ro.Coalesced, ro.Requests, ro.RequestFailures, ro.Pending, ro.Expired,
		ro.Snapshots, ro.Deltas, ro.FailWindows, ro.PassWindows, ro.SkippedWindows, ro.Unsolicited, ro.Malformed,
		ro.Dropped, ro.JournalErrors)
}

// Rollup snapshots the engine's accounting: a barrier, items enqueued before
// it are reflected.
func (e *Engine) Rollup() (ro Rollup) {
	e.box.Do(func() { ro = e.rollup() })
	return ro
}

// rollup builds the Rollup. Engine-goroutine only.
func (e *Engine) rollup() Rollup {
	return Rollup{
		Escalations:     e.tally.Escalations,
		Episodes:        e.tally.Episodes,
		Coalesced:       e.tally.Coalesced,
		Requests:        e.tally.Requests,
		RequestFailures: e.tally.RequestFailures,
		Pending:         len(e.pending),
		Snapshots:       e.tally.Snapshots,
		Deltas:          e.tally.Deltas,
		FailWindows:     e.tally.FailWindows,
		PassWindows:     e.tally.PassWindows,
		SkippedWindows:  e.tally.SkippedWindows,
		Unsolicited:     e.tally.Unsolicited,
		Malformed:       e.tally.Malformed,
		Expired:         e.tally.Expired,
		JournalErrors:   e.tally.JournalErrors,
		Dropped:         e.box.Dropped(),
		Transactions:    e.spectra.Transactions(),
		Failures:        e.spectra.Failures(),
	}
}

// The reporting half of the plane contract (ARCHITECTURE.md §3.6): the
// engine's rollup as upstream counters, /metrics families and a log
// summary. Each takes its own barrier.

// Counters adds the rollup counters an edge streams upstream (§7.2) to out.
func (e *Engine) Counters(out map[string]int64) {
	ro := e.Rollup()
	out["diagnosis_snapshots"] = int64(ro.Snapshots)
	out["diagnosis_fail_windows"] = int64(ro.FailWindows)
	out["diagnosis_pass_windows"] = int64(ro.PassWindows)
}

// WriteMetrics writes the diagnosis plane's /metrics families (§6.1).
func (e *Engine) WriteMetrics(w io.Writer) {
	ro := e.Rollup()
	fmt.Fprintln(w, "# HELP trader_diagnose_dropped_total Diagnosis items shed on engine-inbox overflow. Nonzero means evidence was lost before folding.")
	fmt.Fprintln(w, "# TYPE trader_diagnose_dropped_total counter")
	fmt.Fprintf(w, "trader_diagnose_dropped_total %d\n", ro.Dropped)
	fmt.Fprintf(w, "trader_diagnose_episodes_total %d\n", ro.Episodes)
	fmt.Fprintf(w, "trader_diagnose_snapshots_total %d\n", ro.Snapshots)
	fmt.Fprintf(w, "trader_diagnose_deltas_total %d\n", ro.Deltas)
	fmt.Fprintln(w, "# TYPE trader_diagnose_windows_total counter")
	fmt.Fprintf(w, "trader_diagnose_windows_total{label=\"fail\"} %d\n", ro.FailWindows)
	fmt.Fprintf(w, "trader_diagnose_windows_total{label=\"pass\"} %d\n", ro.PassWindows)
	fmt.Fprintf(w, "trader_diagnose_malformed_total %d\n", ro.Malformed)
	fmt.Fprintf(w, "trader_diagnose_journal_errors_total %d\n", ro.JournalErrors)
}

// Summary renders the rollup as the key/value pairs of one structured log
// record: the rollup line plus, once a failure has folded, the top suspect
// block and the FMEA component verdict — or, in the final summary of a
// draining daemon, the full ranking.
func (e *Engine) Summary(final bool) []any {
	ro := e.Rollup()
	kv := []any{"component", "diagnosis", "rollup", ro.String()}
	if ro.Failures == 0 {
		return kv
	}
	if final {
		return append(kv, "ranking", e.Result(10).String())
	}
	if res := e.Result(3); len(res.Ranking) > 0 && len(res.Verdict) > 0 {
		top := res.Ranking[0]
		kv = append(kv, "block", top.Block, "suspect_component", top.Component,
			"score", top.Score, "verdict", res.Verdict[0].Component)
	}
	return kv
}
