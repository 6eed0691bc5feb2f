package control

import (
	"fmt"
	"io"

	"trader/internal/fmea"
	"trader/internal/sim"
)

// Rollup is the control plane's fleet-level accounting: what the fleet
// reported, how it was classified, what the ladder did about it, and what
// the recovery manager accounted for it.
type Rollup struct {
	// Reports processed; Dropped were shed on inbox overflow.
	Reports uint64
	Dropped uint64
	// Per-class report counts.
	Deviations uint64
	Silences   uint64
	Runaways   uint64
	// Per-rung action counts.
	Tolerated   uint64
	Resets      uint64
	Restarts    uint64
	Quarantines uint64
	// Absorbed reports arrived while a restart was already in flight;
	// AfterQuarantine reports came from retired devices; Deescalations are
	// cooldown drops back to the ladder's bottom (healed episodes).
	Absorbed        uint64
	AfterQuarantine uint64
	Deescalations   uint64
	// Acks counts control-command acknowledgements from devices;
	// PushFailures counts wire pushes that could not be delivered;
	// JournalErrors counts actions whose write-ahead record failed.
	Acks          uint64
	PushFailures  uint64
	JournalErrors uint64
	// Devices have reported at least once; Quarantined are out of service.
	Devices     int
	Quarantined int
	// RestartsCompleted and Downtime come from the recovery.Manager: each
	// completed restart contributes exactly the policy's RestartLatency.
	RestartsCompleted uint64
	Downtime          sim.Time
	// Now is the controller's virtual clock.
	Now sim.Time
}

func (ro Rollup) String() string {
	return fmt.Sprintf(
		"%d reports (%d deviation, %d silence, %d runaway, %d dropped) → %d tolerated, %d resets, %d restarts, %d quarantines; %d acks; %d/%d devices quarantined, downtime %s",
		ro.Reports, ro.Deviations, ro.Silences, ro.Runaways, ro.Dropped,
		ro.Tolerated, ro.Resets, ro.Restarts, ro.Quarantines, ro.Acks,
		ro.Quarantined, ro.Devices, ro.Downtime)
}

// Rollup snapshots the controller's accounting: a barrier, reports enqueued
// before it are reflected.
func (c *Controller) Rollup() (ro Rollup) {
	c.box.Do(func() { ro = c.rollup() })
	return ro
}

// rollup builds the Rollup. Controller-goroutine only.
func (c *Controller) rollup() Rollup {
	ro := Rollup{
		Reports:         c.tally.Reports,
		Dropped:         c.box.Dropped(),
		Deviations:      c.tally.Classes[ClassDeviation],
		Silences:        c.tally.Classes[ClassSilence],
		Runaways:        c.tally.Classes[ClassRunaway],
		Tolerated:       c.tally.Rungs[RungTolerate],
		Resets:          c.tally.Rungs[RungReset],
		Restarts:        c.tally.Rungs[RungRestart],
		Quarantines:     c.tally.Rungs[RungQuarantine],
		Absorbed:        c.tally.Absorbed,
		AfterQuarantine: c.tally.AfterQuarantine,
		Deescalations:   c.tally.Deescalations,
		Acks:            c.tally.Acks,
		PushFailures:    c.tally.PushFailures,
		JournalErrors:   c.tally.JournalErrors,
		Devices:         len(c.devs),

		RestartsCompleted: c.mgr.RecoveriesCompleted,
		Now:               c.kernel.Now(),
	}
	for _, d := range c.devs {
		if d.quarantined {
			ro.Quarantined++
		}
	}
	for _, name := range c.mgr.Units() {
		ro.Downtime += c.mgr.Unit(name).Downtime
	}
	return ro
}

// The reporting half of the plane contract (ARCHITECTURE.md §3.6): the
// controller's rollup as upstream counters, /metrics families and a log
// summary. Each takes its own Rollup barrier.

// Counters adds the rollup counters an edge streams upstream (§7.2) to out.
func (c *Controller) Counters(out map[string]int64) {
	ro := c.Rollup()
	out["recovery_reports"] = int64(ro.Reports)
	out["recovery_resets"] = int64(ro.Resets)
	out["recovery_restarts"] = int64(ro.Restarts)
	out["recovery_quarantines"] = int64(ro.Quarantines)
}

// WriteMetrics writes the control plane's /metrics families (§6.1).
func (c *Controller) WriteMetrics(w io.Writer) {
	ro := c.Rollup()
	fmt.Fprintln(w, "# HELP trader_recovery_reports_total Error reports the recovery controller processed, by fault class.")
	fmt.Fprintln(w, "# TYPE trader_recovery_reports_total counter")
	fmt.Fprintf(w, "trader_recovery_reports_total{class=%q} %d\n", ClassDeviation.String(), ro.Deviations)
	fmt.Fprintf(w, "trader_recovery_reports_total{class=%q} %d\n", ClassSilence.String(), ro.Silences)
	fmt.Fprintf(w, "trader_recovery_reports_total{class=%q} %d\n", ClassRunaway.String(), ro.Runaways)
	fmt.Fprintln(w, "# HELP trader_recovery_actions_total Escalation-ladder actions taken, by rung.")
	fmt.Fprintln(w, "# TYPE trader_recovery_actions_total counter")
	fmt.Fprintf(w, "trader_recovery_actions_total{rung=%q} %d\n", RungTolerate.String(), ro.Tolerated)
	fmt.Fprintf(w, "trader_recovery_actions_total{rung=%q} %d\n", RungReset.String(), ro.Resets)
	fmt.Fprintf(w, "trader_recovery_actions_total{rung=%q} %d\n", RungRestart.String(), ro.Restarts)
	fmt.Fprintf(w, "trader_recovery_actions_total{rung=%q} %d\n", RungQuarantine.String(), ro.Quarantines)
	fmt.Fprintln(w, "# TYPE trader_recovery_quarantined gauge")
	fmt.Fprintf(w, "trader_recovery_quarantined %d\n", ro.Quarantined)
	fmt.Fprintln(w, "# HELP trader_recovery_dropped_total Error reports shed on controller-inbox overflow.")
	fmt.Fprintln(w, "# TYPE trader_recovery_dropped_total counter")
	fmt.Fprintf(w, "trader_recovery_dropped_total %d\n", ro.Dropped)
	fmt.Fprintln(w, "# TYPE trader_recovery_journal_errors_total counter")
	fmt.Fprintf(w, "trader_recovery_journal_errors_total %d\n", ro.JournalErrors)
}

// Summary renders the rollup as the key/value pairs of one structured log
// record: the rollup line plus, once anything has been reported, the FMEA
// class currently threatening user-perceived reliability most. The final
// summary of a draining daemon is no different.
func (c *Controller) Summary(final bool) []any {
	ro := c.Rollup()
	kv := []any{"component", "recovery", "rollup", ro.String()}
	if crit := Criticality(ro); len(crit) > 0 {
		kv = append(kv, "critical_class", crit[0].Component, "rpn", crit[0].RPN)
	}
	return kv
}

// Criticality builds an FMEA worksheet over the fault classes the fleet has
// exhibited (Sect. 4.7's architecture-level FMEA, fed by runtime occurrence
// instead of design-time estimates): occurrence is each class's share of
// the processed reports; severity and detectability characterise the class
// — deviations are well-detected and moderately severe, silence means a
// component is down, a runaway device is both severe and harder to pin.
// Entries come back sorted by risk priority; the top entry is the failure
// class currently threatening user-perceived reliability most. Nil when
// nothing has been reported.
func Criticality(ro Rollup) []fmea.Entry {
	total := ro.Deviations + ro.Silences + ro.Runaways
	if total == 0 {
		return nil
	}
	occ := func(n uint64) float64 { return float64(n) / float64(total) }
	a := fmea.NewArchitecture()
	a.AddComponent(fmea.Component{Name: ClassDeviation.String(), UserFacing: true, Modes: []fmea.FailureMode{
		{Name: string(ClassDeviation.Kind()), Occurrence: occ(ro.Deviations), LocalSeverity: 0.5, Detectability: 0.9},
	}})
	a.AddComponent(fmea.Component{Name: ClassSilence.String(), UserFacing: true, Modes: []fmea.FailureMode{
		{Name: string(ClassSilence.Kind()), Occurrence: occ(ro.Silences), LocalSeverity: 0.8, Detectability: 0.6},
	}})
	a.AddComponent(fmea.Component{Name: ClassRunaway.String(), UserFacing: true, Modes: []fmea.FailureMode{
		{Name: string(ClassRunaway.Kind()), Occurrence: occ(ro.Runaways), LocalSeverity: 0.9, Detectability: 0.7},
	}})
	return a.Analyze()
}
