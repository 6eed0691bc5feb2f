package diagnose

import (
	"fmt"

	"trader/internal/journal"
	"trader/internal/spectrum"
	"trader/internal/wire"
)

// ReplayStats summarises one evidence replay. The counts are the replayed
// engine's own tallies, so after a checkpoint resume they include what the
// checkpoint record carried — they equal the live engine's Rollup.
type ReplayStats struct {
	Snapshots int // labeled snapshot records folded
	Deltas    int // labeled heartbeat-delta records folded
	Windows   int // coverage windows folded
	Skipped   int // evidence with a foreign block count
}

// Offline is the diagnosis plane of an offline replay (journal.Plane): it
// reconstructs a fleet diagnosis from a journal alone, with no fleet
// attached. Every record goes through the same apply path as a live
// engine's boot-time warm start — a PlaneDiagnose checkpoint restores the
// spectrum, the per-device high-water marks and the per-verdict partitions
// absolutely; labeled evidence folds after it, the marks keeping deltas and
// pulled snapshots from double-counting a window. Because folding is an
// order-independent counter sum and the ranking is a pure function of the
// counters, Result — partitions included — formats byte-identically to the
// live engine's at the moment the journal closed.
//
// The block count is taken from the first record the plane owns (the engine
// only journals evidence and checkpoints matching its configured layout);
// evidence with a different count is counted in Skipped. A zero Coeff picks
// Ochiai.
type Offline struct {
	Coeff spectrum.Coefficient

	eng     *Engine // loop-less: folded synchronously on the replay goroutine
	skipped int
}

// Apply folds one journal record.
func (o *Offline) Apply(m wire.Message) error {
	blocks, mine := replayBlocks(m)
	if !mine {
		return nil
	}
	if o.eng == nil && blocks > 0 {
		o.eng = newEngine(nil, Options{Coeff: o.Coeff, Blocks: blocks})
	}
	if o.eng == nil || (blocks != o.eng.opts.Blocks && m.Type != wire.TypeCheckpoint) {
		o.skipped++
		return nil
	}
	return o.eng.apply(m)
}

// Settle has nothing to drain: Apply folds synchronously.
func (o *Offline) Settle() error { return nil }

// Result returns the reconstructed diagnosis with the top n suspects, or
// nil when the journal held no diagnosis evidence.
func (o *Offline) Result(n int) (*Result, ReplayStats) {
	st := ReplayStats{Skipped: o.skipped}
	if o.eng == nil {
		return nil, st
	}
	ro := o.eng.rollup()
	st.Snapshots, st.Deltas = int(ro.Snapshots), int(ro.Deltas)
	st.Windows = int(ro.FailWindows + ro.PassWindows)
	return buildFolderResult(o.eng.fold, o.eng.layout, o.eng.coeff, n), st
}

// Replay reconstructs a fleet diagnosis offline from a journal: the replay
// driver run with an Offline plane as its only plane. A journal with no
// evidence yields (nil, nil).
func Replay(r *journal.Reader, coeff spectrum.Coefficient, topN int) (*Result, ReplayStats, error) {
	o := &Offline{Coeff: coeff}
	if err := journal.Replay(r, o); err != nil {
		return nil, ReplayStats{}, fmt.Errorf("diagnose: replay: %w", err)
	}
	res, st := o.Result(topN)
	return res, st, nil
}
