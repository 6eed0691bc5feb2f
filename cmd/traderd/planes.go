// The plane contract as the daemon consumes it, and the one boot pass that
// recovers every plane from the journal. ARCHITECTURE.md §3.3 (recovery
// order) and §3.6 (plane contract) are the normative spec.

package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/wire"
)

// plane is one optional plane riding on the fleet pool — the recovery
// controller, the diagnosis engine. runIngest registers the planes its
// flags ask for once and every cross-cutting concern loops over the list:
// boot recovery, checkpoint capture, /metrics, the rollup log, the edge
// uplink sample and the incident bundle's counters.
type plane interface {
	// Apply and Settle recover the plane from the journal, in the one pass
	// all planes share; Recovered counts the records it restored from.
	journal.Plane
	Recovered() int
	// Checkpoint captures the plane into the record that rides in shard
	// 0's checkpoint batch (fleet.Checkpointer.Planes).
	Checkpoint() wire.Message
	// Counters adds the plane's rollup, as named cumulative counters, to
	// the set an edge streams upstream and an incident bundle freezes.
	Counters(map[string]int64)
	// WriteMetrics writes the plane's /metrics families.
	WriteMetrics(io.Writer)
	// Summary renders the plane's rollup as the key/value pairs of one log
	// record, periodic or final.
	Summary(final bool) []any
}

// journalSink is the journal handle planes are built with. They must exist
// before the boot pass — it restores into them — while the journal opens
// for writing only after it (§3.3), so the handle is bound late. Nothing
// may be appended in between: a record provoked by replayed history would
// duplicate what the journal already holds, and the sink refuses it.
type journalSink struct{ w *journal.Sharded }

func (s *journalSink) Append(m wire.Message) error {
	if s.w == nil {
		return errors.New("journal not open for writing: append during boot replay refused")
	}
	return s.w.Append(m)
}

// profileMarker is the meta record traderd appends when it opens a journal
// for writing: a Hello frame from "traderd" itself naming the -suo monitor
// profile the frames are observed under. The pool's replay skips Hello
// records, so the marker costs nothing there — but profileGate reads it
// back so a journal written under one profile cannot be silently replayed
// into monitors built from another, which would produce bogus verdicts.
func profileMarker(suo string) wire.Message {
	return wire.Message{Type: wire.TypeHello, SUO: "traderd", Target: suo}
}

// profileGate is the pool's replay plane behind a profile check: it
// compares the journal's recorded profile (if any — the journal may be
// empty, torn at the first record, or from a build without markers)
// against the -suo profile about to monitor its frames. The profile
// reaches the journal two ways: the Hello marker traderd appends on every
// boot, and — once a checkpoint has truncated the marker away — the Profile
// tag riding on each Final shard-plane checkpoint record. The check covers
// the journal head: past checkpoint records, up to the marker or the first
// frame. Those head records are held back from the pool until the check has
// passed, so a mismatch is refused as a mismatch — before a device
// checkpoint of the wrong profile fails to restore with a stranger error.
type profileGate struct {
	dir, suo string
	pool     *fleet.Replayer
	held     []wire.Message
	open     bool
}

func (g *profileGate) mismatch(written string) error {
	if _, ok := profiles[written]; !ok {
		return fmt.Errorf("journal %s was written under -suo %s, a profile this build does not know (known: %s)",
			g.dir, written, profileNames())
	}
	return fmt.Errorf("journal %s was written under -suo %s, but -suo %s is in effect; pass -suo %s to replay it faithfully",
		g.dir, written, g.suo, written)
}

func (g *profileGate) Apply(m wire.Message) error {
	if g.open {
		return g.pool.Apply(m)
	}
	switch {
	case m.Type == wire.TypeCheckpoint:
		if cp := m.Checkpoint; cp != nil && cp.Profile != "" && cp.Profile != g.suo {
			return g.mismatch(cp.Profile)
		}
		g.held = append(g.held, m)
		return nil
	case m.Type == wire.TypeHello && m.SUO == "traderd" && m.Target != "" && m.Target != g.suo:
		return g.mismatch(m.Target)
	}
	// The marker, or the first real frame of a markerless journal from an
	// old build: the head is vetted.
	if err := g.release(); err != nil {
		return err
	}
	return g.pool.Apply(m)
}

// release opens the gate, handing the held head records to the pool.
func (g *profileGate) release() error {
	g.open = true
	for _, m := range g.held {
		if err := g.pool.Apply(m); err != nil {
			return err
		}
	}
	g.held = nil
	return nil
}

// Settle releases a head the journal ended inside (a checkpoint batch with
// nothing after it), then settles the pool.
func (g *profileGate) Settle() error {
	if err := g.release(); err != nil {
		return err
	}
	return g.pool.Settle()
}

// recoverJournal rebuilds state from the journal at dir — the one recovery
// sequence shared by -replay (offline post-mortem) and -journal (recovery
// on daemon boot): a single pass of the replay driver fans every record to
// the pool (behind the profile check) and to each rider, then settles them
// in that order, and a summary with the torn-tail note is logged. It must
// run before the directory is opened for writing, which repairs the torn
// tails and appends the next marker.
func recoverJournal(dir, suo string, pool *fleet.Pool, factory fleet.MonitorFactory, riders ...journal.Plane) (fleet.ReplayStats, error) {
	rp := pool.Replayer(factory)
	r, err := journal.OpenReader(dir)
	if err != nil {
		return rp.Stats, err
	}
	defer r.Close()
	start := time.Now()
	planes := append([]journal.Plane{&profileGate{dir: dir, suo: suo, pool: rp}}, riders...)
	if err := journal.Replay(r, planes...); err != nil {
		return rp.Stats, err
	}
	if st := rp.Stats; st.Frames+st.Heartbeats+st.Checkpoints > 0 {
		note := ""
		if r.Torn() {
			note = " (torn tail record discarded — crash mid-append)"
		}
		if n := r.SegmentsSkipped(); n > 0 {
			note += fmt.Sprintf(" (%d fully-checkpointed segments skipped)", n)
		}
		slog.Info("journal replayed", "component", "journal",
			"stats", fmt.Sprint(st), "dir", dir, "took", time.Since(start).String(), "note", note)
	}
	return rp.Stats, nil
}
