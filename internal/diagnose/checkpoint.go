package diagnose

import (
	"fmt"
	"sort"

	"trader/internal/fleet"
	"trader/internal/spectrum"
	"trader/internal/wire"
)

// Checkpoint capture/restore for the diagnosis plane: the fleet spectrum's
// per-block counters, the per-device fold high-water marks (so re-seen
// evidence still folds exactly once) and the engine tally, flattened into
// one PlaneDiagnose record riding in shard 0's checkpoint batch. Like the
// control plane's, capture runs on the engine goroutine rather than under
// the journal locks — that goroutine appends evidence to the journal — so
// a snapshot accepted between the plane capture and the fleet freeze folds
// twice as far as the tally is concerned but never into the spectrum (the
// high-water marks gate it); the next checkpoint squares the books.

// counterTable fixes the Counters layout of a PlaneDiagnose record: each
// name next to the word it is captured from and restored into. dropped
// stands in for the mailbox's shed counter. Engine-goroutine only.
func (e *Engine) counterTable(dropped *uint64) []fleet.CounterRef {
	t := &e.tally
	return []fleet.CounterRef{
		{Name: "Escalations", V: &t.Escalations}, {Name: "Episodes", V: &t.Episodes},
		{Name: "Coalesced", V: &t.Coalesced},
		{Name: "Requests", V: &t.Requests}, {Name: "RequestFailures", V: &t.RequestFailures},
		{Name: "Snapshots", V: &t.Snapshots}, {Name: "Deltas", V: &t.Deltas},
		{Name: "FailWindows", V: &t.FailWindows}, {Name: "PassWindows", V: &t.PassWindows},
		{Name: "SkippedWindows", V: &t.SkippedWindows},
		{Name: "Unsolicited", V: &t.Unsolicited}, {Name: "Malformed", V: &t.Malformed},
		{Name: "Expired", V: &t.Expired}, {Name: "JournalErrors", V: &t.JournalErrors},
		{Name: "Dropped", V: dropped},
	}
}

// Checkpoint snapshots the engine into a PlaneDiagnose checkpoint record: a
// barrier like Result.
func (e *Engine) Checkpoint() (m wire.Message) {
	e.box.Do(func() { m = e.checkpoint() })
	return m
}

// checkpoint builds the record. Engine-goroutine only.
func (e *Engine) checkpoint() wire.Message {
	cp := &wire.Checkpoint{Plane: wire.PlaneDiagnose, Blocks: e.opts.Blocks}
	cells, nFail, nPass := e.spectra.Export()
	cp.NFail, cp.NPass = nFail, nPass
	for _, c := range cells {
		cp.Cells = append(cp.Cells, wire.CheckpointCell{Block: c.Block, Fail: c.Fail, Pass: c.Pass})
	}
	dropped := e.box.Dropped()
	cp.Counters = fleet.CaptureCounters(e.counterTable(&dropped))
	// Per-device stats: the fold high-water mark, plus a flags word (bit 0:
	// the device is in the continuous-mode suspect set). The union with the
	// suspect set matters: a device escalated before any of its evidence
	// folded has a flag to persist but no mark yet.
	union := make(map[string]bool, len(e.fold.next)+len(e.suspects))
	for id := range e.fold.next {
		union[id] = true
	}
	for id := range e.suspects {
		union[id] = true
	}
	ids := make([]string, 0, len(union))
	for id := range union {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		stats := []uint64{e.fold.next[id]}
		if e.suspects[id] {
			stats = append(stats, 1)
		}
		cp.Devices = append(cp.Devices, wire.CheckpointDevice{ID: id, Stats: stats})
	}
	// Per-verdict partitions (continuous multi-fault split), each exported
	// sparsely like the merged spectrum above.
	pids := make([]string, 0, len(e.fold.parts))
	for id := range e.fold.parts {
		pids = append(pids, id)
	}
	sort.Strings(pids)
	for _, id := range pids {
		cells, nFail, nPass := e.fold.parts[id].Export()
		part := wire.CheckpointPart{ID: id, NFail: nFail, NPass: nPass}
		for _, c := range cells {
			part.Cells = append(part.Cells, wire.CheckpointCell{Block: c.Block, Fail: c.Fail, Pass: c.Pass})
		}
		cp.Parts = append(cp.Parts, part)
	}
	return wire.Message{Type: wire.TypeCheckpoint, Checkpoint: cp}
}

// restoreCheckpoint plays a PlaneDiagnose record back: spectrum cells, fold
// high-water marks and tally are assigned absolutely, so evidence replayed
// before the record (older streams) is simply superseded and restoring a
// newer record wins. Engine-goroutine only.
func (e *Engine) restoreCheckpoint(cp *wire.Checkpoint) error {
	if cp.Blocks != e.opts.Blocks {
		return fmt.Errorf("diagnose: checkpoint layout has %d blocks, engine %d", cp.Blocks, e.opts.Blocks)
	}
	cells := make([]spectrum.Cell, len(cp.Cells))
	for i, c := range cp.Cells {
		cells[i] = spectrum.Cell{Block: c.Block, Fail: c.Fail, Pass: c.Pass}
	}
	if err := e.spectra.Import(cells, cp.NFail, cp.NPass); err != nil {
		return err
	}
	e.fold.next = make(map[string]uint64, len(cp.Devices))
	e.suspects = make(map[string]bool)
	for _, d := range cp.Devices {
		// Stats: [fold high-water mark] or [mark, flags] (bit 0: suspect;
		// single-element records predate the continuous plane).
		if len(d.Stats) < 1 || len(d.Stats) > 2 {
			return fmt.Errorf("diagnose: device %q checkpoint has %d stats, want 1 or 2", d.ID, len(d.Stats))
		}
		e.fold.next[d.ID] = d.Stats[0]
		if len(d.Stats) == 2 && d.Stats[1]&1 != 0 {
			e.suspects[d.ID] = true
		}
	}
	// Partitions are restored absolutely too: drop whatever partial split
	// replayed before the record and import the checkpointed one.
	e.fold.parts = make(map[string]*spectrum.Spectra, len(cp.Parts))
	for _, p := range cp.Parts {
		pcells := make([]spectrum.Cell, len(p.Cells))
		for i, c := range p.Cells {
			pcells[i] = spectrum.Cell{Block: c.Block, Fail: c.Fail, Pass: c.Pass}
		}
		part := e.fold.part(p.ID)
		if err := part.Import(pcells, p.NFail, p.NPass); err != nil {
			return fmt.Errorf("diagnose: partition %q: %w", p.ID, err)
		}
	}
	dropped := e.box.Dropped()
	if err := fleet.RestoreCounters(e.counterTable(&dropped), cp.Counters); err != nil {
		return fmt.Errorf("diagnose: %w", err)
	}
	e.box.SetDropped(dropped)
	return nil
}
