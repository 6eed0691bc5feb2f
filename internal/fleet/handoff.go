package fleet

import (
	"errors"
	"fmt"

	"trader/internal/wire"
)

// This file is the fleet side of the federation tier's live device
// migration (ARCHITECTURE.md §7.3): capture one device behind its shard
// barrier, hand it off, restore it into another pool with byte-identical
// monitor state. The federation package orchestrates who captures and who
// restores; the pool only guarantees the barrier semantics.

// CaptureDevice snapshots one device's monitor state as a PlaneDevice
// checkpoint, captured on the device's own shard goroutine: every command
// submitted for the shard before the call — including in-flight dispatches —
// is processed first, so the snapshot is a consistent point in the device's
// monitored lifetime. The device keeps running; see HandoffDevice for the
// capture-and-release used by migration.
func (p *Pool) CaptureDevice(id string) (*wire.Checkpoint, error) {
	return p.captureDevice(id, false)
}

// HandoffDevice captures a device exactly like CaptureDevice and removes it
// from the pool in the same shard command, so no frame can be dispatched to
// the device between the snapshot and its departure — the migration
// barrier. The caller must have stopped the device's ingest traffic first
// (disconnect or drain); frames arriving after the handoff are dropped as
// unknown-device, visibly, in Stats.Dropped. The removed device's monitor
// counters leave the rollup with it — the destination's rollup gains
// exactly what this pool's loses, so the federation tier's merged view is
// conserved.
func (p *Pool) HandoffDevice(id string) (*wire.Checkpoint, error) {
	return p.captureDevice(id, true)
}

func (p *Pool) captureDevice(id string, remove bool) (cp *wire.Checkpoint, err error) {
	if serr := p.call(id, func(s *shard) {
		d, ok := s.devices[id]
		if !ok {
			err = fmt.Errorf("fleet: capture of unknown device %q", id)
			return
		}
		if d.Monitor == nil {
			err = fmt.Errorf("fleet: capture of monitorless device %q", id)
			return
		}
		cp = &wire.Checkpoint{
			Plane: wire.PlaneDevice,
			Shard: s.idx,
			At:    d.Kernel.Now(),
		}
		d.Monitor.CaptureInto(cp)
		if d.quarantined {
			cp.Counters = append(cp.Counters, wire.CheckpointCounter{Name: quarantineCounter, V: 1})
		}
		if remove {
			s.remove(p, id, d)
		}
	}); serr != nil {
		return nil, serr
	}
	return cp, err
}

// RestoreHandoff is the destination side of a migration: it builds the
// device through the factory (the single registration path shared with live
// ingestion and replay) and assigns the handed-over checkpoint absolutely —
// clock, counters, comparator state, spec-model configuration, quarantine
// flag. A device already present (a re-delivered handoff) is restored in
// place rather than rejected, keeping the operation idempotent.
func (p *Pool) RestoreHandoff(id string, cp *wire.Checkpoint, factory MonitorFactory) error {
	_, err := p.restoreHandoff(id, cp, remoteFactory(factory, discardSend))
	return err
}

// restoreHandoff additionally reports whether the device had to be built.
func (p *Pool) restoreHandoff(id string, cp *wire.Checkpoint, build Factory) (built bool, err error) {
	err = p.AddDevice(id, SeedOf(id), build)
	if err != nil && !errors.Is(err, ErrDuplicateDevice) {
		return false, fmt.Errorf("fleet: restore handoff %q: %w", id, err)
	}
	return err == nil, p.RestoreDeviceCheckpoint(id, cp)
}

// AdoptBaseline adds another pool's summed traffic counters to this pool's
// rollup, keyed by the source edge so repeated adoption of the same source
// (a replayed adoption record) overwrites instead of double counting, and
// never collides with this pool's own per-shard checkpoint baselines. The
// federation failover path uses it when a surviving edge absorbs a dead
// peer's journal: the peer's devices arrive via RestoreHandoff, its
// pool-level counters via this baseline, and the survivor's rollup then
// accounts for everything the dead edge had done.
func (p *Pool) AdoptBaseline(source string, counters []wire.CheckpointCounter) {
	p.setBaseline("adopt-"+source, baselineFromCounters(counters))
}

// AdoptBaselineRecord renders an AdoptBaseline as the journal record that
// makes it replayable: a TypeHandoff frame whose PlaneFleet checkpoint
// carries the adopted counters and whose Handoff names the source edge.
// Replay re-applies it through AdoptBaseline (see Pool.Replay).
func AdoptBaselineRecord(source, dest string, st Stats) wire.Message {
	return wire.Message{
		Type:    wire.TypeHandoff,
		Handoff: &wire.HandoffRecord{From: source, To: dest},
		Checkpoint: &wire.Checkpoint{
			Plane: wire.PlaneFleet,
			Counters: []wire.CheckpointCounter{
				{Name: "dispatched", V: st.Dispatched},
				{Name: "dropped", V: st.Dropped},
				{Name: "quarantined", V: st.Quarantined},
				{Name: "reports", V: st.Reports},
				{Name: "shed_obs", V: st.ShedObservations},
				{Name: "shed_hb", V: st.ShedHeartbeats},
			},
		},
	}
}
