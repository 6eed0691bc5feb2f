package core

import (
	"fmt"
	"slices"

	"trader/internal/wire"
)

// Checkpoint capture/restore for the monitor. CaptureInto flattens the
// comparator state, the activity counters and the spec-model configuration
// into a wire.Checkpoint record; RestoreFrom plays one back into a freshly
// built (and started) monitor. The journal's checkpoint records use this to
// resume replay from a snapshot instead of the beginning of the log.
//
// Encoding conventions inside the record:
//   - Counters carry MonitorStats by field name (fixed order, see statOrder).
//   - Vars carry the spec model's variable scope.
//   - States carry "r:<region>" → current leaf and "h:<region>/<parent>" →
//     last-active child (shallow history), both sorted for determinism.
//   - Obs carry per-observable comparator state keyed by Observable.id().

// statOrder fixes the Counters layout so records are byte-stable across
// runs; it names MonitorStats.fields in order.
var statOrder = [...]string{
	"InputsSeen", "OutputsSeen", "Comparisons", "Deviations",
	"Errors", "ModelErrors", "SilenceScans",
}

// CaptureInto appends the monitor's state to cp. The caller owns plane,
// shard, seq and At; CaptureInto only fills counters, vars, states and
// observables. The monitor must be driven from the kernel goroutine (the
// usual shard-worker discipline); CaptureInto takes no locks.
func (m *Monitor) CaptureInto(cp *wire.Checkpoint) {
	for i, v := range m.stats.fields() {
		cp.Counters = append(cp.Counters, wire.CheckpointCounter{Name: statOrder[i], V: *v})
	}
	for i := range m.obs {
		st := &m.obs[i]
		cp.Obs = append(cp.Obs, wire.CheckpointObs{
			Name:        st.cfg.id(),
			Consecutive: st.consecutive,
			InError:     st.inError,
			EverSeen:    st.everSeen,
			Silenced:    st.silenced,
			LastValue:   st.lastValue,
			LastSeen:    st.lastSeen,
		})
	}
	m.model.Record(func(name string, v float64) {
		cp.Vars = append(cp.Vars, wire.CheckpointVar{Name: name, V: v})
	}, func(key, value string) {
		cp.States = append(cp.States, wire.CheckpointState{Name: key, V: value})
	})
}

// RestoreFrom places a started monitor at the state cp captured: counters,
// per-observable comparator state, and the spec model's configuration,
// history and variables. Restore is absolute (assignment, not accumulation),
// so replaying records that precede the checkpoint and then restoring again
// converges to the same state. Timed model transitions are restored only up
// to the uniform re-anchoring the kernel's Jump provides; see
// statemachine.(*Model).RestoreState.
func (m *Monitor) RestoreFrom(cp *wire.Checkpoint) error {
	if !m.modelStarted {
		return fmt.Errorf("core: RestoreFrom requires a started monitor")
	}
	fields := m.stats.fields()
	for _, c := range cp.Counters {
		if i := slices.Index(statOrder[:], c.Name); i >= 0 {
			*fields[i] = c.V
		}
	}
	for _, o := range cp.Obs {
		st := m.observable(o.Name)
		if st == nil {
			return fmt.Errorf("core: checkpoint observable %q not configured", o.Name)
		}
		st.consecutive = o.Consecutive
		st.inError = o.InError
		st.everSeen = o.EverSeen
		st.silenced = o.Silenced
		st.lastValue = o.LastValue
		st.lastSeen = o.LastSeen
	}
	// Regions absent from the record keep their current leaves; history and
	// variables were captured in full, so both are rebuilt wholesale.
	m.model.Forget()
	for _, v := range cp.Vars {
		if err := m.model.SetVar(v.Name, v.V); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	for _, st := range cp.States {
		if err := m.model.SetState(st.Name, st.V); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	return nil
}
