package core

import (
	"fmt"
	"sort"
	"strings"

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

// statOrder fixes the Counters layout so records are byte-stable across runs.
var statOrder = [...]string{
	"InputsSeen", "OutputsSeen", "Comparisons", "Deviations",
	"Errors", "ModelErrors", "SilenceScans",
}

// CaptureInto appends the monitor's state to cp. The caller owns plane,
// shard, seq and At; CaptureInto only fills counters, vars, states and
// observables. The monitor must be driven from the kernel goroutine (the
// usual shard-worker discipline); CaptureInto takes no locks.
func (m *Monitor) CaptureInto(cp *wire.Checkpoint) {
	s := m.stats
	for _, name := range statOrder {
		var v uint64
		switch name {
		case "InputsSeen":
			v = s.InputsSeen
		case "OutputsSeen":
			v = s.OutputsSeen
		case "Comparisons":
			v = s.Comparisons
		case "Deviations":
			v = s.Deviations
		case "Errors":
			v = s.Errors
		case "ModelErrors":
			v = s.ModelErrors
		case "SilenceScans":
			v = s.SilenceScans
		}
		cp.Counters = append(cp.Counters, wire.CheckpointCounter{Name: name, V: v})
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
	snap := m.model.CaptureState()
	vars := make([]string, 0, len(snap.Vars))
	for n := range snap.Vars {
		vars = append(vars, n)
	}
	sort.Strings(vars)
	for _, n := range vars {
		cp.Vars = append(cp.Vars, wire.CheckpointVar{Name: n, V: snap.Vars[n]})
	}
	regs := make([]string, 0, len(snap.Current))
	for r := range snap.Current {
		regs = append(regs, r)
	}
	sort.Strings(regs)
	for _, r := range regs {
		cp.States = append(cp.States, wire.CheckpointState{Name: "r:" + r, V: snap.Current[r]})
		parents := make([]string, 0, len(snap.History[r]))
		for p := range snap.History[r] {
			parents = append(parents, p)
		}
		sort.Strings(parents)
		for _, p := range parents {
			cp.States = append(cp.States, wire.CheckpointState{
				Name: "h:" + r + "/" + p, V: snap.History[r][p],
			})
		}
	}
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
	for _, c := range cp.Counters {
		switch c.Name {
		case "InputsSeen":
			m.stats.InputsSeen = c.V
		case "OutputsSeen":
			m.stats.OutputsSeen = c.V
		case "Comparisons":
			m.stats.Comparisons = c.V
		case "Deviations":
			m.stats.Deviations = c.V
		case "Errors":
			m.stats.Errors = c.V
		case "ModelErrors":
			m.stats.ModelErrors = c.V
		case "SilenceScans":
			m.stats.SilenceScans = c.V
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
	// Seed the snapshot from the model's current state so regions absent
	// from the record keep their post-Start defaults, then overwrite from
	// the checkpoint. History and variables were captured in full, so both
	// are rebuilt wholesale.
	snap := m.model.CaptureState()
	for r := range snap.History {
		snap.History[r] = map[string]string{}
	}
	snap.Vars = make(map[string]float64, len(cp.Vars))
	for _, v := range cp.Vars {
		snap.Vars[v.Name] = v.V
	}
	for _, st := range cp.States {
		switch {
		case strings.HasPrefix(st.Name, "r:"):
			reg := st.Name[len("r:"):]
			if _, ok := snap.Current[reg]; !ok {
				return fmt.Errorf("core: checkpoint region %q not in model", reg)
			}
			snap.Current[reg] = st.V
		case strings.HasPrefix(st.Name, "h:"):
			rest := st.Name[len("h:"):]
			i := strings.IndexByte(rest, '/')
			if i < 0 {
				return fmt.Errorf("core: malformed checkpoint history key %q", st.Name)
			}
			reg, parent := rest[:i], rest[i+1:]
			h, ok := snap.History[reg]
			if !ok {
				return fmt.Errorf("core: checkpoint region %q not in model", reg)
			}
			h[parent] = st.V
		default:
			return fmt.Errorf("core: unknown checkpoint state key %q", st.Name)
		}
	}
	m.model.RestoreState(snap)
	return nil
}
