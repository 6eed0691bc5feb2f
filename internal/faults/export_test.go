package faults

import "trader/internal/sim"

// ActiveAt reports (from history) whether fault id was active at time t.
// Usable after a run for ground-truth scoring.
func (i *Injector) ActiveAt(id string, t sim.Time) bool {
	for _, a := range i.history {
		if a.Fault.ID != id {
			continue
		}
		if t >= a.From && (a.To == 0 || t < a.To) {
			return true
		}
	}
	return false
}
