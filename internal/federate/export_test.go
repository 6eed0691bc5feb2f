package federate

// Owners returns the range map's current assignment, range index → edge ID.
func (a *Aggregator) Owners() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.init()
	out := make([]string, a.Ranges)
	for r := range out {
		out[r] = a.rmap.Owner(r)
	}
	return out
}
