package core

import "sort"

// ObservableNames lists configured observables, sorted.
func (m *Monitor) ObservableNames() []string {
	out := make([]string, 0, len(m.obs))
	for i := range m.obs {
		out = append(out, m.obs[i].cfg.id())
	}
	sort.Strings(out)
	return out
}
