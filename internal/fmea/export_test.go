package fmea

// Components returns component names in insertion order.
func (a *Architecture) Components() []string {
	out := make([]string, len(a.order))
	copy(out, a.order)
	return out
}
