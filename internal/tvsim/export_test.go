package tvsim

// AllKeys returns every key once (for exploration alphabets and random
// scenario generation).
func AllKeys() []Key {
	out := make([]Key, numKeys)
	for i := range out {
		out[i] = Key(i)
	}
	return out
}

// Powered reports the power state.
func (tv *TV) Powered() bool { return tv.powered }
