package wire

// Unmarshal decodes through the interner without a slab: the event is
// allocated, once for a one-value observation. The interner's tests and its
// allocation gate decode through it.
func (in *BinaryInterner) Unmarshal(payload []byte, m *Message) error {
	return in.UnmarshalInto(payload, m, nil)
}
