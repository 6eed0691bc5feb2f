package spectrum

// BitSet is a fixed-capacity bit vector used for block-hit spectra. With
// 60 000 blocks per transaction (the paper's case study), a packed
// representation keeps a full scenario's spectra small and fast to scan.
type BitSet struct {
	n     int
	words []uint64
}

// NewBitSet returns a bitset holding n bits, all clear.
func NewBitSet(n int) *BitSet {
	if n < 0 {
		n = 0
	}
	return &BitSet{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the capacity in bits.
func (b *BitSet) Len() int { return b.n }

// Set sets bit i. Out-of-range indices panic (spectra are fixed-size).
func (b *BitSet) Set(i int) {
	if i < 0 || i >= b.n {
		panic("spectrum: bit index out of range")
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Get reports bit i.
func (b *BitSet) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic("spectrum: bit index out of range")
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (b *BitSet) Count() int {
	total := 0
	for _, w := range b.words {
		total += popcount(w)
	}
	return total
}

// Or unions o into b. Both bitsets must have the same capacity.
func (b *BitSet) Or(o *BitSet) {
	if b.n != o.n {
		panic("spectrum: or of bitsets with different capacities")
	}
	for w := range b.words {
		b.words[w] |= o.words[w]
	}
}

// Clear resets every bit.
func (b *BitSet) Clear() {
	for w := range b.words {
		b.words[w] = 0
	}
}

// Words returns a copy of the packed 64-bit words (bit i of the set lives in
// word i/64, bit i%64). This is the spectrum's wire representation: a
// device's coverage window travels as its packed words and is folded back
// into a fleet Spectra with FoldWords.
func (b *BitSet) Words() []uint64 {
	out := make([]uint64, len(b.words))
	copy(out, b.words)
	return out
}

// Sparse returns the set's nonzero packed words as parallel slices of word
// indices and word values, ascending — the compact wire representation of a
// mostly-empty coverage window (wire.SpectrumDelta), folded back with
// FoldSparse. An all-clear set yields two nil slices.
func (b *BitSet) Sparse() (index []uint32, words []uint64) {
	for w, word := range b.words {
		if word != 0 {
			index = append(index, uint32(w))
			words = append(words, word)
		}
	}
	return index, words
}

func popcount(x uint64) int {
	// Hacker's Delight bit-twiddling popcount.
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}
