package spectrum

// Clone copies the bitset.
func (b *BitSet) Clone() *BitSet {
	c := &BitSet{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Fold accumulates one transaction's hit spectrum under its verdict. The
// bitset is read, not retained.
func (s *Spectra) Fold(hits *BitSet, failed bool) {
	if hits.Len() != s.blocks {
		panic("spectrum: spectrum capacity does not match")
	}
	s.FoldWords(hits.words, failed)
}

// RankOf returns the 1-based pessimistic rank of the block (ties counted
// against it) and the size of its tie group, like Matrix.RankOf.
func (s *Spectra) RankOf(block int, c Coefficient) (rank, ties int) {
	target := c.F(s.CountsFor(block))
	higher, equal := 0, 0
	for si := range s.stripes {
		st := &s.stripes[si]
		for b := 0; b < st.n; b++ {
			aef, aep := int(st.aef[b]), int(st.aep[b])
			score := c.F(Counts{Aef: aef, Aep: aep, Anf: s.nFail - aef, Anp: s.nPass - aep})
			if score > target {
				higher++
			} else if score == target {
				equal++
			}
		}
	}
	return higher + equal, equal
}

// Stripes returns the stripe count.
func (s *Spectra) Stripes() int { return len(s.stripes) }
