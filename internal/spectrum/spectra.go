package spectrum

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
)

// Spectra is the fleet-level spectrum accumulator: where a Matrix retains
// one row per transaction (the single-device, offline shape of the Sect.
// 4.4 experiment), Spectra folds every transaction into per-block pass/fail
// execution counters the moment it arrives and retains nothing else. Memory
// is O(blocks) regardless of how many devices contribute evidence, folding
// is a single pass over the window's packed words, and — because the
// counters are plain sums — the resulting ranking is independent of the
// order in which evidence arrives. That order-independence is what lets a
// journal replay reproduce a live fleet ranking byte for byte.
//
// Block storage is striped: the block range is cut into word-aligned
// stripes so ranking fans out across stripes in parallel while a fold stays
// one cache-friendly sequential pass. Spectra is not safe for concurrent
// use; the diagnosis engine owns one from a single goroutine.
type Spectra struct {
	blocks   int
	words    int
	wordsPer int // packed words per stripe (the last stripe may hold fewer)
	stripes  []stripe
	nFail    int // failed transactions folded
	nPass    int // passed transactions folded
	top      *topTracker
}

// stripe owns the counters of a word-aligned contiguous block range.
type stripe struct {
	loWord int // first packed word of the range
	lo     int // first block of the range (loWord * 64)
	n      int // blocks in the range
	aef    []uint32
	aep    []uint32
}

// NewSpectra creates an accumulator for a program with the given block
// count, striped for parallel ranking. stripes <= 0 picks GOMAXPROCS.
func NewSpectra(blocks, stripes int) *Spectra {
	if blocks <= 0 {
		panic("spectrum: block count must be positive")
	}
	if stripes <= 0 {
		stripes = runtime.GOMAXPROCS(0)
	}
	words := (blocks + 63) / 64
	if stripes > words {
		stripes = words
	}
	s := &Spectra{blocks: blocks, words: words}
	wordsPer := (words + stripes - 1) / stripes
	s.wordsPer = wordsPer
	for lo := 0; lo < words; lo += wordsPer {
		hi := lo + wordsPer
		if hi > words {
			hi = words
		}
		n := (hi - lo) * 64
		if hi == words {
			n = blocks - lo*64
		}
		s.stripes = append(s.stripes, stripe{
			loWord: lo, lo: lo * 64, n: n,
			aef: make([]uint32, n), aep: make([]uint32, n),
		})
	}
	return s
}

// Blocks returns the block capacity.
func (s *Spectra) Blocks() int { return s.blocks }

// Transactions returns the number of folded transactions.
func (s *Spectra) Transactions() int { return s.nFail + s.nPass }

// Failures returns the number of folded failing transactions.
func (s *Spectra) Failures() int { return s.nFail }

// FoldWords accumulates one transaction given as packed 64-bit words (the
// wire representation of a coverage window, see BitSet.Words). Short word
// slices are treated as zero-padded; bits beyond the block capacity are
// ignored, so a malformed window cannot write out of range.
func (s *Spectra) FoldWords(words []uint64, failed bool) {
	if failed {
		s.nFail++
	} else {
		s.nPass++
	}
	// Pass folds only lower rank keys, so the top-K tracker needs no
	// structural work for them; only fail-touched blocks can climb into the
	// candidate set (see topk.go).
	track := failed && s.top != nil && s.top.valid
	for si := range s.stripes {
		st := &s.stripes[si]
		counters := st.aep
		if failed {
			counters = st.aef
		}
		hiWord := st.loWord + (st.n+63)/64
		for w := st.loWord; w < hiWord && w < len(words); w++ {
			word := words[w]
			base := w*64 - st.lo
			for word != 0 {
				b := base + bits.TrailingZeros64(word)
				if b >= st.n {
					break // capacity-padding bits of the last word
				}
				counters[b]++
				if track {
					s.admitTop(st.lo+b, counters[b], st.aep[b])
				}
				word &= word - 1
			}
		}
	}
}

// FoldSparse accumulates one transaction given as a sparse coverage window:
// parallel slices of packed-word indices and their nonzero 64-bit words —
// the TypeSpectrumDelta wire representation, carrying only the words a
// device's recorder actually touched. Word indices beyond the capacity are
// ignored and a short words slice truncates the pair list, mirroring
// FoldWords' posture toward malformed input: nothing a peer sends can write
// out of range.
func (s *Spectra) FoldSparse(index []uint32, words []uint64, failed bool) {
	if failed {
		s.nFail++
	} else {
		s.nPass++
	}
	track := failed && s.top != nil && s.top.valid
	n := len(index)
	if len(words) < n {
		n = len(words)
	}
	for i := 0; i < n; i++ {
		w := int(index[i])
		if w >= s.words {
			continue
		}
		st := &s.stripes[w/s.wordsPer]
		counters := st.aep
		if failed {
			counters = st.aef
		}
		word := words[i]
		base := w*64 - st.lo
		for word != 0 {
			b := base + bits.TrailingZeros64(word)
			if b >= st.n {
				break // capacity-padding bits of the last word
			}
			counters[b]++
			if track {
				s.admitTop(st.lo+b, counters[b], st.aep[b])
			}
			word &= word - 1
		}
	}
}

// CountsFor returns the four SFL counters for one block. The not-executed
// counts are derived from the fold totals, so they need no storage.
func (s *Spectra) CountsFor(block int) Counts {
	if block < 0 || block >= s.blocks {
		panic("spectrum: block index out of range")
	}
	for si := range s.stripes {
		st := &s.stripes[si]
		if block < st.lo+st.n {
			aef := int(st.aef[block-st.lo])
			aep := int(st.aep[block-st.lo])
			return Counts{Aef: aef, Aep: aep, Anf: s.nFail - aef, Anp: s.nPass - aep}
		}
	}
	panic("spectrum: unreachable")
}

// TopN scores every block under the coefficient and returns the n most
// suspicious, ties broken by block index. Scoring fans out across the
// stripes in parallel; the merge is deterministic, so the same counters
// always produce the same ranking regardless of stripe count or timing.
func (s *Spectra) TopN(c Coefficient, n int) []Ranked {
	if n <= 0 {
		return nil
	}
	if n > s.blocks {
		n = s.blocks
	}
	tops := make([][]Ranked, len(s.stripes))
	var wg sync.WaitGroup
	for si := range s.stripes {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			st := &s.stripes[si]
			local := make([]Ranked, st.n)
			for b := 0; b < st.n; b++ {
				aef, aep := int(st.aef[b]), int(st.aep[b])
				cnt := Counts{Aef: aef, Aep: aep, Anf: s.nFail - aef, Anp: s.nPass - aep}
				local[b] = Ranked{Block: st.lo + b, Score: c.F(cnt)}
			}
			sort.SliceStable(local, func(i, j int) bool {
				if local[i].Score != local[j].Score {
					return local[i].Score > local[j].Score
				}
				return local[i].Block < local[j].Block
			})
			if len(local) > n {
				local = local[:n]
			}
			tops[si] = local
		}(si)
	}
	wg.Wait()
	var merged []Ranked
	for _, t := range tops {
		merged = append(merged, t...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].Block < merged[j].Block
	})
	if len(merged) > n {
		merged = merged[:n]
	}
	return merged
}

// Cell is one nonzero counter pair in a sparse export: block index plus its
// failed/passed execution counts. Blocks never touched by any transaction
// are omitted — for typical fault densities the export is a small fraction
// of the block range, which is what keeps checkpoint records well under the
// wire frame bound.
type Cell struct {
	Block uint32
	Fail  uint32
	Pass  uint32
}

// Export returns the accumulator as a sparse cell list (nonzero counters
// only, ascending block order) plus the fold totals. Export and Import are
// the checkpoint representation of a Spectra.
func (s *Spectra) Export() (cells []Cell, nFail, nPass int) {
	for si := range s.stripes {
		st := &s.stripes[si]
		for b := 0; b < st.n; b++ {
			if st.aef[b] == 0 && st.aep[b] == 0 {
				continue
			}
			cells = append(cells, Cell{
				Block: uint32(st.lo + b), Fail: st.aef[b], Pass: st.aep[b],
			})
		}
	}
	return cells, s.nFail, s.nPass
}

// Import resets the accumulator and loads a sparse export: counters for the
// listed cells, zero everywhere else, and the given fold totals. Import is
// absolute, not accumulating, so importing the same checkpoint twice
// converges. An export whose cells exceed this accumulator's capacity was
// taken from a differently-sized program — silently truncating it would
// corrupt every ranking derived from the counters, so Import validates
// before touching any state and returns an error describing the mismatch;
// on error the accumulator is unchanged.
func (s *Spectra) Import(cells []Cell, nFail, nPass int) error {
	for _, c := range cells {
		if int(c.Block) >= s.blocks {
			return fmt.Errorf("spectrum: import cell for block %d exceeds the %d-block capacity: export taken from a different program layout", c.Block, s.blocks)
		}
	}
	for si := range s.stripes {
		st := &s.stripes[si]
		clear(st.aef)
		clear(st.aep)
	}
	s.nFail, s.nPass = nFail, nPass
	for _, c := range cells {
		b := int(c.Block)
		st := &s.stripes[(b/64)/s.wordsPer]
		st.aef[b-st.lo] = c.Fail
		st.aep[b-st.lo] = c.Pass
	}
	if s.top != nil {
		// The counters just changed wholesale; the candidate set is stale.
		// Rebuild lazily on the next Top.
		s.top.valid = false
	}
	return nil
}
