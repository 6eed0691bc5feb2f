package spectrum

// Ablation benches for the package's design choices: the packed bitset
// representation of spectra versus a naive map-based one, at the
// paper's scale (60 000 blocks).

import (
	"math/rand"
	"testing"
)

// mapSpectra is the naive alternative: one map per transaction.
type mapSpectra struct {
	blocks int
	rows   []map[int]bool
	failed []bool
}

func (m *mapSpectra) add(hits map[int]bool, failed bool) {
	m.rows = append(m.rows, hits)
	m.failed = append(m.failed, failed)
}

func (m *mapSpectra) countsFor(block int) Counts {
	var c Counts
	for i, row := range m.rows {
		hit := row[block]
		switch {
		case hit && m.failed[i]:
			c.Aef++
		case hit && !m.failed[i]:
			c.Aep++
		case !hit && m.failed[i]:
			c.Anf++
		default:
			c.Anp++
		}
	}
	return c
}

func buildBitset(b *testing.B) *Matrix {
	b.Helper()
	p := GenerateTVProgram(42, 60000)
	fault := p.FaultInFeature("teletext")
	return p.RunScenario(PaperScenario(), fault)
}

func buildMap(b *testing.B) *mapSpectra {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	m := &mapSpectra{blocks: 60000}
	for i := 0; i < 27; i++ {
		hits := make(map[int]bool)
		for j := 0; j < 14000; j++ {
			hits[rng.Intn(60000)] = true
		}
		m.add(hits, i%5 == 0)
	}
	return m
}

func BenchmarkAblationRankBitset(b *testing.B) {
	m := buildBitset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Rank(Ochiai)
	}
}

func BenchmarkAblationRankMap(b *testing.B) {
	m := buildMap(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Equivalent of Rank: score every block.
		for blk := 0; blk < m.blocks; blk++ {
			Ochiai.F(m.countsFor(blk))
		}
	}
}

func BenchmarkAblationRecordBitset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewBitSet(60000)
		for j := 0; j < 14000; j++ {
			s.Set(j * 4 % 60000)
		}
	}
}

func BenchmarkAblationRecordMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := make(map[int]bool)
		for j := 0; j < 14000; j++ {
			s[j*4%60000] = true
		}
	}
}
