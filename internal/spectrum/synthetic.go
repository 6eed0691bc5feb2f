package spectrum

import (
	"fmt"
	"math/rand"
)

// This file provides the synthetic instrumented program standing in for the
// NXP TV control software of the Sect. 4.4 experiment. The real experiment
// instrumented 60 000 C code blocks; a 27-key-press scenario executed 13 796
// of them, and the injected teletext fault ranked first. The synthetic
// program reproduces the *structure* that makes SFL work on such software:
//
//   - a common core executed by every transaction (input handling, OS),
//   - feature modules executed only when their feature is exercised
//     (teletext, volume, zapping, menu, ...), with per-transaction variation
//     (different paths through a feature on different presses), and
//   - a fault block inside one feature that causes the error detector to
//     flag exactly the transactions that executed it.

// Feature is a named group of block indices. The first CoreCount blocks are
// the feature's unconditional path (they run on every invocation); the next
// WarmCount blocks are input-dependent hot paths (p = WarmProb per press);
// the remainder is cold error-handling/configuration code (p = ColdProb).
type Feature struct {
	Name      string
	Blocks    []int
	CoreCount int
	WarmCount int
}

// Program is a synthetic instrumented program.
type Program struct {
	NumBlocks int
	// Common blocks run on every transaction (input dispatch, OS, drivers).
	Common []int
	// Features are exclusive block groups.
	Features []Feature
	// WarmProb is the per-press execution probability of a warm block.
	WarmProb float64
	// ColdProb is the per-press execution probability of a cold block.
	ColdProb float64
	// NoiseFraction is the fraction of all blocks sampled per transaction
	// as unrelated background activity.
	NoiseFraction float64

	rng *rand.Rand
}

// DefaultTVFeatures mirrors the feature set of the TV simulator.
var DefaultTVFeatures = []string{
	"power", "volume", "mute", "zapping", "teletext", "menu",
	"dual-screen", "sleep", "child-lock", "swivel", "epg", "settings",
}

// DefaultBlocks is the paper's program scale (Sect. 4.4 instruments 60 000
// C blocks). Every device recorder and the fleet diagnosis engine must agree
// on the block count, since spectra are compared block-by-block across
// devices.
const DefaultBlocks = 60000

// GenerateTVProgram builds a synthetic TV control program with numBlocks
// blocks: 12% common core, the rest split evenly across features, each with
// a 10% core path and a 1% warm region. The proportions are calibrated so
// the paper's 27-press scenario covers roughly the published fraction of
// blocks (13 796 of 60 000).
func GenerateTVProgram(seed int64, numBlocks int) *Program {
	if numBlocks < 100 {
		panic("spectrum: program too small")
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Program{
		NumBlocks:     numBlocks,
		WarmProb:      0.5,
		ColdProb:      0.02,
		NoiseFraction: 0.0005,
		rng:           rng,
	}
	nCommon := numBlocks * 12 / 100
	for b := 0; b < nCommon; b++ {
		p.Common = append(p.Common, b)
	}
	per := (numBlocks - nCommon) / len(DefaultTVFeatures)
	next := nCommon
	for _, name := range DefaultTVFeatures {
		f := Feature{Name: name}
		for i := 0; i < per && next < numBlocks; i++ {
			f.Blocks = append(f.Blocks, next)
			next++
		}
		f.CoreCount = len(f.Blocks) / 10
		f.WarmCount = len(f.Blocks) / 100
		p.Features = append(p.Features, f)
	}
	// Leftover blocks join the last feature's cold region.
	last := &p.Features[len(p.Features)-1]
	for ; next < numBlocks; next++ {
		last.Blocks = append(last.Blocks, next)
	}
	return p
}

// Feature returns the named feature, or nil.
func (p *Program) Feature(name string) *Feature {
	for i := range p.Features {
		if p.Features[i].Name == name {
			return &p.Features[i]
		}
	}
	return nil
}

// FaultInFeature picks a deterministic fault block inside the named
// feature's warm region — an input-dependent bug, like a teletext page
// decoder defect that only some pages trigger.
func (p *Program) FaultInFeature(name string) int {
	f := p.Feature(name)
	if f == nil || len(f.Blocks) == 0 {
		panic(fmt.Sprintf("spectrum: no such feature %q", name))
	}
	if f.WarmCount > 0 {
		return f.Blocks[f.CoreCount+f.WarmCount/2]
	}
	return f.Blocks[len(f.Blocks)/2]
}

// Press executes one transaction exercising the named feature and returns
// its hit spectrum: common blocks always, the feature's core path always,
// warm blocks with WarmProb, cold blocks with ColdProb, plus background
// noise across the whole program.
func (p *Program) Press(feature string) *BitSet {
	hits := NewBitSet(p.NumBlocks)
	for _, b := range p.Common {
		hits.Set(b)
	}
	if f := p.Feature(feature); f != nil {
		for i, b := range f.Blocks {
			switch {
			case i < f.CoreCount:
				hits.Set(b)
			case i < f.CoreCount+f.WarmCount:
				if p.rng.Float64() < p.WarmProb {
					hits.Set(b)
				}
			default:
				if p.rng.Float64() < p.ColdProb {
					hits.Set(b)
				}
			}
		}
	}
	if p.NoiseFraction > 0 {
		n := int(float64(p.NumBlocks) * p.NoiseFraction)
		for i := 0; i < n; i++ {
			hits.Set(p.rng.Intn(p.NumBlocks))
		}
	}
	return hits
}

// RunScenario executes the scenario (a sequence of feature names, one per
// key press) with a fault injected at faultBlock: every transaction that
// executes the fault block fails (the error detector flags it). It returns
// the filled matrix.
func (p *Program) RunScenario(scenario []string, faultBlock int) *Matrix {
	m := NewMatrix(p.NumBlocks)
	for _, feature := range scenario {
		hits := p.Press(feature)
		failed := faultBlock >= 0 && hits.Get(faultBlock)
		m.AddTransaction(hits, failed)
	}
	return m
}

// PaperScenario returns the 27-key-press scenario shape of Sect. 4.4: a
// zapping/volume warm-up, then teletext interaction (where the fault
// lives), then other features.
func PaperScenario() []string {
	return []string{
		"power", "volume", "volume", "zapping", "zapping", "zapping",
		"menu", "settings", "menu", "zapping", "volume", "mute",
		"teletext", "teletext", "teletext", "teletext", "teletext",
		"zapping", "teletext", "teletext", "dual-screen", "zapping",
		"teletext", "volume", "sleep", "swivel", "power",
	}
}
