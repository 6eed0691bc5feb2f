// Package inspect implements inspection-warning prioritization by static
// profiling (Sect. 4.7, after Boogerd & Moonen, "Prioritizing software
// inspection results using static profiling"): warnings from a static
// analyser (QA-C in the paper) are ranked by the *execution likelihood* of
// the code they flag, computed from the program's call graph and branch
// probabilities, so inspection effort goes to warnings that matter first.
package inspect

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is a program call/control-flow graph with branch probabilities.
type Graph struct {
	nodes map[string]*Node
	order []string
	entry string
}

// Node is one program location (function or block).
type Node struct {
	Name string
	// Edges are outgoing calls/branches with their taken-probability.
	Edges []Edge
}

// Edge is a probabilistic control transfer.
type Edge struct {
	To   string
	Prob float64
}

// NewGraph creates a graph rooted at entry.
func NewGraph(entry string) *Graph {
	g := &Graph{nodes: make(map[string]*Node), entry: entry}
	g.ensure(entry)
	return g
}

func (g *Graph) ensure(name string) *Node {
	if n, ok := g.nodes[name]; ok {
		return n
	}
	n := &Node{Name: name}
	g.nodes[name] = n
	g.order = append(g.order, name)
	return n
}

// AddEdge records a transfer from→to taken with probability p.
func (g *Graph) AddEdge(from, to string, p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("inspect: probability %v out of range", p))
	}
	f := g.ensure(from)
	g.ensure(to)
	f.Edges = append(f.Edges, Edge{To: to, Prob: p})
}

// Nodes returns node names in insertion order.
func (g *Graph) Nodes() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	return out
}

// Likelihood computes each node's execution likelihood from the entry by
// fixed-point propagation: entry has likelihood 1; a node's likelihood is
// the probability at least one incoming path executes, approximated with
// iterative relaxation (sufficient for ranking; exact path enumeration is
// exponential). Cycles converge because probabilities are ≤ 1 and the
// update is monotone and bounded.
func (g *Graph) Likelihood() map[string]float64 {
	// Reverse adjacency: for each node, its incoming edges.
	incoming := map[string][]struct {
		from string
		p    float64
	}{}
	for _, name := range g.order {
		for _, e := range g.nodes[name].Edges {
			incoming[e.To] = append(incoming[e.To], struct {
				from string
				p    float64
			}{name, e.Prob})
		}
	}
	like := map[string]float64{g.entry: 1}
	const iterations = 100
	for it := 0; it < iterations; it++ {
		changed := false
		for _, name := range g.order {
			if name == g.entry {
				continue
			}
			// Recompute from scratch each sweep: noisy-or over the current
			// estimates of all predecessors. The update is monotone from an
			// all-zero start, so cycles converge to the least fixed point.
			miss := 1.0
			for _, in := range incoming[name] {
				miss *= 1 - like[in.from]*in.p
			}
			v := 1 - miss
			if v > like[name]+1e-12 {
				like[name] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return like
}

// Severity is the level of a static-analysis warning (QA-C style).
type Severity int

// Severity levels, lowest first.
const (
	SevLow Severity = iota + 1
	SevMedium
	SevHigh
)

// Warning is one static-analysis finding.
type Warning struct {
	ID       int
	Node     string
	Severity Severity
	// TrueFault marks ground truth: this warning corresponds to a real
	// defect (known in synthetic programs; the evaluation metric).
	TrueFault bool
}

// RankBySeverity orders warnings by severity only (the unprioritized
// baseline: what a developer gets from the raw tool output).
func RankBySeverity(ws []Warning) []Warning {
	out := append([]Warning(nil), ws...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RankByLikelihood orders warnings by severity × execution likelihood —
// the paper's prioritization.
func RankByLikelihood(ws []Warning, like map[string]float64) []Warning {
	out := append([]Warning(nil), ws...)
	score := func(w Warning) float64 { return float64(w.Severity) * like[w.Node] }
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(out[i]), score(out[j])
		if si != sj {
			return si > sj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// PrecisionAt returns the fraction of the first k warnings that are true
// faults.
func PrecisionAt(ranked []Warning, k int) float64 {
	if k <= 0 || len(ranked) == 0 {
		return 0
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	hits := 0
	for _, w := range ranked[:k] {
		if w.TrueFault {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// SyntheticProgram bundles a generated graph with warnings and ground truth.
type SyntheticProgram struct {
	Graph    *Graph
	Warnings []Warning
}

// GenerateProgram builds a layered synthetic program: hot layers near the
// entry execute almost always; deep layers (error handling, rare
// configuration paths) almost never. Warnings are scattered uniformly;
// a warning is a true fault when its code actually executes in practice
// (defects in dead/rare code do not bite users — the premise that makes
// likelihood-based prioritization work).
func GenerateProgram(seed int64, layers, nodesPerLayer, warnings int) *SyntheticProgram {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph("main")
	var prev []string
	cur := []string{"main"}
	name := func(l, i int) string { return fmt.Sprintf("n%d_%d", l, i) }
	for l := 1; l <= layers; l++ {
		prev = cur
		cur = nil
		for i := 0; i < nodesPerLayer; i++ {
			n := name(l, i)
			cur = append(cur, n)
			// Each node is called from 1-2 nodes of the previous layer with
			// branch probability 0.5, so likelihood decays geometrically
			// with depth (deep error paths rarely run).
			from := prev[rng.Intn(len(prev))]
			g.AddEdge(from, n, 0.5)
			if rng.Float64() < 0.3 {
				g.AddEdge(prev[rng.Intn(len(prev))], n, 0.25)
			}
		}
	}
	like := g.Likelihood()
	sp := &SyntheticProgram{Graph: g}
	nodes := g.Nodes()
	for w := 0; w < warnings; w++ {
		node := nodes[rng.Intn(len(nodes))]
		sev := SevLow + Severity(rng.Intn(3))
		// Ground truth: the defect manifests iff the code runs often enough
		// to be hit in the field.
		manifest := rng.Float64() < like[node]
		sp.Warnings = append(sp.Warnings, Warning{
			ID: w, Node: node, Severity: sev, TrueFault: manifest,
		})
	}
	return sp
}
