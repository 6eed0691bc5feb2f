package statemachine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"trader/internal/event"
)

// Exploration implements the paper's Sect. 4.2 observation that model quality
// needs checking: "we investigate the possibilities of formal model-checking
// and test scripts to improve model quality". Explore performs bounded
// explicit-state reachability over a finite event alphabet, reporting
// invariant violations, nondeterministic choices, deadlocked configurations
// and states that were never reached.
//
// Exploration is exact for models whose variables take finitely many values
// under the given alphabet (the usual case for control models); it hashes the
// full variable valuation, so continuously-valued models may not terminate
// within the bound.

// ExploreOptions configures Explore.
type ExploreOptions struct {
	// Alphabet is the set of input event names to try in every state.
	Alphabet []string
	// MaxDepth bounds the BFS depth (number of events); 0 means 64.
	MaxDepth int
	// MaxStates bounds the number of distinct states visited; 0 means 100000.
	MaxStates int
}

// Violation is one model-quality finding.
type Violation struct {
	Kind   string   // "invariant", "nondeterminism", "deadlock", "livelock"
	Detail string   // human-readable description
	Trace  []string // event sequence from the initial state
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (trace: %s)", v.Kind, v.Detail, strings.Join(v.Trace, " "))
}

// ExploreResult summarises an exploration run.
type ExploreResult struct {
	StatesVisited int
	Transitions   int
	Truncated     bool // hit MaxStates or MaxDepth
	Violations    []Violation
	// Unreachable lists states (region/state) never part of any visited
	// configuration, a common modelling error.
	Unreachable []string
}

// Snapshot is a model's mutable state as slot vectors: per-region current
// leaf and per-history-state remembered child (which determines future
// entry targets and is therefore part of the explored state space), and the
// variable slots with their assigned mask. Exploration uses it to walk the
// state graph. It is only meaningful to Models of the Spec it came from.
type Snapshot struct {
	leaf []int32
	vars []float64
	set  uint64
}

// CaptureState copies the model's mutable state into a Snapshot.
func (m *Model) CaptureState() Snapshot {
	return Snapshot{slices.Clone(m.leaf), slices.Clone(m.vars), m.set}
}

// RestoreState writes a Snapshot back into the model: current leaves,
// shallow history and variables, without running entry/exit actions (the
// snapshot already reflects their effects). Timers armed for states that
// are no longer current self-suppress when they fire (they check the active
// configuration); timers the restored states would have armed are not
// re-created, so restore fidelity for timed transitions is limited to the
// uniform re-anchoring of already-armed timers.
func (m *Model) RestoreState(s Snapshot) {
	copy(m.leaf, s.leaf)
	copy(m.vars, s.vars)
	m.set = s.set
}

func (s Snapshot) key() string {
	b := make([]byte, 0, 4*len(s.leaf)+8+8*len(s.vars))
	for _, l := range s.leaf {
		b = binary.LittleEndian.AppendUint32(b, uint32(l))
	}
	b = binary.LittleEndian.AppendUint64(b, s.set)
	for _, v := range s.vars {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// Record reports the model's state keyed by name, the form a checkpoint
// stores: every assigned variable in name order, then per region (in name
// order) "r:<region>" → current leaf, followed by "h:<region>/<parent>" →
// remembered child for each history state that has one (parents in name
// order).
func (m *Model) Record(variable func(name string, v float64), state func(key, value string)) {
	for _, i := range sortedBy(len(m.vars), func(i int) string { return m.spec.vars[i] }) {
		if m.set&(1<<i) != 0 {
			variable(m.spec.vars[i], m.vars[i])
		}
	}
	regions := m.spec.regions
	for _, ri := range sortedBy(len(regions), func(i int) string { return regions[i].name }) {
		r := &regions[ri]
		state("r:"+r.name, m.Current(r.name))
		for _, si := range sortedBy(len(r.states), func(i int) string { return r.states[i].name }) {
			if h := r.states[si].hist; h >= 0 && m.leaf[len(regions)+int(h)] >= 0 {
				state("h:"+r.name+"/"+r.states[si].name, r.states[m.leaf[len(regions)+int(h)]].name)
			}
		}
	}
}

// sortedBy returns 0..n-1 ordered by name(i).
func sortedBy(n int, name func(int) string) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return strings.Compare(name(a), name(b)) })
	return idx
}

// Forget unassigns every variable and history entry, leaving the current
// leaves: the starting point for placing a Record back with SetVar and
// SetState.
func (m *Model) Forget() {
	clear(m.vars)
	m.set = 0
	for i := len(m.spec.regions); i < len(m.leaf); i++ {
		m.leaf[i] = -1
	}
}

// SetState places one Record state entry ("r:<region>" or
// "h:<region>/<parent>") without running actions.
func (m *Model) SetState(key, value string) error {
	kind, rest, _ := strings.Cut(key, ":")
	reg, parent, _ := strings.Cut(rest, "/")
	slot, v := m.regionIndex(reg), -1
	if slot >= 0 {
		r := &m.spec.regions[slot]
		if p := r.lookup(parent); kind == "h" && p >= 0 && r.states[p].hist >= 0 {
			slot = len(m.spec.regions) + int(r.states[p].hist)
		} else if kind != "r" {
			slot = -1
		}
		v = r.lookup(value)
	}
	if slot < 0 || v < 0 {
		return fmt.Errorf("statemachine: model %q: no state %s=%q", m.spec.Name, key, value)
	}
	m.leaf[slot] = int32(v)
	return nil
}

// enabledNondet returns a description of nondeterministic choice in region
// ri for event name ev at the current configuration, or "".
func (m *Model) enabledNondet(ri int, evName string) string {
	id, ok := m.spec.events[evName]
	if m.leaf[ri] < 0 || !ok {
		return ""
	}
	states := m.spec.regions[ri].states
	p := states[m.leaf[ri]].path
	defer m.end(m.begin(event.Event{Name: evName}))
	for depth := len(p) - 1; depth >= 0; depth-- {
		var enabled int
		for _, tr := range states[p[depth]].trans {
			if tr.after <= 0 && tr.event == id && (tr.guard == nil || tr.guard(m.ctx)) {
				enabled++
			}
		}
		if enabled > 1 {
			return fmt.Sprintf("region %q state %q: %d transitions enabled for event %q", m.spec.regions[ri].name, states[p[depth]].name, enabled, evName)
		}
		if enabled == 1 {
			return "" // deterministic choice found at this priority level
		}
	}
	return ""
}

// timedEnabled lists the timed transitions enabled along the current path
// of region ri.
func (m *Model) timedEnabled(ri int) []*transition {
	var out []*transition
	if m.leaf[ri] < 0 {
		return out
	}
	states := m.spec.regions[ri].states
	defer m.end(m.begin(event.Event{}))
	for _, st := range states[m.leaf[ri]].path {
		for i := range states[st].trans {
			tr := &states[st].trans[i]
			if tr.after > 0 && (tr.guard == nil || tr.guard(m.ctx)) {
				out = append(out, tr)
			}
		}
	}
	return out
}

// applyTimed fires a timed transition during exploration (no kernel).
func (m *Model) applyTimed(ri int, tr *transition) {
	if d := m.depth(ri, tr.src); d >= 0 {
		defer m.end(m.begin(event.Event{}))
		m.fire(ri, d, tr)
		m.settle()
	}
}

// Explore runs bounded BFS from the model's current state. The model must be
// started. The model state is restored to its pre-exploration snapshot before
// Explore returns.
func (m *Model) Explore(opts ExploreOptions) ExploreResult {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 64
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = 100000
	}
	origin := m.CaptureState()
	defer m.RestoreState(origin)

	res := ExploreResult{}
	type node struct {
		s     Snapshot
		trace []string
		depth int
	}
	visited := map[string]bool{origin.key(): true}
	visitedConfigs := map[string]bool{}
	markConfig := func(s Snapshot) {
		for ri, r := range m.spec.regions {
			if s.leaf[ri] < 0 {
				continue
			}
			for _, st := range r.states[s.leaf[ri]].path {
				visitedConfigs[r.name+"/"+r.states[st].name] = true
			}
		}
	}
	markConfig(origin)
	res.StatesVisited = 1

	queue := []node{{s: origin, depth: 0}}
	reportedNondet := map[string]bool{}

	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.depth >= opts.MaxDepth {
			res.Truncated = true
			continue
		}

		// Successor generators: one per alphabet event, plus one per enabled
		// timed transition.
		type succ struct {
			label string
			apply func() error
		}
		var succs []succ
		m.RestoreState(n.s)
		for _, evName := range opts.Alphabet {
			// Nondeterminism check in this configuration.
			for ri := range m.spec.regions {
				if msg := m.enabledNondet(ri, evName); msg != "" {
					k := msg
					if !reportedNondet[k] {
						reportedNondet[k] = true
						res.Violations = append(res.Violations, Violation{
							Kind: "nondeterminism", Detail: msg, Trace: append(append([]string{}, n.trace...), evName),
						})
					}
				}
			}
			succs = append(succs, succ{label: evName, apply: func() error {
				return m.Dispatch(event.Event{Name: evName})
			}})
		}
		for ri, r := range m.spec.regions {
			for _, tr := range m.timedEnabled(ri) {
				succs = append(succs, succ{
					label: fmt.Sprintf("after(%s)@%s", tr.after, r.states[tr.src].name),
					apply: func() error {
						m.applyTimed(ri, tr)
						return m.checkInvariants()
					},
				})
			}
		}

		progressed := false
		for _, sc := range succs {
			m.RestoreState(n.s)
			err := sc.apply()
			res.Transitions++
			next := m.CaptureState()
			trace := append(append([]string{}, n.trace...), sc.label)
			if err != nil {
				res.Violations = append(res.Violations, Violation{
					Kind: "invariant", Detail: err.Error(), Trace: trace,
				})
				continue
			}
			k := next.key()
			if k != n.s.key() {
				progressed = true
			}
			if visited[k] {
				continue
			}
			visited[k] = true
			markConfig(next)
			res.StatesVisited++
			if res.StatesVisited >= opts.MaxStates {
				res.Truncated = true
				return finishExplore(m, res, visitedConfigs)
			}
			queue = append(queue, node{s: next, trace: trace, depth: n.depth + 1})
		}
		if !progressed && len(succs) > 0 {
			m.RestoreState(n.s)
			res.Violations = append(res.Violations, Violation{
				Kind: "deadlock", Detail: fmt.Sprintf("no event changes state in config %v", m.Config()), Trace: n.trace,
			})
		}
	}
	return finishExplore(m, res, visitedConfigs)
}

func finishExplore(m *Model, res ExploreResult, visitedConfigs map[string]bool) ExploreResult {
	for _, r := range m.spec.regions {
		for _, st := range r.states {
			if !visitedConfigs[r.name+"/"+st.name] {
				res.Unreachable = append(res.Unreachable, r.name+"/"+st.name)
			}
		}
	}
	slices.Sort(res.Unreachable)
	return res
}
