package statemachine

import (
	"fmt"
	"sort"
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

// Snapshot captures the mutable model state: per-region current leaf,
// per-region shallow history (which determines future entry targets and is
// therefore part of the explored state space), and the shared variable
// scope. Exploration uses it to walk the state graph; checkpoint restore
// (internal/core) uses it to place a freshly built model back at a captured
// configuration.
type Snapshot struct {
	Current map[string]string
	History map[string]map[string]string
	Vars    map[string]float64
}

// CaptureState copies the model's mutable state into a Snapshot.
func (m *Model) CaptureState() Snapshot {
	s := Snapshot{
		Current: make(map[string]string, len(m.regions)),
		History: make(map[string]map[string]string, len(m.regions)),
		Vars:    make(map[string]float64, len(m.vars)),
	}
	for _, r := range m.regions {
		s.Current[r.Name] = r.current
		h := make(map[string]string, len(r.lastChild))
		for k, v := range r.lastChild {
			h[k] = v
		}
		s.History[r.Name] = h
	}
	for k, v := range m.vars {
		s.Vars[k] = v
	}
	return s
}

// RestoreState writes a Snapshot back into the model: current leaves,
// shallow history and variables, without running entry/exit actions (the
// snapshot already reflects their effects). Timers armed for states that
// are no longer current self-suppress when they fire (they check the active
// configuration); timers the restored states would have armed are not
// re-created, so restore fidelity for timed transitions is limited to the
// uniform re-anchoring of already-armed timers.
func (m *Model) RestoreState(s Snapshot) {
	for _, r := range m.regions {
		r.current = s.Current[r.Name]
		r.lastChild = nil
		if h := s.History[r.Name]; len(h) > 0 {
			r.lastChild = make(map[string]string, len(h))
			for k, v := range h {
				r.lastChild[k] = v
			}
		}
	}
	m.vars = make(map[string]float64, len(s.Vars))
	for k, v := range s.Vars {
		m.vars[k] = v
	}
}

func (s Snapshot) key() string {
	var b strings.Builder
	regs := make([]string, 0, len(s.Current))
	for r := range s.Current {
		regs = append(regs, r)
	}
	sort.Strings(regs)
	for _, r := range regs {
		fmt.Fprintf(&b, "%s=%s;", r, s.Current[r])
		hs := make([]string, 0, len(s.History[r]))
		for p, c := range s.History[r] {
			hs = append(hs, p+">"+c)
		}
		sort.Strings(hs)
		for _, h := range hs {
			fmt.Fprintf(&b, "h:%s;", h)
		}
	}
	vars := make([]string, 0, len(s.Vars))
	for v := range s.Vars {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		fmt.Fprintf(&b, "%s=%g;", v, s.Vars[v])
	}
	return b.String()
}

// enabledNondet returns a description of nondeterministic choice in region r
// for event name ev at the current configuration, or "".
func (m *Model) enabledNondet(r *Region, evName string) string {
	if r.current == "" {
		return ""
	}
	p := r.path(r.current)
	for depth := len(p) - 1; depth >= 0; depth-- {
		s := r.states[p[depth]]
		var enabled int
		for i := range s.Transitions {
			tr := &s.Transitions[i]
			if tr.After > 0 || tr.Event != evName {
				continue
			}
			ctx := m.ctx(eventNamed(evName))
			if tr.Guard == nil || tr.Guard(ctx) {
				enabled++
			}
		}
		if enabled > 1 {
			return fmt.Sprintf("region %q state %q: %d transitions enabled for event %q", r.Name, p[depth], enabled, evName)
		}
		if enabled == 1 {
			return "" // deterministic choice found at this priority level
		}
	}
	return ""
}

// timedEnabled lists indices of timed transitions enabled along the current
// path of r (source state name + transition copy).
func (m *Model) timedEnabled(r *Region) []struct {
	src string
	tr  Transition
} {
	var out []struct {
		src string
		tr  Transition
	}
	if r.current == "" {
		return out
	}
	for _, name := range r.path(r.current) {
		s := r.states[name]
		for i := range s.Transitions {
			tr := s.Transitions[i]
			if tr.After <= 0 {
				continue
			}
			ctx := m.ctx(eventNamed(""))
			if tr.Guard == nil || tr.Guard(ctx) {
				out = append(out, struct {
					src string
					tr  Transition
				}{name, tr})
			}
		}
	}
	return out
}

// applyTimed fires a timed transition during exploration (no kernel).
func (m *Model) applyTimed(r *Region, src string, tr Transition) {
	p := r.path(r.current)
	depth := -1
	for i, n := range p {
		if n == src {
			depth = i
		}
	}
	if depth < 0 {
		return
	}
	m.fire(r, depth, tr, eventNamed(""))
	m.settle()
}

func eventNamed(name string) (e event.Event) {
	e.Name = name
	return
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
		for reg, leaf := range s.Current {
			r := m.Region(reg)
			for _, st := range r.path(leaf) {
				visitedConfigs[reg+"/"+st] = true
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
			evName := evName
			// Nondeterminism check in this configuration.
			for _, r := range m.regions {
				if msg := m.enabledNondet(r, evName); msg != "" {
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
				return m.Dispatch(eventNamed(evName))
			}})
		}
		for _, r := range m.regions {
			r := r
			for _, te := range m.timedEnabled(r) {
				te := te
				succs = append(succs, succ{
					label: fmt.Sprintf("after(%s)@%s", te.tr.After, te.src),
					apply: func() error {
						m.applyTimed(r, te.src, te.tr)
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
			res.Violations = append(res.Violations, Violation{
				Kind: "deadlock", Detail: fmt.Sprintf("no event changes state in config %v", n.s.Current), Trace: n.trace,
			})
		}
	}
	return finishExplore(m, res, visitedConfigs)
}

func finishExplore(m *Model, res ExploreResult, visitedConfigs map[string]bool) ExploreResult {
	for _, r := range m.regions {
		names := make([]string, 0, len(r.states))
		for n := range r.states {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if !visitedConfigs[r.Name+"/"+n] {
				res.Unreachable = append(res.Unreachable, r.Name+"/"+n)
			}
		}
	}
	sort.Strings(res.Unreachable)
	return res
}
