// Package statemachine implements executable timed hierarchical state
// machines, the modelling formalism the Trader paper uses for specification
// models of desired system behaviour (Sect. 4.2). It replaces the
// Matlab/Stateflow tooling of the paper with a stdlib-only engine that
// supports:
//
//   - hierarchical states with entry/exit actions and initial children,
//   - guarded, triggered transitions with actions,
//   - timed ("after") transitions driven by a sim.Kernel,
//   - parallel top-level regions sharing a variable scope,
//   - observation hooks (used by the awareness framework's Model Executor),
//   - bounded explicit-state exploration for model-quality checks
//     (reachability, nondeterminism, invariant violations, deadlock), and
//   - a test-script runner.
package statemachine

import (
	"fmt"
	"sort"

	"trader/internal/event"
	"trader/internal/sim"
)

// Context is passed to guards and actions. Vars is the shared variable scope
// of the whole model; Event is the triggering event (zero for timed and
// completion transitions).
type Context struct {
	Vars  map[string]float64
	Event event.Event
	Now   sim.Time
	emit  func(name string, values []event.Value)
}

// Get returns a variable (0 if unset).
func (c *Context) Get(name string) float64 { return c.Vars[name] }

// Set assigns a variable.
func (c *Context) Set(name string, v float64) { c.Vars[name] = v }

// SetBool assigns 1/0.
func (c *Context) SetBool(name string, b bool) {
	if b {
		c.Vars[name] = 1
	} else {
		c.Vars[name] = 0
	}
}

// Bool reads a variable as a boolean (non-zero = true).
func (c *Context) Bool(name string) bool { return c.Vars[name] != 0 }

// Emit publishes a model output event (expected behaviour).
func (c *Context) Emit(name string, values ...event.Value) {
	if c.emit != nil {
		c.emit(name, values)
	}
}

// Transition is an edge of the machine.
type Transition struct {
	// Event is the trigger name. Empty means a completion transition,
	// evaluated after every dispatch and on entry, unless After is set.
	Event string
	// After, when positive, makes this a timed transition firing After
	// after the source state was entered (unless the state is left first).
	// Timed transitions must have an empty Event.
	After sim.Time
	// Guard, when non-nil, must return true for the transition to fire.
	Guard func(*Context) bool
	// Target is the destination state name. Empty denotes an internal
	// transition: the action runs without exiting the source state.
	Target string
	// Action runs between exit and entry actions.
	Action func(*Context)
}

// State is a node of the hierarchy.
type State struct {
	Name string
	// Parent is the name of the enclosing state; empty for top-level.
	Parent string
	// Initial is the name of the child entered by default; empty for leaves.
	Initial string
	// History marks a shallow-history composite state (Stateflow "H"): when
	// re-entered, the child that was active on the last exit is entered
	// instead of Initial.
	History     bool
	Entry       func(*Context)
	Exit        func(*Context)
	Transitions []Transition
}

// Region is one sequential state machine. Build it with NewRegion/Add, then
// include it in a Model.
type Region struct {
	Name    string
	states  map[string]*State
	tops    []string // top-level states in Add order
	initial string
	current string // current leaf state; "" before Start
	// lastChild remembers, per composite state, the child active at the
	// last exit (shallow history). Nil until a history state is first
	// exited: most regions never record any.
	lastChild map[string]string
	timers    []*sim.Event
	model     *Model
}

// NewRegion creates an empty region.
func NewRegion(name string) *Region {
	return &Region{
		Name:   name,
		states: make(map[string]*State),
	}
}

// Add inserts a state. The first top-level state added becomes the region's
// initial state unless SetInitial overrides it. Add panics on duplicate or
// invalid definitions so model bugs surface at construction time.
func (r *Region) Add(s *State) *Region {
	if s.Name == "" {
		panic("statemachine: state needs a name")
	}
	if _, dup := r.states[s.Name]; dup {
		panic(fmt.Sprintf("statemachine: duplicate state %q", s.Name))
	}
	for _, tr := range s.Transitions {
		if tr.After > 0 && tr.Event != "" {
			panic(fmt.Sprintf("statemachine: state %q: timed transition cannot also have an event trigger", s.Name))
		}
	}
	cp := *s
	r.states[s.Name] = &cp
	if s.Parent == "" {
		r.tops = append(r.tops, s.Name)
		if r.initial == "" {
			r.initial = s.Name
		}
	}
	return r
}

// SetInitial overrides the region's initial top-level state.
func (r *Region) SetInitial(name string) *Region {
	r.initial = name
	return r
}

// Current returns the current leaf state name ("" before Start).
func (r *Region) Current() string { return r.current }

// In reports whether the configuration includes the named state (the current
// leaf or any of its ancestors).
func (r *Region) In(name string) bool {
	for s := r.current; s != ""; {
		if s == name {
			return true
		}
		st, ok := r.states[s]
		if !ok {
			return false
		}
		s = st.Parent
	}
	return false
}

// validate checks referential integrity; returns all problems found.
func (r *Region) validate() []error {
	var errs []error
	if len(r.tops) == 0 {
		errs = append(errs, fmt.Errorf("region %q: no top-level states", r.Name))
	}
	if r.initial != "" {
		if _, ok := r.states[r.initial]; !ok {
			errs = append(errs, fmt.Errorf("region %q: initial state %q undefined", r.Name, r.initial))
		}
	}
	names := make([]string, 0, len(r.states))
	for n := range r.states {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.states[n]
		if s.Parent != "" {
			if _, ok := r.states[s.Parent]; !ok {
				errs = append(errs, fmt.Errorf("region %q: state %q: parent %q undefined", r.Name, n, s.Parent))
			}
		}
		if s.Initial != "" {
			child, ok := r.states[s.Initial]
			if !ok {
				errs = append(errs, fmt.Errorf("region %q: state %q: initial child %q undefined", r.Name, n, s.Initial))
			} else if child.Parent != s.Name {
				errs = append(errs, fmt.Errorf("region %q: state %q: initial child %q has parent %q", r.Name, n, s.Initial, child.Parent))
			}
		}
		for i, tr := range s.Transitions {
			if tr.Target != "" {
				if _, ok := r.states[tr.Target]; !ok {
					errs = append(errs, fmt.Errorf("region %q: state %q: transition %d targets undefined state %q", r.Name, n, i, tr.Target))
				}
			}
		}
		// Cycle check on parent chain.
		seen := map[string]bool{}
		for p := s.Parent; p != ""; {
			if seen[p] {
				errs = append(errs, fmt.Errorf("region %q: state %q: parent cycle", r.Name, n))
				break
			}
			seen[p] = true
			ps, ok := r.states[p]
			if !ok {
				break
			}
			p = ps.Parent
		}
	}
	return errs
}

// leafOf descends to the default leaf of s: through the remembered child
// for shallow-history states, through Initial otherwise.
func (r *Region) leafOf(name string) string {
	for {
		s := r.states[name]
		if s == nil {
			return name
		}
		next := s.Initial
		if s.History {
			if h, ok := r.lastChild[name]; ok {
				next = h
			}
		}
		if next == "" {
			return name
		}
		name = next
	}
}

// path returns the ancestor chain of name from top-level down to name.
func (r *Region) path(name string) []string {
	var rev []string
	for n := name; n != ""; {
		rev = append(rev, n)
		s := r.states[n]
		if s == nil {
			break
		}
		n = s.Parent
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// enter walks entry actions from the deepest already-active ancestor down to
// the default leaf of target, arming timers on each entered state.
func (r *Region) enter(target string, ctx *Context, fromDepth int) {
	leaf := r.leafOf(target)
	p := r.path(leaf)
	for i := fromDepth; i < len(p); i++ {
		s := r.states[p[i]]
		if s.Entry != nil {
			s.Entry(ctx)
		}
		r.armTimers(p[i])
	}
	r.current = leaf
	if r.model != nil && r.model.onConfig != nil {
		r.model.onConfig(r.Name, leaf)
	}
}

// exitTo runs exit actions from the current leaf up to (not including) the
// state at depth keepDepth in the current path, recording shallow history.
func (r *Region) exitTo(keepDepth int, ctx *Context) {
	p := r.path(r.current)
	for i := len(p) - 1; i >= keepDepth; i-- {
		s := r.states[p[i]]
		// Record shallow history only where it changes behaviour, so the
		// exploration state space is not inflated by inert bookkeeping.
		if i > 0 && r.states[p[i-1]].History {
			if r.lastChild == nil {
				r.lastChild = make(map[string]string)
			}
			r.lastChild[p[i-1]] = p[i]
		}
		if s.Exit != nil {
			s.Exit(ctx)
		}
	}
}

// armTimers schedules the After transitions of the named state.
func (r *Region) armTimers(name string) {
	if r.model == nil || r.model.kernel == nil {
		return
	}
	s := r.states[name]
	for i := range s.Transitions {
		tr := &s.Transitions[i]
		if tr.After <= 0 {
			continue
		}
		src, trCopy := name, *tr
		ev := r.model.kernel.Schedule(tr.After, func() {
			// Fire only if src is still in the active configuration.
			if !r.In(src) {
				return
			}
			r.model.fireTimed(r, src, trCopy)
		})
		r.timers = append(r.timers, ev)
	}
}

func (r *Region) cancelTimers() {
	for _, t := range r.timers {
		t.Cancel()
	}
	r.timers = r.timers[:0]
}

// Model is a set of parallel regions over one shared variable scope — the
// executable specification model.
type Model struct {
	Name    string
	regions []*Region
	vars    map[string]float64
	kernel  *sim.Kernel

	// hooks
	onConfig func(region, leaf string)
	onOutput func(e event.Event)

	invariants []Invariant
	seq        uint64
	started    bool
}

// Invariant is a named predicate over the model state that must always hold.
type Invariant struct {
	Name string
	Pred func(m *Model) bool
}

// NewModel builds a model from regions. kernel may be nil when the model is
// used without timed transitions (e.g. during exploration).
func NewModel(name string, kernel *sim.Kernel, regions ...*Region) (*Model, error) {
	m := &Model{Name: name, kernel: kernel, vars: make(map[string]float64)}
	var errs []error
	seen := map[string]bool{}
	for _, r := range regions {
		if seen[r.Name] {
			errs = append(errs, fmt.Errorf("duplicate region %q", r.Name))
		}
		seen[r.Name] = true
		errs = append(errs, r.validate()...)
		r.model = m
		m.regions = append(m.regions, r)
	}
	if len(regions) == 0 {
		errs = append(errs, fmt.Errorf("model %q: no regions", name))
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("statemachine: invalid model %q: %v", name, errs)
	}
	return m, nil
}

// MustModel is NewModel that panics on error; for statically-known models.
func MustModel(name string, kernel *sim.Kernel, regions ...*Region) *Model {
	m, err := NewModel(name, kernel, regions...)
	if err != nil {
		panic(err)
	}
	return m
}

// AddInvariant registers an always-true predicate, checked after every step
// during Run/Dispatch and during exploration.
func (m *Model) AddInvariant(name string, pred func(m *Model) bool) {
	m.invariants = append(m.invariants, Invariant{name, pred})
}

// OnConfig registers a hook called whenever a region changes leaf state.
func (m *Model) OnConfig(fn func(region, leaf string)) { m.onConfig = fn }

// OnOutput registers a hook receiving events emitted by model actions.
func (m *Model) OnOutput(fn func(e event.Event)) { m.onOutput = fn }

// Var reads a model variable.
func (m *Model) Var(name string) float64 { return m.vars[name] }

// SetVar writes a model variable (for test setup and exploration seeding).
func (m *Model) SetVar(name string, v float64) { m.vars[name] = v }

// Vars returns the live variable map (callers must not retain across steps).
func (m *Model) Vars() map[string]float64 { return m.vars }

// Region returns the named region, or nil.
func (m *Model) Region(name string) *Region {
	for _, r := range m.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Regions returns the model's regions in order.
func (m *Model) Regions() []*Region { return m.regions }

func (m *Model) now() sim.Time {
	if m.kernel != nil {
		return m.kernel.Now()
	}
	return 0
}

func (m *Model) ctx(ev event.Event) *Context {
	return &Context{
		Vars:  m.vars,
		Event: ev,
		Now:   m.now(),
		emit: func(name string, values []event.Value) {
			m.seq++
			out := event.Event{
				Kind: event.Output, Name: name, Source: m.Name,
				At: m.now(), Values: values, Seq: m.seq,
			}
			if m.onOutput != nil {
				m.onOutput(out)
			}
		},
	}
}

// Start enters the initial configuration of every region and runs completion
// transitions to quiescence.
func (m *Model) Start() error {
	if m.started {
		return fmt.Errorf("statemachine: model %q already started", m.Name)
	}
	m.started = true
	ctx := m.ctx(event.Event{})
	for _, r := range m.regions {
		r.enter(r.initial, ctx, 0)
	}
	m.settle()
	return m.checkInvariants()
}

// Dispatch feeds one event to every region (broadcast, as in Stateflow
// parallel states), then runs completion transitions to quiescence.
// It returns ErrInvariant if an invariant is violated afterwards.
func (m *Model) Dispatch(ev event.Event) error {
	if !m.started {
		return fmt.Errorf("statemachine: model %q not started", m.Name)
	}
	for _, r := range m.regions {
		m.step(r, ev)
	}
	m.settle()
	return m.checkInvariants()
}

// settle runs completion (eventless, untimed) transitions until none fire.
// A budget guards against livelock in buggy models.
func (m *Model) settle() {
	const budget = 10000
	for i := 0; i < budget; i++ {
		fired := false
		for _, r := range m.regions {
			if m.step(r, event.Event{}) {
				fired = true
			}
		}
		if !fired {
			return
		}
	}
	panic(fmt.Sprintf("statemachine: model %q: completion-transition livelock", m.Name))
}

// step tries to fire one transition in region r for event ev (empty name =
// completion). Leaf transitions take priority over ancestor transitions.
// Returns whether a transition fired.
func (m *Model) step(r *Region, ev event.Event) bool {
	if r.current == "" {
		return false
	}
	p := r.path(r.current)
	for depth := len(p) - 1; depth >= 0; depth-- {
		s := r.states[p[depth]]
		for i := range s.Transitions {
			tr := &s.Transitions[i]
			if tr.After > 0 || tr.Event != ev.Name {
				continue
			}
			ctx := m.ctx(ev)
			if tr.Guard != nil && !tr.Guard(ctx) {
				continue
			}
			m.fire(r, depth, *tr, ev)
			return true
		}
	}
	return false
}

// fireTimed fires a timed transition whose timer expired while src is active.
func (m *Model) fireTimed(r *Region, src string, tr Transition) {
	p := r.path(r.current)
	depth := -1
	for i, n := range p {
		if n == src {
			depth = i
			break
		}
	}
	if depth < 0 {
		return
	}
	ctx := m.ctx(event.Event{})
	if tr.Guard != nil && !tr.Guard(ctx) {
		return
	}
	m.fire(r, depth, tr, event.Event{})
	m.settle()
	if err := m.checkInvariants(); err != nil {
		panic(err)
	}
}

// fire executes one transition sourced at depth in the current path.
func (m *Model) fire(r *Region, depth int, tr Transition, ev event.Event) {
	ctx := m.ctx(ev)
	if tr.Target == "" { // internal transition
		if tr.Action != nil {
			tr.Action(ctx)
		}
		return
	}
	// Compute LCA depth between current path and target path.
	tp := r.path(tr.Target)
	cp := r.path(r.current)
	lca := 0
	for lca < len(tp) && lca < len(cp) && tp[lca] == cp[lca] {
		lca++
	}
	// Self- and descendant-targets re-enter the source: exit to source level.
	if lca > depth {
		lca = depth
	}
	r.cancelTimers()
	r.exitTo(lca, ctx)
	if tr.Action != nil {
		tr.Action(ctx)
	}
	r.enter(tr.Target, ctx, lca)
}

// ErrInvariant reports an invariant violation.
type ErrInvariant struct {
	Model     string
	Invariant string
	Config    map[string]string
}

func (e *ErrInvariant) Error() string {
	return fmt.Sprintf("statemachine: model %q: invariant %q violated in %v", e.Model, e.Invariant, e.Config)
}

func (m *Model) checkInvariants() error {
	for _, inv := range m.invariants {
		if !inv.Pred(m) {
			return &ErrInvariant{Model: m.Name, Invariant: inv.Name, Config: m.Config()}
		}
	}
	return nil
}

// Config returns the current leaf state of every region.
func (m *Model) Config() map[string]string {
	out := make(map[string]string, len(m.regions))
	for _, r := range m.regions {
		out[r.Name] = r.current
	}
	return out
}
