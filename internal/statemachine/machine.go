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
//
// A model has two halves. A Spec is the compiled, immutable definition —
// states, transitions, guards and actions, event names interned to ints,
// variables mapped to slots, ancestor paths precomputed per state — built
// once per product with Define and shared by every device. A Model is one
// instance of it (Spec.New): the current leaf per region, shallow history,
// the variable slots, armed timers and hooks, and nothing else.
package statemachine

import (
	"fmt"
	"slices"
	"sync"

	"trader/internal/event"
	"trader/internal/sim"
)

// Context is passed to guards and actions: the model's variable scope, the
// triggering event (zero for timed and completion transitions) and the
// virtual time. A Context lives for one Dispatch (or Start, or timer
// firing) and is then reused, so a guard or action must not keep it.
type Context struct {
	Event event.Event
	Now   sim.Time
	m     *Model
}

// Get returns a variable (0 if unset or undeclared).
func (c *Context) Get(name string) float64 { return c.m.Var(name) }

// Set assigns a variable. It panics on a name the spec did not declare: a
// model bug, like a state Add rejects.
func (c *Context) Set(name string, v float64) {
	if err := c.m.SetVar(name, v); err != nil {
		panic(err)
	}
}

// SetBool assigns 1/0.
func (c *Context) SetBool(name string, b bool) {
	v := 0.0
	if b {
		v = 1
	}
	c.Set(name, v)
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

// Region is one sequential state machine under definition. Build it with
// NewRegion/Add, then compile it into a Spec with Define.
type Region struct {
	Name    string
	states  []State
	index   map[string]int
	initial string // first top-level state added
}

// NewRegion creates an empty region.
func NewRegion(name string) *Region {
	return &Region{Name: name, index: make(map[string]int)}
}

// Add inserts a state. The first top-level state added becomes the region's
// initial state. Add panics on duplicate or invalid definitions so model
// bugs surface at construction time.
func (r *Region) Add(s *State) *Region {
	if s.Name == "" {
		panic("statemachine: state needs a name")
	}
	if _, dup := r.index[s.Name]; dup {
		panic(fmt.Sprintf("statemachine: duplicate state %q", s.Name))
	}
	for _, tr := range s.Transitions {
		if tr.After > 0 && tr.Event != "" {
			panic(fmt.Sprintf("statemachine: state %q: timed transition cannot also have an event trigger", s.Name))
		}
	}
	r.index[s.Name] = len(r.states)
	r.states = append(r.states, *s)
	if s.Parent == "" && r.initial == "" {
		r.initial = s.Name
	}
	return r
}

// state is a compiled State: names resolved to indices within its region.
type state struct {
	name            string
	parent, initial int32 // -1: top-level / leaf
	hist            int32 // a history state's slot after the regions in Model.leaf, else -1
	path            []int32
	entry, exit     func(*Context)
	trans           []transition
}

// transition is a compiled Transition.
type transition struct {
	event  int32 // interned name; 0 is completion (and timed)
	after  sim.Time
	guard  func(*Context) bool
	src    int32
	target int32 // -1: internal
	action func(*Context)
}

type region struct {
	name    string
	states  []state
	initial int32
}

// Spec is a compiled specification model: immutable once Define returns
// (AddInvariant belongs to the definition), and safe to share between any
// number of Models on any goroutines.
type Spec struct {
	Name       string
	regions    []region
	events     map[string]int32
	slots      map[string]int
	vars       []string // slot → name
	hists      int      // history states across all regions
	invariants []Invariant
}

// Invariant is a named predicate over the model state that must always hold.
type Invariant struct {
	Name string
	Pred func(m *Model) bool
}

// Define compiles regions into a Spec. vars names every variable the
// guards and actions read or write; each gets a slot (at most 64). Define
// reports every referential error it finds.
func Define(name string, vars []string, regions ...*Region) (*Spec, error) {
	s := &Spec{Name: name, events: map[string]int32{"": 0}, slots: make(map[string]int, len(vars)), vars: vars}
	var errs []error
	if len(vars) > 64 {
		errs = append(errs, fmt.Errorf("%d variables, at most 64", len(vars)))
	}
	for i, v := range vars {
		if _, dup := s.slots[v]; dup {
			errs = append(errs, fmt.Errorf("duplicate variable %q", v))
		}
		s.slots[v] = i
	}
	if len(regions) == 0 {
		errs = append(errs, fmt.Errorf("model %q: no regions", name))
	}
	for i, r := range regions {
		if slices.ContainsFunc(regions[:i], func(o *Region) bool { return o.Name == r.Name }) {
			errs = append(errs, fmt.Errorf("duplicate region %q", r.Name))
		}
		errs = append(errs, s.compile(r)...)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("statemachine: invalid model %q: %v", name, errs)
	}
	return s, nil
}

// MustDefine is Define that panics on error; for statically-known models.
func MustDefine(name string, vars []string, regions ...*Region) *Spec {
	s, err := Define(name, vars, regions...)
	if err != nil {
		panic(err)
	}
	return s
}

// compile resolves r's names to indices, checks referential integrity and
// precomputes every state's ancestor path.
func (s *Spec) compile(r *Region) []error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("region %q: "+format, append([]any{r.Name}, args...)...))
	}
	idx := func(name string) int32 {
		if i, ok := r.index[name]; ok {
			return int32(i)
		}
		return -1
	}
	cr := region{name: r.Name, initial: idx(r.initial), states: make([]state, len(r.states))}
	if cr.initial < 0 {
		bad("no top-level states")
	}
	for i, st := range r.states {
		cs := &cr.states[i]
		*cs = state{name: st.Name, parent: idx(st.Parent), initial: idx(st.Initial), hist: -1, entry: st.Entry, exit: st.Exit}
		if st.Parent != "" && cs.parent < 0 {
			bad("state %q: parent %q undefined", st.Name, st.Parent)
		}
		if st.Initial != "" && cs.initial < 0 {
			bad("state %q: initial child %q undefined", st.Name, st.Initial)
		} else if cs.initial >= 0 && r.states[cs.initial].Parent != st.Name {
			bad("state %q: initial child %q has parent %q", st.Name, st.Initial, r.states[cs.initial].Parent)
		}
		if st.History {
			cs.hist = int32(s.hists)
			s.hists++
		}
		for j, tr := range st.Transitions {
			ev, ok := s.events[tr.Event]
			if !ok {
				ev = int32(len(s.events))
				s.events[tr.Event] = ev
			}
			ct := transition{event: ev, after: tr.After, guard: tr.Guard, src: int32(i), target: idx(tr.Target), action: tr.Action}
			if tr.Target != "" && ct.target < 0 {
				bad("state %q: transition %d targets undefined state %q", st.Name, j, tr.Target)
			}
			cs.trans = append(cs.trans, ct)
		}
	}
	for i := range cr.states {
		var rev []int32
		for n := int32(i); n >= 0; n = cr.states[n].parent {
			if len(rev) > len(cr.states) {
				bad("state %q: parent cycle", cr.states[i].name)
				break
			}
			rev = append(rev, n)
		}
		slices.Reverse(rev)
		cr.states[i].path = rev
	}
	s.regions = append(s.regions, cr)
	return errs
}

// AddInvariant registers an always-true predicate, checked after every step
// during Dispatch and during exploration. It is part of the definition:
// call it before the Spec is shared.
func (s *Spec) AddInvariant(name string, pred func(m *Model) bool) {
	s.invariants = append(s.invariants, Invariant{name, pred})
}

// Model is one instance of a Spec — the executable specification model of
// one device. It holds per-device state only.
type Model struct {
	spec   *Spec
	kernel *sim.Kernel
	// leaf holds each region's current leaf (-1 before Start), then each
	// history state's remembered child (-1 until first exited). A Spec has
	// at least one region, so leaf[0] tells whether the model started.
	leaf   []int32
	vars   []float64
	set    uint64 // bit i: slot i was assigned
	timers []timer
	ctx    *Context // the step in progress; nil between steps

	// hooks
	onConfig func(region, leaf string)
	onOutput func(e event.Event)
	seq      uint64
}

// timer is an armed timed transition of one region.
type timer struct {
	region int
	ev     *sim.Event
}

// New instantiates the spec. kernel may be nil when the model is used
// without timed transitions (e.g. during exploration).
func (s *Spec) New(kernel *sim.Kernel) *Model {
	m := &Model{spec: s, kernel: kernel, leaf: make([]int32, len(s.regions)+s.hists), vars: make([]float64, len(s.vars))}
	for i := range m.leaf {
		m.leaf[i] = -1
	}
	return m
}

// OnConfig registers a hook called whenever a region changes leaf state.
func (m *Model) OnConfig(fn func(region, leaf string)) { m.onConfig = fn }

// Var reads a model variable (0 if unset or undeclared).
func (m *Model) Var(name string) float64 {
	if i, ok := m.spec.slots[name]; ok {
		return m.vars[i]
	}
	return 0
}

// SetVar writes a model variable; it fails on a name the spec did not
// declare.
func (m *Model) SetVar(name string, v float64) error {
	i, ok := m.spec.slots[name]
	if !ok {
		return fmt.Errorf("statemachine: model %q: variable %q not declared", m.spec.Name, name)
	}
	m.vars[i] = v
	m.set |= 1 << i
	return nil
}

// regionIndex returns the index of the named region, or -1.
func (m *Model) regionIndex(name string) int {
	return slices.IndexFunc(m.spec.regions, func(r region) bool { return r.name == name })
}

// Current returns the named region's current leaf state ("" before Start or
// for an unknown region).
func (m *Model) Current(region string) string {
	ri := m.regionIndex(region)
	if ri < 0 || m.leaf[ri] < 0 {
		return ""
	}
	return m.spec.regions[ri].states[m.leaf[ri]].name
}

// In reports whether the named region's configuration includes state (the
// current leaf or any of its ancestors).
func (m *Model) In(region, state string) bool {
	ri := m.regionIndex(region)
	return ri >= 0 && m.depth(ri, int32(m.spec.regions[ri].lookup(state))) >= 0
}

func (r *region) lookup(name string) int {
	return slices.IndexFunc(r.states, func(s state) bool { return s.name == name })
}

// depth returns the depth of state st in region ri's active path, or -1.
func (m *Model) depth(ri int, st int32) int {
	if m.leaf[ri] < 0 || st < 0 {
		return -1
	}
	return slices.Index(m.spec.regions[ri].states[m.leaf[ri]].path, st)
}

func (m *Model) now() sim.Time {
	if m.kernel != nil {
		return m.kernel.Now()
	}
	return 0
}

// contexts recycles Contexts, so a step allocates nothing and an idle
// Model carries none.
var contexts = sync.Pool{New: func() any { return new(Context) }}

// begin gives the model a Context for one step at ev; end(prev) returns it.
func (m *Model) begin(ev event.Event) (prev *Context) {
	prev = m.ctx
	m.ctx = contexts.Get().(*Context)
	*m.ctx = Context{Event: ev, Now: m.now(), m: m}
	return prev
}

func (m *Model) end(prev *Context) {
	*m.ctx = Context{}
	contexts.Put(m.ctx)
	m.ctx = prev
}

// leafOf descends to the default leaf of st: through the remembered child
// for shallow-history states, through Initial otherwise.
func (m *Model) leafOf(ri int, st int32) int32 {
	states := m.spec.regions[ri].states
	for {
		next := states[st].initial
		if h := states[st].hist; h >= 0 && m.leaf[len(m.spec.regions)+int(h)] >= 0 {
			next = m.leaf[len(m.spec.regions)+int(h)]
		}
		if next < 0 {
			return st
		}
		st = next
	}
}

// enter walks entry actions from the deepest already-active ancestor down to
// the default leaf of target, arming timers on each entered state.
func (m *Model) enter(ri int, target int32, fromDepth int) {
	r := &m.spec.regions[ri]
	leaf := m.leafOf(ri, target)
	for _, st := range r.states[leaf].path[fromDepth:] {
		if e := r.states[st].entry; e != nil {
			e(m.ctx)
		}
		m.armTimers(ri, st)
	}
	m.leaf[ri] = leaf
	if m.onConfig != nil {
		m.onConfig(r.name, r.states[leaf].name)
	}
}

// exitTo runs exit actions from the current leaf up to (not including) the
// state at depth keepDepth in the current path, recording shallow history.
func (m *Model) exitTo(ri int, keepDepth int) {
	states := m.spec.regions[ri].states
	p := states[m.leaf[ri]].path
	for i := len(p) - 1; i >= keepDepth; i-- {
		if i > 0 && states[p[i-1]].hist >= 0 {
			m.leaf[len(m.spec.regions)+int(states[p[i-1]].hist)] = p[i]
		}
		if x := states[p[i]].exit; x != nil {
			x(m.ctx)
		}
	}
}

// armTimers schedules the After transitions of state st.
func (m *Model) armTimers(ri int, st int32) {
	if m.kernel == nil {
		return
	}
	trans := m.spec.regions[ri].states[st].trans
	for i := range trans {
		tr := &trans[i]
		if tr.after <= 0 {
			continue
		}
		ev := m.kernel.Schedule(tr.after, func() {
			// Fire only if the source is still in the active configuration.
			if d := m.depth(ri, tr.src); d >= 0 {
				m.fireTimed(ri, d, tr)
			}
		})
		m.timers = append(m.timers, timer{ri, ev})
	}
}

func (m *Model) cancelTimers(ri int) {
	kept := m.timers[:0]
	for _, t := range m.timers {
		if t.region == ri {
			t.ev.Cancel()
		} else {
			kept = append(kept, t)
		}
	}
	m.timers = kept
}

// Start enters the initial configuration of every region and runs completion
// transitions to quiescence.
func (m *Model) Start() error {
	if m.leaf[0] >= 0 {
		return fmt.Errorf("statemachine: model %q already started", m.spec.Name)
	}
	defer m.end(m.begin(event.Event{}))
	for ri, r := range m.spec.regions {
		m.enter(ri, r.initial, 0)
	}
	m.settle()
	return m.checkInvariants()
}

// Dispatch feeds one event to every region (broadcast, as in Stateflow
// parallel states), then runs completion transitions to quiescence.
// It returns ErrInvariant if an invariant is violated afterwards.
func (m *Model) Dispatch(ev event.Event) error {
	if m.leaf[0] < 0 {
		return fmt.Errorf("statemachine: model %q not started", m.spec.Name)
	}
	defer m.end(m.begin(ev))
	if id, ok := m.spec.events[ev.Name]; ok {
		for ri := range m.spec.regions {
			m.step(ri, id)
		}
	}
	m.settle()
	return m.checkInvariants()
}

// settle runs completion (eventless, untimed) transitions until none fire.
// A budget guards against livelock in buggy models.
func (m *Model) settle() {
	m.ctx.Event = event.Event{}
	const budget = 10000
	for i := 0; i < budget; i++ {
		fired := false
		for ri := range m.spec.regions {
			if m.step(ri, 0) {
				fired = true
			}
		}
		if !fired {
			return
		}
	}
	panic(fmt.Sprintf("statemachine: model %q: completion-transition livelock", m.spec.Name))
}

// step tries to fire one transition in region ri for interned event ev (0 =
// completion). Leaf transitions take priority over ancestor transitions.
// Returns whether a transition fired.
func (m *Model) step(ri int, ev int32) bool {
	if m.leaf[ri] < 0 {
		return false
	}
	states := m.spec.regions[ri].states
	p := states[m.leaf[ri]].path
	for depth := len(p) - 1; depth >= 0; depth-- {
		trans := states[p[depth]].trans
		for i := range trans {
			tr := &trans[i]
			if tr.after > 0 || tr.event != ev || (tr.guard != nil && !tr.guard(m.ctx)) {
				continue
			}
			m.fire(ri, depth, tr)
			return true
		}
	}
	return false
}

// fireTimed fires a timed transition whose timer expired while its source
// is active at depth d.
func (m *Model) fireTimed(ri, d int, tr *transition) {
	defer m.end(m.begin(event.Event{}))
	if tr.guard != nil && !tr.guard(m.ctx) {
		return
	}
	m.fire(ri, d, tr)
	m.settle()
	if err := m.checkInvariants(); err != nil {
		panic(err)
	}
}

// fire executes one transition sourced at depth in the current path.
func (m *Model) fire(ri, depth int, tr *transition) {
	if tr.target < 0 { // internal transition
		if tr.action != nil {
			tr.action(m.ctx)
		}
		return
	}
	states := m.spec.regions[ri].states
	// Compute LCA depth between current path and target path.
	tp, cp := states[tr.target].path, states[m.leaf[ri]].path
	lca := 0
	for lca < len(tp) && lca < len(cp) && tp[lca] == cp[lca] {
		lca++
	}
	// Self- and descendant-targets re-enter the source: exit to source level.
	lca = min(lca, depth)
	m.cancelTimers(ri)
	m.exitTo(ri, lca)
	if tr.action != nil {
		tr.action(m.ctx)
	}
	m.enter(ri, tr.target, lca)
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
	for _, inv := range m.spec.invariants {
		if !inv.Pred(m) {
			return &ErrInvariant{Model: m.spec.Name, Invariant: inv.Name, Config: m.Config()}
		}
	}
	return nil
}

// Config returns the current leaf state of every region.
func (m *Model) Config() map[string]string {
	out := make(map[string]string, len(m.spec.regions))
	for _, r := range m.spec.regions {
		out[r.name] = m.Current(r.name)
	}
	return out
}
