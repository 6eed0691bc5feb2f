package statemachine

import (
	"fmt"
	"strings"
	"testing"

	"trader/internal/event"
	"trader/internal/sim"
)

// testVars declares every variable the test models of this package use.
var testVars = []string{"flag", "menu", "muted", "n", "on", "steps", "txt", "vol"}

// mustModel defines a one-off spec over testVars and instantiates it.
func mustModel(name string, k *sim.Kernel, regions ...*Region) *Model {
	return MustDefine(name, testVars, regions...).New(k)
}

// toggleModel builds a two-state machine: off -(power)-> on -(power)-> off.
func toggleModel(t *testing.T, k *sim.Kernel) *Model {
	t.Helper()
	r := NewRegion("power")
	r.Add(&State{
		Name:        "off",
		Entry:       func(c *Context) { c.Set("on", 0) },
		Transitions: []Transition{{Event: "power", Target: "on"}},
	})
	r.Add(&State{
		Name:        "on",
		Entry:       func(c *Context) { c.Set("on", 1) },
		Transitions: []Transition{{Event: "power", Target: "off"}},
	})
	spec, err := Define("toggle", testVars, r)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.New(k)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	return m
}

func dispatch(t *testing.T, m *Model, name string) {
	t.Helper()
	if err := m.Dispatch(event.Event{Kind: event.Input, Name: name}); err != nil {
		t.Fatalf("Dispatch(%s): %v", name, err)
	}
}

func TestToggle(t *testing.T) {
	m := toggleModel(t, nil)
	if m.Current("power") != "off" {
		t.Fatalf("initial = %q, want off", m.Current("power"))
	}
	if m.Var("on") != 0 {
		t.Fatal("entry action of initial state did not run")
	}
	dispatch(t, m, "power")
	if m.Current("power") != "on" || m.Var("on") != 1 {
		t.Fatalf("after power: state=%q on=%v", m.Current("power"), m.Var("on"))
	}
	dispatch(t, m, "power")
	if m.Current("power") != "off" {
		t.Fatal("second power should toggle back off")
	}
}

func TestUnknownEventIgnored(t *testing.T) {
	m := toggleModel(t, nil)
	dispatch(t, m, "bogus")
	if m.Current("power") != "off" {
		t.Fatal("unknown event must not change state")
	}
}

func TestHierarchyEntryExitOrder(t *testing.T) {
	var trace []string
	log := func(s string) func(*Context) {
		return func(*Context) { trace = append(trace, s) }
	}
	r := NewRegion("r")
	r.Add(&State{Name: "A", Initial: "A1", Entry: log("+A"), Exit: log("-A")})
	r.Add(&State{Name: "A1", Parent: "A", Entry: log("+A1"), Exit: log("-A1"),
		Transitions: []Transition{{Event: "go", Target: "B1"}}})
	r.Add(&State{Name: "B", Initial: "B1", Entry: log("+B"), Exit: log("-B")})
	r.Add(&State{Name: "B1", Parent: "B", Entry: log("+B1"), Exit: log("-B1")})
	m := mustModel("h", nil, r)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	dispatch(t, m, "go")
	want := "+A,+A1,-A1,-A,+B,+B1"
	if got := strings.Join(trace, ","); got != want {
		t.Fatalf("trace = %s, want %s", got, want)
	}
	if !m.In("r", "B") || !m.In("r", "B1") {
		t.Fatal("In(B)/In(B1) should hold after transition")
	}
}

func TestTransitionWithinParentKeepsParentActive(t *testing.T) {
	var trace []string
	log := func(s string) func(*Context) {
		return func(*Context) { trace = append(trace, s) }
	}
	r := NewRegion("r")
	r.Add(&State{Name: "P", Initial: "X", Entry: log("+P"), Exit: log("-P")})
	r.Add(&State{Name: "X", Parent: "P", Exit: log("-X"),
		Transitions: []Transition{{Event: "next", Target: "Y"}}})
	r.Add(&State{Name: "Y", Parent: "P", Entry: log("+Y")})
	m := mustModel("p", nil, r)
	_ = m.Start()
	trace = nil
	dispatch(t, m, "next")
	want := "-X,+Y"
	if got := strings.Join(trace, ","); got != want {
		t.Fatalf("trace = %s, want %s (parent must not exit)", got, want)
	}
}

func TestAncestorTransitionAndLeafPriority(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "P", Initial: "X",
		Transitions: []Transition{{Event: "e", Target: "Q"}}})
	r.Add(&State{Name: "X", Parent: "P",
		Transitions: []Transition{{Event: "e", Target: "Y"}}})
	r.Add(&State{Name: "Y", Parent: "P"})
	r.Add(&State{Name: "Q"})
	m := mustModel("prio", nil, r)
	_ = m.Start()
	dispatch(t, m, "e")
	if cur := m.Current("r"); cur != "Y" {
		t.Fatalf("leaf transition should win; current = %q", cur)
	}
	dispatch(t, m, "e") // now only ancestor P has `e`
	if cur := m.Current("r"); cur != "Q" {
		t.Fatalf("ancestor transition should fire from Y; current = %q", cur)
	}
}

func TestGuardsAndActions(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "idle", Transitions: []Transition{
		{Event: "vol", Guard: func(c *Context) bool { v, _ := c.Event.Get("delta"); return v > 0 },
			Action: func(c *Context) { c.Set("vol", c.Get("vol")+1) }},
		{Event: "vol", Guard: func(c *Context) bool { v, _ := c.Event.Get("delta"); return v < 0 },
			Action: func(c *Context) { c.Set("vol", c.Get("vol")-1) }},
	}})
	m := mustModel("g", nil, r)
	_ = m.Start()
	up := event.Event{Name: "vol"}.With("delta", 1)
	down := event.Event{Name: "vol"}.With("delta", -1)
	for i := 0; i < 3; i++ {
		if err := m.Dispatch(up); err != nil {
			t.Fatal(err)
		}
	}
	_ = m.Dispatch(down)
	if m.Var("vol") != 2 {
		t.Fatalf("vol = %v, want 2", m.Var("vol"))
	}
}

func TestInternalTransitionNoExitEntry(t *testing.T) {
	entries := 0
	r := NewRegion("r")
	r.Add(&State{Name: "s",
		Entry: func(*Context) { entries++ },
		Transitions: []Transition{
			{Event: "tick", Action: func(c *Context) { c.Set("n", c.Get("n")+1) }},
		}})
	m := mustModel("i", nil, r)
	_ = m.Start()
	dispatch(t, m, "tick")
	dispatch(t, m, "tick")
	if entries != 1 {
		t.Fatalf("entries = %d, want 1 (internal transitions must not re-enter)", entries)
	}
	if m.Var("n") != 2 {
		t.Fatalf("n = %v, want 2", m.Var("n"))
	}
}

func TestCompletionTransitions(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{{Event: "go", Target: "b"}}})
	r.Add(&State{Name: "b", Transitions: []Transition{{Target: "c"}}}) // completion
	r.Add(&State{Name: "c"})
	m := mustModel("c", nil, r)
	_ = m.Start()
	dispatch(t, m, "go")
	if cur := m.Current("r"); cur != "c" {
		t.Fatalf("completion transition should chain to c; current = %q", cur)
	}
}

func TestCompletionLivelockPanics(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{{Target: "b"}}})
	r.Add(&State{Name: "b", Transitions: []Transition{{Target: "a"}}})
	m := mustModel("live", nil, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected livelock panic")
		}
	}()
	_ = m.Start()
}

func TestTimedTransition(t *testing.T) {
	k := sim.NewKernel(1)
	r := NewRegion("r")
	r.Add(&State{Name: "armed", Transitions: []Transition{
		{After: 100, Target: "fired"},
		{Event: "cancel", Target: "safe"},
	}})
	r.Add(&State{Name: "fired"})
	r.Add(&State{Name: "safe"})
	m := mustModel("t", k, r)
	_ = m.Start()
	k.Run(99)
	if cur := m.Current("r"); cur != "armed" {
		t.Fatalf("too early: %q", cur)
	}
	k.Run(100)
	if cur := m.Current("r"); cur != "fired" {
		t.Fatalf("after 100: %q, want fired", cur)
	}
}

func TestTimedTransitionCancelledByExit(t *testing.T) {
	k := sim.NewKernel(1)
	r := NewRegion("r")
	r.Add(&State{Name: "armed", Transitions: []Transition{
		{After: 100, Target: "fired"},
		{Event: "cancel", Target: "safe"},
	}})
	r.Add(&State{Name: "fired"})
	r.Add(&State{Name: "safe"})
	m := mustModel("t2", k, r)
	_ = m.Start()
	k.Run(50)
	dispatch(t, m, "cancel")
	k.RunAll()
	if cur := m.Current("r"); cur != "safe" {
		t.Fatalf("timer should have been cancelled; current = %q", cur)
	}
}

func TestTimedTransitionRearmOnReentry(t *testing.T) {
	k := sim.NewKernel(1)
	r := NewRegion("r")
	count := 0
	r.Add(&State{Name: "s", Transitions: []Transition{
		{After: 10, Target: "s", Action: func(*Context) { count++ }},
	}})
	m := mustModel("t3", k, r)
	_ = m.Start()
	k.Run(35)
	if count != 3 {
		t.Fatalf("self timed transition fired %d times in 35, want 3", count)
	}
}

func TestParallelRegionsSharedVars(t *testing.T) {
	audio := NewRegion("audio")
	audio.Add(&State{Name: "unmuted", Transitions: []Transition{{Event: "mute", Target: "muted",
		Action: func(c *Context) { c.Set("muted", 1) }}}})
	audio.Add(&State{Name: "muted", Transitions: []Transition{{Event: "mute", Target: "unmuted",
		Action: func(c *Context) { c.Set("muted", 0) }}}})
	screen := NewRegion("screen")
	screen.Add(&State{Name: "single", Transitions: []Transition{{Event: "dual", Target: "dualS"}}})
	screen.Add(&State{Name: "dualS", Transitions: []Transition{{Event: "dual", Target: "single"}}})
	m := mustModel("tv", nil, audio, screen)
	_ = m.Start()
	dispatch(t, m, "mute")
	dispatch(t, m, "dual")
	if m.Current("audio") != "muted" || m.Current("screen") != "dualS" {
		t.Fatalf("config = %v", m.Config())
	}
	if m.Var("muted") != 1 {
		t.Fatal("shared var not visible")
	}
}

func TestInvariantViolationReported(t *testing.T) {
	m := toggleModel(t, nil)
	m.spec.AddInvariant("never-on", func(m *Model) bool { return m.Var("on") == 0 })
	err := m.Dispatch(event.Event{Name: "power"})
	if err == nil {
		t.Fatal("expected invariant violation")
	}
	ie, ok := err.(*ErrInvariant)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ie.Invariant != "never-on" {
		t.Fatalf("invariant = %q", ie.Invariant)
	}
}

func TestEmitOutput(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "s", Transitions: []Transition{
		{Event: "key", Action: func(c *Context) { c.Emit("beep", event.Value{Name: "vol", V: 3}) }},
	}})
	m := mustModel("e", nil, r)
	var got []event.Event
	m.OnOutput(func(e event.Event) { got = append(got, e) })
	_ = m.Start()
	dispatch(t, m, "key")
	if len(got) != 1 || got[0].Name != "beep" {
		t.Fatalf("outputs = %v", got)
	}
	if v, _ := got[0].Get("vol"); v != 3 {
		t.Fatal("payload lost")
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Region
	}{
		{"undefined target", func() *Region {
			r := NewRegion("r")
			r.Add(&State{Name: "a", Transitions: []Transition{{Event: "e", Target: "nope"}}})
			return r
		}},
		{"undefined parent", func() *Region {
			r := NewRegion("r")
			r.Add(&State{Name: "a", Parent: "ghost"})
			r.Add(&State{Name: "top"})
			return r
		}},
		{"initial child wrong parent", func() *Region {
			r := NewRegion("r")
			r.Add(&State{Name: "a", Initial: "b"})
			r.Add(&State{Name: "b"})
			return r
		}},
		{"empty region", func() *Region { return NewRegion("r") }},
	}
	for _, tc := range cases {
		if _, err := Define("m", testVars, tc.build()); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	ok := func() *Region { return NewRegion("r").Add(&State{Name: "a"}) }
	if _, err := Define("m", []string{"x", "x"}, ok()); err == nil {
		t.Error("duplicate variable: expected validation error")
	}
	many := make([]string, 65)
	for i := range many {
		many[i] = fmt.Sprint("v", i)
	}
	if _, err := Define("m", many, ok()); err == nil {
		t.Error("65 variables: expected validation error")
	}
	if _, err := Define("m", nil, ok(), ok()); err == nil {
		t.Error("duplicate region: expected validation error")
	}
}

// An action writing a variable the spec did not declare is a model bug: it
// panics with the name, like a bad Add, instead of growing the scope.
func TestUndeclaredVariablePanics(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{{Event: "e", Action: func(c *Context) { c.Set("ghost", 1) }}}})
	m := mustModel("m", nil, r)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), `"ghost" not declared`) {
			t.Fatalf("recovered %v, want an undeclared-variable panic", p)
		}
	}()
	_ = m.Dispatch(event.Event{Name: "e"})
}

func TestAddPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() {
		r := NewRegion("r")
		r.Add(&State{Name: "a"})
		r.Add(&State{Name: "a"})
	})
	mustPanic("unnamed", func() { NewRegion("r").Add(&State{}) })
	mustPanic("timed+event", func() {
		NewRegion("r").Add(&State{Name: "a", Transitions: []Transition{{Event: "e", After: 5, Target: "a"}}})
	})
}

func TestDispatchBeforeStart(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "a"})
	m := mustModel("m", nil, r)
	if err := m.Dispatch(event.Event{Name: "e"}); err == nil {
		t.Fatal("Dispatch before Start should error")
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err == nil {
		t.Fatal("double Start should error")
	}
}

func TestRunScript(t *testing.T) {
	m := toggleModel(t, nil)
	fails := m.RunScript(Script{Name: "ok", Steps: []ScriptStep{
		{ExpectState: map[string]string{"power": "off"}},
		{Event: "power", ExpectState: map[string]string{"power": "on"}, ExpectVars: map[string]float64{"on": 1}},
		{Event: "power", ExpectVars: map[string]float64{"on": 0}},
	}})
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
	m2 := toggleModel(t, nil)
	fails = m2.RunScript(Script{Name: "bad", Steps: []ScriptStep{
		{Event: "power", ExpectState: map[string]string{"power": "off"}},
		{Event: "power", ExpectVars: map[string]float64{"on": 42}},
		{ExpectState: map[string]string{"ghost": "x"}},
	}})
	if len(fails) != 3 {
		t.Fatalf("failures = %v, want 3", fails)
	}
	if fails[0].Error() == "" {
		t.Fatal("failure should render")
	}
}
