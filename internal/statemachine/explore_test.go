package statemachine

import (
	"strings"
	"testing"

	"trader/internal/event"
)

func exploreModel(t *testing.T) *Model {
	t.Helper()
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{{Event: "x", Target: "b"}}})
	r.Add(&State{Name: "b", Transitions: []Transition{{Event: "y", Target: "a"}}})
	r.Add(&State{Name: "orphan"}) // unreachable on purpose
	m := mustModel("ex", nil, r)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExploreReachabilityAndUnreachable(t *testing.T) {
	m := exploreModel(t)
	res := m.Explore(ExploreOptions{Alphabet: []string{"x", "y"}})
	if res.StatesVisited != 2 {
		t.Fatalf("StatesVisited = %d, want 2", res.StatesVisited)
	}
	if len(res.Unreachable) != 1 || res.Unreachable[0] != "r/orphan" {
		t.Fatalf("Unreachable = %v, want [r/orphan]", res.Unreachable)
	}
	if res.Truncated {
		t.Fatal("should not truncate")
	}
	// Model state restored after exploration.
	if m.Current("r") != "a" {
		t.Fatalf("explore must restore state; current = %q", m.Current("r"))
	}
}

func TestExploreInvariantViolation(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{{Event: "inc",
		Action: func(c *Context) { c.Set("n", c.Get("n")+1) }}}})
	m := mustModel("inv", nil, r)
	m.spec.AddInvariant("n<3", func(m *Model) bool { return m.Var("n") < 3 })
	_ = m.Start()
	res := m.Explore(ExploreOptions{Alphabet: []string{"inc"}, MaxDepth: 10})
	found := false
	for _, v := range res.Violations {
		if v.Kind == "invariant" && strings.Contains(v.Detail, "n<3") {
			found = true
			if len(v.Trace) != 3 {
				t.Fatalf("violation trace = %v, want 3 steps of inc", v.Trace)
			}
		}
	}
	if !found {
		t.Fatalf("no invariant violation found: %+v", res.Violations)
	}
}

func TestExploreNondeterminism(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{
		{Event: "e", Target: "b"},
		{Event: "e", Target: "c"},
	}})
	r.Add(&State{Name: "b"})
	r.Add(&State{Name: "c"})
	m := mustModel("nd", nil, r)
	_ = m.Start()
	res := m.Explore(ExploreOptions{Alphabet: []string{"e"}})
	found := false
	for _, v := range res.Violations {
		if v.Kind == "nondeterminism" {
			found = true
			if v.String() == "" {
				t.Fatal("violation should render")
			}
		}
	}
	if !found {
		t.Fatalf("nondeterminism not detected: %+v", res.Violations)
	}
}

func TestExploreGuardedNotNondeterministic(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{
		{Event: "e", Guard: func(c *Context) bool { return c.Get("flag") != 0 }, Target: "b"},
		{Event: "e", Guard: func(c *Context) bool { return c.Get("flag") == 0 }, Target: "c"},
	}})
	r.Add(&State{Name: "b"})
	r.Add(&State{Name: "c"})
	m := mustModel("g", nil, r)
	_ = m.Start()
	res := m.Explore(ExploreOptions{Alphabet: []string{"e"}})
	for _, v := range res.Violations {
		if v.Kind == "nondeterminism" {
			t.Fatalf("mutually exclusive guards flagged: %v", v)
		}
	}
}

func TestExploreDeadlock(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{{Event: "go", Target: "sink"}}})
	r.Add(&State{Name: "sink"}) // ignores everything
	m := mustModel("dl", nil, r)
	_ = m.Start()
	res := m.Explore(ExploreOptions{Alphabet: []string{"go"}})
	found := false
	for _, v := range res.Violations {
		if v.Kind == "deadlock" && strings.Contains(v.Detail, "sink") {
			found = true
		}
	}
	if !found {
		t.Fatalf("deadlock at sink not reported: %+v", res.Violations)
	}
}

func TestExploreTimedTransitions(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "wait", Transitions: []Transition{{After: 100, Target: "done"}}})
	r.Add(&State{Name: "done"})
	m := mustModel("timed", nil, r)
	_ = m.Start()
	res := m.Explore(ExploreOptions{Alphabet: nil})
	if res.StatesVisited != 2 {
		t.Fatalf("timed successor not explored: visited %d", res.StatesVisited)
	}
	if len(res.Unreachable) != 0 {
		t.Fatalf("Unreachable = %v", res.Unreachable)
	}
}

func TestExploreMaxStatesTruncates(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{{Event: "inc",
		Action: func(c *Context) { c.Set("n", c.Get("n")+1) }}}})
	m := mustModel("big", nil, r)
	_ = m.Start()
	res := m.Explore(ExploreOptions{Alphabet: []string{"inc"}, MaxStates: 5, MaxDepth: 1000})
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if res.StatesVisited != 5 {
		t.Fatalf("visited %d, want 5", res.StatesVisited)
	}
}

func TestExploreMaxDepthTruncates(t *testing.T) {
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{{Event: "inc",
		Action: func(c *Context) { c.Set("n", c.Get("n")+1) }}}})
	m := mustModel("deep", nil, r)
	_ = m.Start()
	res := m.Explore(ExploreOptions{Alphabet: []string{"inc"}, MaxDepth: 3, MaxStates: 1000})
	if !res.Truncated {
		t.Fatal("expected depth truncation")
	}
	if res.StatesVisited != 4 { // initial + 3 levels
		t.Fatalf("visited %d, want 4", res.StatesVisited)
	}
}

// The paper (Sect. 4.2) reports that feature-interaction bugs (dual screen ×
// teletext × OSD suppressing each other) are easy to introduce and that
// executable models plus checking catch them. This test seeds such a bug —
// teletext can be entered while the menu OSD is up, violating the "menu
// suppresses teletext" rule — and checks exploration finds it.
func TestExploreFindsFeatureInteractionBug(t *testing.T) {
	osd := NewRegion("osd")
	osd.Add(&State{Name: "none", Transitions: []Transition{
		{Event: "menu", Target: "menuOn", Action: func(c *Context) { c.Set("menu", 1) }}}})
	osd.Add(&State{Name: "menuOn", Transitions: []Transition{
		{Event: "menu", Target: "none", Action: func(c *Context) { c.Set("menu", 0) }}}})

	txt := NewRegion("teletext")
	txt.Add(&State{Name: "off", Transitions: []Transition{
		// BUG: missing guard "menu must be closed".
		{Event: "text", Target: "onT", Action: func(c *Context) { c.Set("txt", 1) }}}})
	txt.Add(&State{Name: "onT", Transitions: []Transition{
		{Event: "text", Target: "off", Action: func(c *Context) { c.Set("txt", 0) }}}})

	m := mustModel("tvfrag", nil, osd, txt)
	m.spec.AddInvariant("menu-suppresses-teletext", func(m *Model) bool {
		return !(m.Var("menu") == 1 && m.Var("txt") == 1)
	})
	_ = m.Start()
	res := m.Explore(ExploreOptions{Alphabet: []string{"menu", "text"}})
	found := false
	for _, v := range res.Violations {
		if v.Kind == "invariant" {
			found = true
		}
	}
	if !found {
		t.Fatal("feature-interaction bug not found by exploration")
	}

	// Fixed model: guard teletext on menu being closed.
	txt2 := NewRegion("teletext")
	txt2.Add(&State{Name: "off", Transitions: []Transition{
		{Event: "text", Guard: func(c *Context) bool { return c.Get("menu") == 0 },
			Target: "onT", Action: func(c *Context) { c.Set("txt", 1) }}}})
	txt2.Add(&State{Name: "onT", Transitions: []Transition{
		{Event: "text", Target: "off", Action: func(c *Context) { c.Set("txt", 0) }}}})
	// The symmetric interaction also needs fixing: opening the menu while
	// teletext is on must be suppressed too (or it would close teletext; we
	// model suppression, which is what the scenario in the paper describes).
	osd2 := NewRegion("osd")
	osd2.Add(&State{Name: "none", Transitions: []Transition{
		{Event: "menu", Guard: func(c *Context) bool { return c.Get("txt") == 0 },
			Target: "menuOn", Action: func(c *Context) { c.Set("menu", 1) }}}})
	osd2.Add(&State{Name: "menuOn", Transitions: []Transition{
		{Event: "menu", Target: "none", Action: func(c *Context) { c.Set("menu", 0) }}}})
	m2 := mustModel("tvfix", nil, osd2, txt2)
	m2.spec.AddInvariant("menu-suppresses-teletext", func(m *Model) bool {
		return !(m.Var("menu") == 1 && m.Var("txt") == 1)
	})
	_ = m2.Start()
	res2 := m2.Explore(ExploreOptions{Alphabet: []string{"menu", "text"}})
	for _, v := range res2.Violations {
		if v.Kind == "invariant" {
			t.Fatalf("fixed model still violates: %v", v)
		}
	}
}

func BenchmarkDispatch(b *testing.B) {
	r := NewRegion("r")
	r.Add(&State{Name: "a", Transitions: []Transition{{Event: "x", Target: "b"}}})
	r.Add(&State{Name: "b", Transitions: []Transition{{Event: "x", Target: "a"}}})
	m := mustModel("bench", nil, r)
	_ = m.Start()
	ev := event.Event{Name: "x"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Dispatch(ev)
	}
}

func BenchmarkExplore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := NewRegion("r")
		r.Add(&State{Name: "a", Transitions: []Transition{{Event: "inc",
			Action: func(c *Context) { c.Set("n", float64((int(c.Get("n"))+1)%50)) }}}})
		m := mustModel("bench", nil, r)
		_ = m.Start()
		m.Explore(ExploreOptions{Alphabet: []string{"inc"}, MaxDepth: 100})
	}
}
