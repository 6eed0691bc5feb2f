package statemachine

import (
	"testing"

	"trader/internal/event"
)

// menuModel: a settings menu with shallow history — leaving and re-entering
// the menu resumes the last visited page (the standard TV OSD behaviour).
func menuModel(t *testing.T, history bool) *Model {
	t.Helper()
	r := NewRegion("ui")
	r.Add(&State{Name: "watch", Transitions: []Transition{
		{Event: "menu", Target: "menuS"},
	}})
	r.Add(&State{Name: "menuS", Initial: "picture", History: history, Transitions: []Transition{
		{Event: "menu", Target: "watch"},
	}})
	r.Add(&State{Name: "picture", Parent: "menuS", Transitions: []Transition{
		{Event: "next", Target: "sound"},
	}})
	r.Add(&State{Name: "sound", Parent: "menuS", Transitions: []Transition{
		{Event: "next", Target: "network"},
	}})
	r.Add(&State{Name: "network", Parent: "menuS"})
	m := mustModel("menu", nil, r)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestShallowHistoryResumesLastPage(t *testing.T) {
	m := menuModel(t, true)
	send := func(name string) {
		if err := m.Dispatch(event.Event{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	send("menu") // open → picture
	send("next") // → sound
	send("menu") // close
	if cur := m.Current("ui"); cur != "watch" {
		t.Fatalf("current = %q", cur)
	}
	send("menu") // reopen: history resumes "sound"
	if cur := m.Current("ui"); cur != "sound" {
		t.Fatalf("history re-entry = %q, want sound", cur)
	}
}

func TestNoHistoryRestartsAtInitial(t *testing.T) {
	m := menuModel(t, false)
	send := func(name string) { _ = m.Dispatch(event.Event{Name: name}) }
	send("menu")
	send("next")
	send("menu")
	send("menu")
	if cur := m.Current("ui"); cur != "picture" {
		t.Fatalf("non-history re-entry = %q, want picture", cur)
	}
}

func TestHistoryIsPartOfExploredState(t *testing.T) {
	// With history, "watch" is reachable with three distinct resume
	// targets, so exploration must see more states than without.
	with := menuModel(t, true).Explore(ExploreOptions{Alphabet: []string{"menu", "next"}})
	without := menuModel(t, false).Explore(ExploreOptions{Alphabet: []string{"menu", "next"}})
	if with.StatesVisited <= without.StatesVisited {
		t.Fatalf("history states not distinguished: with=%d without=%d",
			with.StatesVisited, without.StatesVisited)
	}
	if len(with.Unreachable) != 0 || len(without.Unreachable) != 0 {
		t.Fatalf("unreachable: %v / %v", with.Unreachable, without.Unreachable)
	}
}

func TestHistorySurvivesSnapshotRestore(t *testing.T) {
	m := menuModel(t, true)
	send := func(name string) { _ = m.Dispatch(event.Event{Name: name}) }
	send("menu")
	send("next") // in sound
	snap := m.CaptureState()
	send("next") // in network
	send("menu") // close (history = network)
	m.RestoreState(snap)
	send("menu") // close from restored "sound"
	send("menu") // reopen: must resume sound, not network
	if cur := m.Current("ui"); cur != "sound" {
		t.Fatalf("restored history re-entry = %q, want sound", cur)
	}
}

// TestRecordLoadRoundTrip: the name-keyed record a checkpoint stores —
// assigned variables, current leaves, remembered history — placed into a
// fresh instance of the same spec with Forget, SetVar and SetState gives
// back the exact state, and malformed entries are refused.
func TestRecordLoadRoundTrip(t *testing.T) {
	m := menuModel(t, true)
	for _, e := range []string{"menu", "next", "menu"} { // history: sound
		_ = m.Dispatch(event.Event{Name: e})
	}
	_ = m.SetVar("vol", 7)
	var vars []string
	var states [][2]string
	m.Record(func(name string, v float64) {
		vars = append(vars, name)
		if err := m.SetVar(name, v); err != nil {
			t.Fatal(err)
		}
	}, func(key, value string) { states = append(states, [2]string{key, value}) })
	if len(vars) != 1 || vars[0] != "vol" {
		t.Fatalf("recorded variables %v, want only the assigned vol", vars)
	}
	if want := [][2]string{{"r:ui", "watch"}, {"h:ui/menuS", "sound"}}; len(states) != 2 || states[0] != want[0] || states[1] != want[1] {
		t.Fatalf("recorded states %v, want %v", states, want)
	}

	fresh := m.spec.New(nil)
	if err := fresh.Start(); err != nil {
		t.Fatal(err)
	}
	_ = fresh.Dispatch(event.Event{Name: "menu"}) // a state the load must replace
	fresh.Forget()
	if err := fresh.SetVar("vol", 7); err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if err := fresh.SetState(st[0], st[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fresh.CaptureState().key(), m.CaptureState().key(); got != want {
		t.Fatal("loaded state differs from the recorded one")
	}
	for _, bad := range [][2]string{{"r:ghost", "watch"}, {"r:ui", "nope"}, {"h:ui/watch", "sound"}, {"x:ui", "watch"}} {
		if err := fresh.SetState(bad[0], bad[1]); err == nil {
			t.Errorf("SetState(%q, %q) accepted", bad[0], bad[1])
		}
	}
	if err := fresh.SetVar("undeclared", 1); err == nil {
		t.Error("SetVar of an undeclared variable accepted")
	}
}
