package statemachine

import (
	"testing"
	"testing/quick"

	"trader/internal/event"
)

// randomModel builds a small machine whose transition structure is derived
// from the seed bytes, with only valid targets — used to fuzz the engine.
func randomModel(structure []uint8) *Model {
	r := NewRegion("r")
	const nStates = 5
	names := []string{"s0", "s1", "s2", "s3", "s4"}
	events := []string{"e0", "e1", "e2"}
	type edge struct {
		from, to, ev int
	}
	var edges []edge
	for i := 0; i+2 < len(structure) && len(edges) < 12; i += 3 {
		edges = append(edges, edge{
			from: int(structure[i]) % nStates,
			to:   int(structure[i+1]) % nStates,
			ev:   int(structure[i+2]) % len(events),
		})
	}
	trs := make([][]Transition, nStates)
	for _, e := range edges {
		e := e
		trs[e.from] = append(trs[e.from], Transition{
			Event:  events[e.ev],
			Target: names[e.to],
			Action: func(c *Context) { c.Set("steps", c.Get("steps")+1) },
		})
	}
	for i, n := range names {
		r.Add(&State{Name: n, Transitions: trs[i]})
	}
	return mustModel("fuzz", nil, r)
}

// Property: for any machine shape and any event sequence, the current state
// is always one of the defined states and Dispatch never errors (no
// invariants registered) or panics.
func TestPropertyDispatchTotal(t *testing.T) {
	f := func(structure []uint8, inputs []uint8) bool {
		m := randomModel(structure)
		if err := m.Start(); err != nil {
			return false
		}
		valid := map[string]bool{"s0": true, "s1": true, "s2": true, "s3": true, "s4": true}
		for i, in := range inputs {
			if i >= 200 {
				break
			}
			ev := event.Event{Kind: event.Input, Name: []string{"e0", "e1", "e2", "zzz"}[int(in)%4]}
			if err := m.Dispatch(ev); err != nil {
				return false
			}
			if !valid[m.Current("r")] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore (the exploration mechanism) round-trips: after
// arbitrary steps, restoring the initial snapshot returns the exact initial
// configuration and variables.
func TestPropertySnapshotRestore(t *testing.T) {
	f := func(structure []uint8, inputs []uint8) bool {
		m := randomModel(structure)
		if err := m.Start(); err != nil {
			return false
		}
		before := m.CaptureState()
		beforeKey := before.key()
		for i, in := range inputs {
			if i >= 50 {
				break
			}
			_ = m.Dispatch(event.Event{Name: []string{"e0", "e1", "e2"}[int(in)%3]})
		}
		m.RestoreState(before)
		return m.CaptureState().key() == beforeKey
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: exploration visits at least the states reachable by any
// concrete random walk (soundness of the reachability analysis).
func TestPropertyExploreCoversRandomWalks(t *testing.T) {
	f := func(structure []uint8, inputs []uint8) bool {
		m := randomModel(structure)
		if err := m.Start(); err != nil {
			return false
		}
		res := m.Explore(ExploreOptions{Alphabet: []string{"e0", "e1", "e2"}, MaxDepth: 30})
		unreachable := map[string]bool{}
		for _, u := range res.Unreachable {
			unreachable[u] = true
		}
		// Walk concretely; no state on the walk may be "unreachable".
		m2 := randomModel(structure)
		if err := m2.Start(); err != nil {
			return false
		}
		for i, in := range inputs {
			if i >= 30 {
				break
			}
			_ = m2.Dispatch(event.Event{Name: []string{"e0", "e1", "e2"}[int(in)%3]})
			if unreachable["r/"+m2.Current("r")] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
