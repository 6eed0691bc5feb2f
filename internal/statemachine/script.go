package statemachine

import (
	"fmt"

	"trader/internal/event"
)

// Script is a model test script (Sect. 4.2): a sequence of stimuli with
// expected model reactions, used to increase confidence in model fidelity.
type Script struct {
	Name  string
	Steps []ScriptStep
}

// ScriptStep feeds one event and asserts on the resulting model state.
type ScriptStep struct {
	// Event is the input event name to dispatch ("" dispatches nothing, so a
	// step can assert the initial configuration).
	Event string
	// Values are carried on the input event.
	Values []event.Value
	// ExpectState maps region name to the state that must be active
	// (current leaf or an ancestor of it) after the step.
	ExpectState map[string]string
	// ExpectVars maps variable names to exact expected values.
	ExpectVars map[string]float64
}

// ScriptFailure describes one failed assertion.
type ScriptFailure struct {
	Script string
	Step   int
	Detail string
}

func (f ScriptFailure) Error() string {
	return fmt.Sprintf("script %q step %d: %s", f.Script, f.Step, f.Detail)
}

// RunScript executes the script against the model (which must be started)
// and returns all assertion failures. The model is left in its post-script
// state; callers wanting isolation should build a fresh model per script.
func (m *Model) RunScript(s Script) []ScriptFailure {
	var fails []ScriptFailure
	for i, step := range s.Steps {
		if step.Event != "" {
			ev := event.Event{Kind: event.Input, Name: step.Event, Values: step.Values, At: m.now()}
			if err := m.Dispatch(ev); err != nil {
				fails = append(fails, ScriptFailure{s.Name, i, err.Error()})
			}
		}
		for region, want := range step.ExpectState {
			if m.regionIndex(region) < 0 {
				fails = append(fails, ScriptFailure{s.Name, i, fmt.Sprintf("unknown region %q", region)})
				continue
			}
			if !m.In(region, want) {
				fails = append(fails, ScriptFailure{s.Name, i,
					fmt.Sprintf("region %q in %q, want %q active", region, m.Current(region), want)})
			}
		}
		for name, want := range step.ExpectVars {
			if got := m.Var(name); got != want {
				fails = append(fails, ScriptFailure{s.Name, i,
					fmt.Sprintf("var %q = %g, want %g", name, got, want)})
			}
		}
	}
	return fails
}
