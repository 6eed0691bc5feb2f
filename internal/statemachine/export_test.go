package statemachine

import "trader/internal/event"

// Emit publishes a model output event (expected behaviour).
func (c *Context) Emit(name string, values ...event.Value) {
	if c.emit != nil {
		c.emit(name, values)
	}
}

// OnOutput registers a hook receiving events emitted by model actions.
func (m *Model) OnOutput(fn func(e event.Event)) { m.onOutput = fn }
