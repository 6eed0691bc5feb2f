package statemachine

import "trader/internal/event"

// Emit publishes a model output event (expected behaviour).
func (c *Context) Emit(name string, values ...event.Value) {
	m := c.m
	m.seq++
	if m.onOutput != nil {
		m.onOutput(event.Event{
			Kind: event.Output, Name: name, Source: m.spec.Name,
			At: m.now(), Values: values, Seq: m.seq,
		})
	}
}

// OnOutput registers a hook receiving events emitted by model actions.
func (m *Model) OnOutput(fn func(e event.Event)) { m.onOutput = fn }
