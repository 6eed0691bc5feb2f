package modecheck

// Detach unsubscribes from the bus.
func (c *Checker) Detach() {
	if c.sub != nil {
		c.sub.Unsubscribe()
		c.sub = nil
	}
}

// Mode returns the last reported mode of a component ("" if unseen).
func (c *Checker) Mode(component string) string { return c.modes[component] }

// Recheck re-evaluates every rule against the current modes (time-based
// checking, for rules that can be violated without any new mode event).
func (c *Checker) Recheck() {
	for _, r := range c.rules {
		c.evaluate(r)
	}
}
