package control

import "trader/internal/sim"

// Advance drives the controller's virtual clock to at, completing any
// restart whose latency has elapsed (closing out its downtime accounting).
// The clock otherwise only advances with report and ack timestamps, so a
// fleet that heals completely would leave its last restart dangling.
func (c *Controller) Advance(at sim.Time) { c.box.Do(func() { c.advanceTo(at) }) }
