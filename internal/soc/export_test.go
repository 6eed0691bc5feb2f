package soc

import (
	"fmt"

	"trader/internal/sim"
)

// Requestors returns all requestors in registration order.
func (m *MemController) Requestors() []*Requestor {
	out := make([]*Requestor, len(m.order))
	for i, n := range m.order {
		out[i] = m.requestors[n]
	}
	return out
}

// SetArbiter swaps the arbitration policy at run time.
func (m *MemController) SetArbiter(a Arbiter) { m.arbiter = a }

// ArbiterName returns the active policy name.
func (m *MemController) ArbiterName() string { return m.arbiter.Name() }

// Release triggers one aperiodic job with the task's WCET.
func (c *CPU) Release(t *Task) {
	if t.cpu != c {
		panic(fmt.Sprintf("soc: release of task %q not attached to CPU %q", t.Name, c.Name))
	}
	c.release(t, t.WCET)
}

// QueueLen returns the number of ready (not running) jobs.
func (c *CPU) QueueLen() int { return len(c.ready) }

// TDMA serves fixed time slots in a repeating frame; a slot whose owner has
// no pending request idles (non-work-conserving, giving hard isolation).
type TDMA struct {
	// Slots lists the owner of each slot in frame order.
	Slots []string
	// SlotLen is the duration of one slot.
	SlotLen sim.Time
}

// Name implements Arbiter.
func (t *TDMA) Name() string { return "tdma" }

// Pick implements Arbiter.
func (t *TDMA) Pick(m *MemController) (string, sim.Time) {
	if len(t.Slots) == 0 || t.SlotLen <= 0 {
		return "", 0
	}
	now := m.kernel.Now()
	slot := int(now/t.SlotLen) % len(t.Slots)
	owner := t.Slots[slot]
	if r := m.requestors[owner]; r != nil && len(r.queue) > 0 {
		return owner, 0
	}
	// Idle until the next slot boundary.
	next := (now/t.SlotLen + 1) * t.SlotLen
	return "", next
}
