// Package recovery implements the partial-recovery framework of Sect. 4.5
// (University of Twente): the system is partitioned into *recoverable
// units* that can be killed and restarted independently; a *communication
// manager* routes inter-unit messages and queues traffic aimed at a unit
// that is down; a *recovery manager* executes recovery actions (kill,
// restart, escalate) and accounts downtime. The paper reports that "after
// some refactoring of the system, independent recovery of parts of the
// system is possible without large overhead" — the overhead and
// recovery-time experiments (E6) measure exactly that on this
// implementation.
package recovery

import (
	"fmt"
	"sort"

	"trader/internal/sim"
)

// UnitState is a recoverable unit's lifecycle state.
type UnitState int

// Unit lifecycle states.
const (
	Running UnitState = iota
	Killed
	Restarting
)

// String returns the state name.
func (s UnitState) String() string {
	switch s {
	case Running:
		return "running"
	case Killed:
		return "killed"
	case Restarting:
		return "restarting"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Unit is one recoverable unit.
type Unit struct {
	Name string
	// OnKill tears the unit down (detach tasks, reset modes). Must be
	// idempotent.
	OnKill func()
	// OnRestart brings the unit back up; it runs RestartLatency after the
	// kill (the restart cost).
	OnRestart func()
	// RestartLatency is the virtual time a restart takes.
	RestartLatency sim.Time
	// DependsOn lists units that must be recovered when this unit is
	// recovered with scope Subtree (e.g. display depends on acquisition).
	DependsOn []string

	state UnitState
	// Recoveries counts completed restarts.
	Recoveries uint64
	// Downtime accumulates time spent not Running.
	Downtime  sim.Time
	downSince sim.Time
}

// State returns the unit's current state.
func (u *Unit) State() UnitState { return u.state }

// Message is an inter-unit message.
type Message struct {
	From, To string
	Name     string
	Payload  float64
}

// CommManager routes messages between units. Messages to a unit that is not
// Running are queued (up to QueueCap per unit) and flushed on restart —
// "a communication manager, which controls the communication between
// recoverable units".
type CommManager struct {
	mgr      *Manager
	handlers map[string]func(Message)
	queues   map[string][]Message
	// QueueCap bounds each unit's hold-back queue (0 = 1024).
	QueueCap int
	// Delivered, Queued and Dropped count message outcomes.
	Delivered uint64
	Queued    uint64
	Dropped   uint64
}

// Handle registers the message handler for a unit.
func (cm *CommManager) Handle(unit string, fn func(Message)) {
	cm.handlers[unit] = fn
}

// Send routes a message. Delivery is synchronous when the destination is
// Running; otherwise the message is queued for the restart flush.
func (cm *CommManager) Send(m Message) {
	u := cm.mgr.units[m.To]
	if u == nil {
		panic(fmt.Sprintf("recovery: send to unknown unit %q", m.To))
	}
	if u.state == Running {
		cm.Delivered++
		if h := cm.handlers[m.To]; h != nil {
			h(m)
		}
		return
	}
	cap := cm.QueueCap
	if cap <= 0 {
		cap = 1024
	}
	if len(cm.queues[m.To]) >= cap {
		cm.Dropped++
		return
	}
	cm.Queued++
	cm.queues[m.To] = append(cm.queues[m.To], m)
}

// flush delivers a unit's held-back messages after restart.
func (cm *CommManager) flush(unit string) {
	q := cm.queues[unit]
	cm.queues[unit] = nil
	h := cm.handlers[unit]
	for _, m := range q {
		cm.Delivered++
		if h != nil {
			h(m)
		}
	}
}

// Scope selects how much of the system one recovery action restarts.
type Scope int

// Recovery scopes, in escalation order.
const (
	// UnitOnly restarts just the failed unit.
	UnitOnly Scope = iota
	// Subtree restarts the unit and its transitive dependents.
	Subtree
	// Full restarts every unit (the classic whole-system reboot the
	// framework is designed to avoid).
	Full
)

// String returns the scope name.
func (s Scope) String() string {
	switch s {
	case UnitOnly:
		return "unit"
	case Subtree:
		return "subtree"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// Manager is the recovery manager: it owns the units and executes recovery
// actions on the kernel.
type Manager struct {
	kernel *sim.Kernel
	units  map[string]*Unit
	order  []string
	comm   *CommManager

	// RecoveriesStarted / RecoveriesCompleted count actions.
	RecoveriesStarted   uint64
	RecoveriesCompleted uint64
	// RecoveryTime collects per-action wall time (seconds, virtual).
	RecoveryTime sim.Series
}

// NewManager creates a recovery manager.
func NewManager(kernel *sim.Kernel) *Manager {
	m := &Manager{kernel: kernel, units: make(map[string]*Unit)}
	m.comm = &CommManager{
		mgr:      m,
		handlers: make(map[string]func(Message)),
		queues:   make(map[string][]Message),
	}
	return m
}

// Comm returns the communication manager.
func (m *Manager) Comm() *CommManager { return m.comm }

// AddUnit registers a recoverable unit (initially Running).
func (m *Manager) AddUnit(u *Unit) {
	if u.Name == "" {
		panic("recovery: unit needs a name")
	}
	if _, dup := m.units[u.Name]; dup {
		panic(fmt.Sprintf("recovery: duplicate unit %q", u.Name))
	}
	u.state = Running
	m.units[u.Name] = u
	m.order = append(m.order, u.Name)
}

// Unit returns the named unit, or nil.
func (m *Manager) Unit(name string) *Unit { return m.units[name] }

// Units returns unit names in registration order.
func (m *Manager) Units() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// dependents returns the transitive closure of units depending on name
// (units listing it in DependsOn), sorted for determinism.
func (m *Manager) dependents(name string) []string {
	closed := map[string]bool{name: true}
	changed := true
	for changed {
		changed = false
		for _, n := range m.order {
			if closed[n] {
				continue
			}
			for _, d := range m.units[n].DependsOn {
				if closed[d] {
					closed[n] = true
					changed = true
					break
				}
			}
		}
	}
	delete(closed, name)
	out := make([]string, 0, len(closed))
	for n := range closed {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Recover executes a recovery action for the named unit at the given scope.
// It kills the affected units immediately and schedules their restarts after
// their RestartLatency; queued messages flush when each unit comes back.
// Recovering an already-recovering unit is a no-op (the in-flight recovery
// continues).
func (m *Manager) Recover(name string, scope Scope) error {
	u := m.units[name]
	if u == nil {
		return fmt.Errorf("recovery: unknown unit %q", name)
	}
	if u.state != Running {
		return nil // recovery already in progress
	}
	var victims []string
	switch scope {
	case UnitOnly:
		victims = []string{name}
	case Subtree:
		victims = append([]string{name}, m.dependents(name)...)
	case Full:
		victims = m.Units()
	}
	m.RecoveriesStarted++
	started := m.kernel.Now()
	remaining := len(victims)
	for _, v := range victims {
		vu := m.units[v]
		if vu.state != Running {
			remaining--
			continue
		}
		m.kill(vu)
		lat := vu.RestartLatency
		vu.state = Restarting
		m.kernel.Schedule(lat, func() {
			m.restart(vu)
			remaining--
			if remaining == 0 {
				m.RecoveriesCompleted++
				m.RecoveryTime.Observe((m.kernel.Now() - started).Seconds())
			}
		})
	}
	if remaining == 0 { // everything was already down
		m.RecoveriesCompleted++
		m.RecoveryTime.Observe(0)
	}
	return nil
}

func (m *Manager) kill(u *Unit) {
	u.state = Killed
	u.downSince = m.kernel.Now()
	if u.OnKill != nil {
		u.OnKill()
	}
}

func (m *Manager) restart(u *Unit) {
	if u.OnRestart != nil {
		u.OnRestart()
	}
	u.state = Running
	u.Recoveries++
	u.Downtime += m.kernel.Now() - u.downSince
	m.comm.flush(u.Name)
}
