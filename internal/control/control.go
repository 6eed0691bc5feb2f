// Package control closes the paper's awareness loop (Fig. 1) at fleet
// scale: error reports flowing out of the fleet's monitors are classified
// (deviation vs. silence vs. runaway, in the fault taxonomy of
// internal/faults), driven through a per-device escalation ladder
// (tolerate → reset comparator → restart unit → quarantine/disconnect), and
// actuated back down each device's connection as wire control commands —
// turning the passive monitor into the full awareness-and-recovery system
// of Sect. 4.5. Restart accounting (downtime, recovery counts) reuses the
// partial-recovery framework's recovery.Manager: every monitored device is
// one recoverable unit.
//
// The controller is asynchronous by construction: report handlers run on
// pool shard goroutines and must neither block nor re-enter the pool, so
// they only Try a closure into the controller's mailbox (fleet.Mailbox, the
// plane goroutine of ARCHITECTURE.md §3.6), which owns all escalation state
// and performs the slow work (journal appends, wire pushes, pool resets).
// Every action is journaled write-ahead as a TypeControl frame, so a journal
// replay reconstructs exactly what the controller did (fleet.Pool.Replay
// re-applies the pool-side effects), not just what it saw.
package control

import (
	"sync"

	"trader/internal/fleet"
	"trader/internal/recovery"
	"trader/internal/sim"
	"trader/internal/wire"
)

// Actuator pushes escalation decisions down to a device. fleet.Server
// implements it; a nil actuator (offline replays, tests) makes the
// controller act monitor-side only.
type Actuator interface {
	// Control pushes a control command down the device's connection.
	Control(id string, cmd wire.ControlCommand) error
	// Disconnect closes the device's connection (the quarantine rung).
	Disconnect(id string) error
}

// Options configures a Controller.
type Options struct {
	// Actuator delivers wire commands to devices. Optional.
	Actuator Actuator
	// Journal, when non-nil, records every action write-ahead (the same
	// journal the ingestion server writes frames to). Optional.
	Journal fleet.FrameJournal
	// Policy is the escalation ladder (zero value: DefaultPolicy).
	Policy Policy
	// Logf, when non-nil, receives action and lifecycle log lines.
	Logf func(format string, args ...any)
	// OnAction, when non-nil, observes every action in decision order. It
	// runs on the controller goroutine and must not call back into the
	// controller. Tests use it to capture the live action sequence.
	OnAction func(Action)
	// OnEscalate, when non-nil, observes every action past the tolerate
	// rung — the moment a device has demonstrably not healed on its own.
	// The fleet diagnosis plane (internal/diagnose) hooks here to pull
	// coverage evidence from the escalated device and a healthy cohort.
	// Same contract as OnAction: controller goroutine, must not block or
	// call back into the controller.
	OnEscalate func(Action)
	// OnIncident, when non-nil, observes every action at the restart rung
	// or beyond — the point where the device's episode has become an
	// incident worth a full evidence capture. The observability plane
	// hooks here to write incident bundles (§6.2): by the time the hook
	// runs the action's journal record is already appended, so a bundle
	// built by scanning the journal sees the complete ladder history
	// including this action. Same contract as OnAction: controller
	// goroutine, must not block or call back into the controller.
	OnIncident func(Action)
}

// inboxSize is the mailbox length: reports and acks beyond it are shed and
// counted in Rollup().Dropped.
const inboxSize = 4096

// devState is one device's position on the escalation ladder. Owned by the
// controller goroutine.
type devState struct {
	rung        Rung
	used        int      // actions already taken at the current rung
	seen        uint64   // reports seen
	lastAt      sim.Time // virtual time of the last report
	burst       int      // consecutive reports within the runaway window
	quarantined bool
}

// tally is the controller's action accounting. Owned by the controller
// goroutine.
type tally struct {
	Reports         uint64
	Classes         [nClasses]uint64
	Rungs           [RungQuarantine + 1]uint64
	Absorbed        uint64 // reports absorbed by an in-flight restart
	AfterQuarantine uint64 // reports from already-quarantined devices
	Deescalations   uint64 // cooldown drops back to the ladder bottom
	Acks            uint64
	PushFailures    uint64
	JournalErrors   uint64
}

// Controller drives the fleet's recovery: a mailbox goroutine running the
// report handlers, a recovery.Manager accounting restarts and downtime on
// the controller's virtual clock, and a per-device escalation ladder.
type Controller struct {
	pool *fleet.Pool
	opts Options
	pol  Policy

	kernel *sim.Kernel
	mgr    *recovery.Manager
	devs   map[string]*devState
	tally  tally

	// box is the controller goroutine; everything above is touched only by
	// closures run through it (or, unstarted, by the caller: newController).
	box fleet.Mailbox

	// Replay state (see Apply/Settle): the newest control-plane checkpoint
	// of the pass in progress, how many records the last pass restored
	// from, and the guard that subscribes to the pool exactly once.
	newest    *wire.Checkpoint
	recovered int
	subscribe sync.Once
}

// Attach builds a controller over the pool, subscribes it to the pool's
// error-report fan-in and starts its goroutine. Close stops it.
func Attach(pool *fleet.Pool, opts Options) *Controller {
	c := New(pool, opts)
	c.subscribe.Do(func() { pool.OnReport(c.Report) })
	return c
}

// New is Attach without the subscription: the controller runs but sees no
// report until Settle subscribes it — how a daemon booting from a journal
// builds it, so the reports the replay re-raises never reach the ladder.
func New(pool *fleet.Pool, opts Options) *Controller {
	c := newController(pool, opts)
	c.box.Start(inboxSize)
	return c
}

// newController builds the controller without starting its goroutine or
// touching the pool's handler list — the seam the table-driven policy tests
// drive synchronously.
func newController(pool *fleet.Pool, opts Options) *Controller {
	if opts.Policy == (Policy{}) {
		opts.Policy = DefaultPolicy()
	}
	c := &Controller{
		pool:   pool,
		opts:   opts,
		pol:    opts.Policy,
		kernel: sim.NewKernel(1),
		devs:   make(map[string]*devState),
	}
	c.mgr = recovery.NewManager(c.kernel)
	return c
}

func (c *Controller) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Report feeds one error report into the controller. Attach registers it
// with Pool.OnReport; it is safe from any goroutine and never blocks —
// under overload reports are shed and counted (the ladder survives lost
// evidence: the next report moves it the same way).
func (c *Controller) Report(device string, r wire.ErrorReport) {
	c.box.Try(func() { c.handleReport(device, r) })
}

// HandleAck feeds a device's control-command acknowledgement into the
// controller; wire it to fleet.Server.OnAck. Safe from any goroutine,
// never blocks.
func (c *Controller) HandleAck(id string, m wire.Message) {
	c.box.Try(func() { c.handleAck(id, m) })
}

// Advance drives the controller's virtual clock to at, completing any
// restart whose latency has elapsed (closing out its downtime accounting).
// The clock otherwise only advances with report and ack timestamps, so a
// fleet that heals completely would leave its last restart dangling.
func (c *Controller) Advance(at sim.Time) { c.box.Do(func() { c.advanceTo(at) }) }

// Sync blocks until every report enqueued before it has been processed.
func (c *Controller) Sync() { c.box.Do(func() {}) }

// Close stops the controller goroutine. Reports arriving after Close are
// dropped silently; every query and command that waits for its answer
// (Rollup, Checkpoint, Restore, Advance) keeps working on the frozen state.
func (c *Controller) Close() { c.box.Close() }

// advanceTo runs the controller clock forward, firing due restart
// completions on the way. Reports from slow devices may carry timestamps
// behind the fleet-wide clock; time never moves backwards.
func (c *Controller) advanceTo(at sim.Time) {
	if at > c.kernel.Now() {
		c.kernel.Run(at)
	}
}

// limit returns how many actions the rung's budget allows.
func (c *Controller) limit(r Rung) int {
	switch r {
	case RungTolerate:
		return c.pol.Tolerate
	case RungReset:
		return c.pol.Resets
	default:
		return c.pol.Restarts
	}
}

// classify triages one report: the detector decides deviation vs. silence,
// and the device's report timing detects a runaway storm. It reads (but
// does not update) d.lastAt, so the burst window is measured between
// consecutive reports.
func (c *Controller) classify(d *devState, r wire.ErrorReport) Class {
	if c.pol.RunawayReports > 0 && c.pol.RunawayWindow > 0 {
		if d.seen > 0 && r.At >= d.lastAt && r.At-d.lastAt <= c.pol.RunawayWindow {
			d.burst++
		} else {
			d.burst = 1
		}
		if d.burst >= c.pol.RunawayReports {
			return ClassRunaway
		}
	}
	return ClassOf(r)
}

// ensureDevice returns the device's ladder state, creating it — and its
// recovery unit — on first sight. Controller-goroutine only.
func (c *Controller) ensureDevice(device string) *devState {
	d := c.devs[device]
	if d == nil {
		d = &devState{}
		c.devs[device] = d
		u := &recovery.Unit{Name: device, RestartLatency: c.pol.RestartLatency}
		u.OnRestart = func() {
			// The restarted unit is monitored clean from here on.
			_, _ = c.pool.ResetDevice(device)
			c.logf("control: %s: restart complete (downtime %s)", device, c.pol.RestartLatency)
		}
		c.mgr.AddUnit(u)
	}
	return d
}

// handleReport is the escalation ladder. One report → at most one action.
func (c *Controller) handleReport(device string, r wire.ErrorReport) {
	c.tally.Reports++
	c.advanceTo(r.At)
	d := c.ensureDevice(device)
	if d.quarantined {
		// The device is out of service; its monitor may still sweep
		// silence, but there is no further rung to climb.
		c.tally.AfterQuarantine++
		d.lastAt = r.At
		return
	}
	// Cooldown de-escalation first: a device quiet past the cooldown had a
	// healed episode, so this report opens a fresh one at the ladder's
	// bottom instead of resuming a stale climb (the flapping-device case).
	if c.pol.Cooldown > 0 && d.seen > 0 && r.At-d.lastAt >= c.pol.Cooldown {
		d.rung, d.used, d.burst = RungTolerate, 0, 0
		c.tally.Deescalations++
	}
	class := c.classify(d, r)
	c.tally.Classes[class]++
	d.seen++
	d.lastAt = r.At
	if c.mgr.Unit(device).State() != recovery.Running {
		// A restart is in flight; reports racing it are evidence of the
		// failure already being recovered, not of the recovery failing.
		// Re-arm the comparator anyway — a latched episode would stop
		// reporting entirely, and the controller's clock (and thus the
		// restart's completion) only advances with fresh evidence.
		c.tally.Absorbed++
		_, _ = c.pool.ResetDevice(device)
		return
	}
	if class == ClassRunaway && d.rung < RungRestart {
		// Resets demonstrably don't help a report storm: skip them.
		d.rung, d.used = RungRestart, 0
	}
	for d.rung < RungQuarantine && d.used >= c.limit(d.rung) {
		d.rung++
		d.used = 0
	}
	act := Action{Device: device, Rung: d.rung, Class: class, At: c.kernel.Now()}
	d.used++
	c.apply(act, d)
}

// apply journals the action write-ahead, applies its monitor-side effect,
// and pushes its wire command (if any) down the device's connection.
func (c *Controller) apply(act Action, d *devState) {
	if c.opts.Journal != nil {
		if err := c.opts.Journal.Append(act.Frame()); err != nil {
			// Recovery beats the record: the fleet is actively failing, so
			// act anyway and surface the journal failure loudly. (The
			// ingestion server is stricter with observation frames — an
			// unrecorded observation is silent data loss; an unrecorded
			// action at worst replays as a slightly gentler ladder.)
			c.tally.JournalErrors++
			c.logf("control: journal action [%s]: %v", act, err)
		}
	}
	c.tally.Rungs[act.Rung]++
	switch act.Rung {
	case RungTolerate:
		_, _ = c.pool.ResetDevice(act.Device)
	case RungReset:
		_, _ = c.pool.ResetDevice(act.Device)
		c.push(act)
	case RungRestart:
		_ = c.mgr.Recover(act.Device, recovery.UnitOnly)
		_, _ = c.pool.ResetDevice(act.Device)
		c.push(act)
	case RungQuarantine:
		d.quarantined = true
		_, _ = c.pool.QuarantineDevice(act.Device)
		c.push(act)
		if c.opts.Actuator != nil {
			if err := c.opts.Actuator.Disconnect(act.Device); err != nil {
				c.logf("control: disconnect %s: %v", act.Device, err)
			}
		}
	}
	c.logf("control: action [%s]", act)
	if c.opts.OnAction != nil {
		c.opts.OnAction(act)
	}
	if c.opts.OnEscalate != nil && act.Rung > RungTolerate {
		c.opts.OnEscalate(act)
	}
	if c.opts.OnIncident != nil && act.Rung >= RungRestart {
		c.opts.OnIncident(act)
	}
}

// push sends the action's wire command, tolerating delivery failure — the
// device may have disconnected between the report and the decision; the
// action's monitor-side half already happened either way.
func (c *Controller) push(act Action) {
	if c.opts.Actuator == nil {
		return
	}
	if err := c.opts.Actuator.Control(act.Device, act.Rung.Command()); err != nil {
		c.tally.PushFailures++
		c.logf("control: push %s to %s: %v", act.Rung.Command(), act.Device, err)
	}
}

func (c *Controller) handleAck(id string, m wire.Message) {
	c.advanceTo(m.At)
	c.tally.Acks++
	c.logf("control: %s: acked %s at %s", id, m.Control, m.At)
}
