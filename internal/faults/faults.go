// Package faults provides the fault catalogue and deterministic injection
// scheduling shared by the simulated systems under observation. The paper's
// fault taxonomy (after Avizienis et al.): a *fault* is the adjudged cause of
// an *error* (bad state), which may lead to a user-visible *failure*. This
// package models faults; the SUOs register handlers that turn an activated
// fault into erroneous state; the awareness framework detects the resulting
// errors; experiments score detections against this package's ground truth.
package faults

import (
	"fmt"
	"sort"

	"trader/internal/sim"
)

// Kind classifies a fault.
type Kind string

// The fault classes exercised by the paper's case studies.
const (
	// ModeCorruption flips a component's internal mode without the rest of
	// the system noticing (the teletext mode-inconsistency case, Sect. 4.3).
	ModeCorruption Kind = "mode-corruption"
	// SyncLoss makes a producer/consumer pair lose synchronization
	// (teletext acquisition vs display, Sect. 4.3).
	SyncLoss Kind = "sync-loss"
	// ValueCorruption corrupts an observable value (wrong memory value).
	ValueCorruption Kind = "value-corruption"
	// TaskCrash kills a task/component (needs recovery, Sect. 4.5).
	TaskCrash Kind = "task-crash"
	// Overload inflates execution demand (bad input signal needing
	// intensive error correction, Sect. 4.5).
	Overload Kind = "overload"
	// BadInput injects malformed input streams the product must tolerate
	// ("deviations from coding standards or bad image quality").
	BadInput Kind = "bad-input"
	// Deadlock wedges two components waiting on each other: a silent
	// failure only output silence reveals (Sect. 4.3).
	Deadlock Kind = "deadlock"
)

// Fault is one scheduled fault.
type Fault struct {
	ID     string
	Kind   Kind
	Target string   // component, task, or block the fault applies to
	At     sim.Time // activation time
	// Duration of the active window; 0 means permanent (until externally
	// repaired via Injector.Repair).
	Duration sim.Time
	// Param carries a kind-specific magnitude (e.g. overload factor).
	Param float64
}

func (f Fault) String() string {
	return fmt.Sprintf("%s[%s@%s at %s dur %s]", f.ID, f.Kind, f.Target, f.At, f.Duration)
}

// Handler reacts to a fault becoming active (active=true) or inactive.
type Handler func(f Fault, active bool)

// Activation records one ground-truth activation window.
type Activation struct {
	Fault Fault
	From  sim.Time
	To    sim.Time // zero while still active
}

// Injector schedules faults on the kernel and dispatches to handlers.
type Injector struct {
	kernel   *sim.Kernel
	handlers map[Kind][]Handler
	faults   map[string]Fault
	active   map[string]bool
	history  []Activation
}

// NewInjector creates an injector.
func NewInjector(kernel *sim.Kernel) *Injector {
	return &Injector{
		kernel:   kernel,
		handlers: make(map[Kind][]Handler),
		faults:   make(map[string]Fault),
		active:   make(map[string]bool),
	}
}

// OnKind registers a handler for a fault kind. Multiple handlers are allowed
// and run in registration order.
func (i *Injector) OnKind(k Kind, h Handler) { i.handlers[k] = append(i.handlers[k], h) }

// Schedule arms a fault. It panics on duplicate IDs (schedules are static
// experiment inputs; a duplicate is a harness bug).
func (i *Injector) Schedule(f Fault) {
	if f.ID == "" {
		panic("faults: fault needs an ID")
	}
	if _, dup := i.faults[f.ID]; dup {
		panic(fmt.Sprintf("faults: duplicate fault ID %q", f.ID))
	}
	i.faults[f.ID] = f
	i.kernel.ScheduleAt(f.At, func() { i.activate(f) })
}

func (i *Injector) activate(f Fault) {
	if i.active[f.ID] {
		return
	}
	i.active[f.ID] = true
	i.history = append(i.history, Activation{Fault: f, From: i.kernel.Now()})
	for _, h := range i.handlers[f.Kind] {
		h(f, true)
	}
	if f.Duration > 0 {
		i.kernel.Schedule(f.Duration, func() { i.deactivate(f.ID) })
	}
}

func (i *Injector) deactivate(id string) {
	if !i.active[id] {
		return
	}
	f := i.faults[id]
	i.active[id] = false
	for j := len(i.history) - 1; j >= 0; j-- {
		if i.history[j].Fault.ID == id && i.history[j].To == 0 {
			i.history[j].To = i.kernel.Now()
			break
		}
	}
	for _, h := range i.handlers[f.Kind] {
		h(f, false)
	}
}

// Repair deactivates a fault early (recovery fixed the underlying state).
func (i *Injector) Repair(id string) { i.deactivate(id) }

// Active reports whether the fault is currently active.
func (i *Injector) Active(id string) bool { return i.active[id] }

// AnyActive reports whether any fault of kind k targeting target is active.
// Empty target matches any target.
func (i *Injector) AnyActive(k Kind, target string) bool {
	for id, on := range i.active {
		if !on {
			continue
		}
		f := i.faults[id]
		if f.Kind == k && (target == "" || f.Target == target) {
			return true
		}
	}
	return false
}

// History returns all activation windows sorted by start time.
func (i *Injector) History() []Activation {
	out := make([]Activation, len(i.history))
	copy(out, i.history)
	sort.SliceStable(out, func(a, b int) bool { return out[a].From < out[b].From })
	return out
}

// Faults returns the scheduled faults sorted by ID.
func (i *Injector) Faults() []Fault {
	out := make([]Fault, 0, len(i.faults))
	for _, f := range i.faults {
		out = append(out, f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
