// Package core implements the paper's primary contribution: the model-based
// run-time awareness framework of Fig. 1 and Fig. 2. A Monitor couples a
// System Under Observation (SUO) to an executable specification model:
//
//	input events  ──► Input Observer ──► Model Executor (spec model)
//	output events ──► Output Observer ──► Comparator ◄── expected values
//	                                          │
//	                                     error reports ──► diagnosis/recovery
//
// The Comparator is deliberately "not too eager" (Sect. 4.3): each
// observable has (1) a threshold for the allowed deviation between model and
// system and (2) a maximum number of consecutive deviations tolerated before
// an error is reported. Comparison is event-based, optionally gated by the
// model (EnableVar — "specifying in the specification model when comparison
// should take place"), optionally repeated time-based (CompareEvery), and
// optionally watches for silence (MaxSilence) to catch timeliness violations
// — the real-time monitoring the paper contrasts with assertion-based
// run-time verification.
package core

import (
	"fmt"
	"math"

	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/wire"
)

// Observable declares one monitored quantity (Configuration component of
// Fig. 2 stores these).
type Observable struct {
	// Name identifies the observable in reports (defaults to
	// EventName.ValueName).
	Name string
	// EventName is the SUO output event carrying the value.
	EventName string
	// ValueName is the value key within the event.
	ValueName string
	// ModelVar is the specification-model variable holding the expected
	// value.
	ModelVar string
	// Threshold is the allowed absolute deviation between model and system.
	Threshold float64
	// Tolerance is the number of consecutive deviations allowed before an
	// error is reported (0 = report on the first deviation).
	Tolerance int
	// EnableVar, when non-empty, gates comparison: the observable is only
	// compared while the model variable is non-zero (event-based enabling
	// from the specification model).
	EnableVar string
	// MaxSilence, when positive, reports a timeliness error if no event
	// carrying the observable arrives for this long while enabled.
	MaxSilence sim.Time
}

func (o Observable) id() string {
	if o.Name != "" {
		return o.Name
	}
	return o.EventName + "." + o.ValueName
}

// Configuration is the set of observables (IConfigInfo in Fig. 2).
type Configuration struct {
	Observables []Observable
	// CompareEvery, when positive, additionally re-compares the last seen
	// value of every observable against the model on a fixed period
	// (time-based comparison).
	CompareEvery sim.Time
	// SilenceCheckEvery sets how often silence deadlines are swept
	// (default: 10ms of virtual time when any MaxSilence is set).
	SilenceCheckEvery sim.Time
}

// Validate reports configuration mistakes.
func (c Configuration) Validate() error {
	seen := map[string]bool{}
	for _, o := range c.Observables {
		if o.EventName == "" || o.ValueName == "" || o.ModelVar == "" {
			return fmt.Errorf("core: observable %q needs EventName, ValueName and ModelVar", o.id())
		}
		if o.Threshold < 0 || o.Tolerance < 0 {
			return fmt.Errorf("core: observable %q: negative threshold/tolerance", o.id())
		}
		if o.MaxSilence < 0 {
			return fmt.Errorf("core: observable %q: negative MaxSilence", o.id())
		}
		if seen[o.id()] {
			return fmt.Errorf("core: duplicate observable %q", o.id())
		}
		seen[o.id()] = true
	}
	return nil
}

// MonitorStats counts framework activity (used by the overhead experiment).
type MonitorStats struct {
	InputsSeen   uint64
	OutputsSeen  uint64
	Comparisons  uint64
	Deviations   uint64
	Errors       uint64
	ModelErrors  uint64 // invariant violations inside the spec model
	SilenceScans uint64
}

// Add accumulates o's counters into s (group and fleet rollups).
func (s *MonitorStats) Add(o MonitorStats) {
	dst := s.fields()
	for i, v := range o.fields() {
		*dst[i] += *v
	}
}

// fields lists the counters in declaration order (checkpoint.go's statOrder).
func (s *MonitorStats) fields() [7]*uint64 {
	return [...]*uint64{&s.InputsSeen, &s.OutputsSeen, &s.Comparisons, &s.Deviations,
		&s.Errors, &s.ModelErrors, &s.SilenceScans}
}

// obsState is the comparator's per-observable state.
type obsState struct {
	cfg         *Observable // into the monitor's Configuration.Observables
	consecutive int
	lastValue   float64
	lastSeen    sim.Time
	inError     bool
	everSeen    bool
	silenced    bool // silence error already reported for this gap
}

// Monitor is the awareness monitor (the right-hand process of Fig. 2).
type Monitor struct {
	kernel *sim.Kernel
	model  *statemachine.Model
	cfg    Configuration

	// obs holds every observable's comparator state in configuration order,
	// allocated in one piece; an output event is matched by a scan, cheaper
	// than an index map for the handful of observables a monitor has.
	obs []obsState

	started      bool
	modelStarted bool
	handlers     []func(wire.ErrorReport)
	stats        MonitorStats

	sweep   *sim.Repeater
	compare *sim.Repeater
	subs    []*event.Subscription
}

// NewMonitor builds a monitor around a specification model. The model must
// not be started yet; Start starts it. The monitor keeps cfg.Observables
// without copying it, so monitors of one product can share one
// configuration; it must not change afterwards.
func NewMonitor(kernel *sim.Kernel, model *statemachine.Model, cfg Configuration) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Monitor{kernel: kernel, model: model, cfg: cfg, obs: make([]obsState, len(cfg.Observables))}
	for i := range m.obs {
		m.obs[i].cfg = &cfg.Observables[i]
	}
	return m, nil
}

// OnError registers an error-report handler (IErrorNotify). Handlers run
// synchronously in detection order; recovery actions typically hook here.
func (m *Monitor) OnError(fn func(wire.ErrorReport)) { m.handlers = append(m.handlers, fn) }

// Stats returns a copy of the monitor's counters.
func (m *Monitor) Stats() MonitorStats { return m.stats }

// Kernel returns the virtual clock the monitor and its spec model run on.
func (m *Monitor) Kernel() *sim.Kernel { return m.kernel }

// Start starts the spec model (first call only) and arms periodic checks
// (the Controller's "initiate" action in Fig. 2). A stopped monitor can be
// resumed by calling Start again; the model keeps its state across the gap.
func (m *Monitor) Start() error {
	if m.started {
		return fmt.Errorf("core: monitor already started")
	}
	if !m.modelStarted {
		if err := m.model.Start(); err != nil {
			return err
		}
		m.modelStarted = true
	}
	m.started = true
	now := m.kernel.Now()
	for i := range m.obs {
		m.obs[i].lastSeen = now
	}
	var needSweep bool
	for _, o := range m.cfg.Observables {
		if o.MaxSilence > 0 {
			needSweep = true
		}
	}
	if needSweep {
		every := m.cfg.SilenceCheckEvery
		if every <= 0 {
			every = 10 * sim.Millisecond
		}
		m.sweep = m.kernel.Every(every, m.sweepSilence)
	}
	if m.cfg.CompareEvery > 0 {
		m.compare = m.kernel.Every(m.cfg.CompareEvery, m.timeBasedCompare)
	}
	return nil
}

// Stop halts monitoring (periodic checks stop; events are ignored).
func (m *Monitor) Stop() {
	m.started = false
	if m.sweep != nil {
		m.sweep.Stop()
		m.sweep = nil
	}
	if m.compare != nil {
		m.compare.Stop()
		m.compare = nil
	}
	for _, s := range m.subs {
		s.Unsubscribe()
	}
	m.subs = nil
}

// AttachBus subscribes the monitor's observers to a SUO's in-process event
// bus: Input-kind events go to the Input Observer, Output-kind events to the
// Output Observer.
func (m *Monitor) AttachBus(bus *event.Bus) {
	s := bus.Subscribe("", func(e event.Event) {
		switch e.Kind {
		case event.Input:
			m.HandleInput(e)
		case event.Output:
			m.HandleOutput(e)
		}
	})
	m.subs = append(m.subs, s)
}

// HandleInput is the Input Observer: it forwards a SUO input event to the
// Model Executor, which advances the specification model.
func (m *Monitor) HandleInput(e event.Event) {
	if !m.started {
		return
	}
	m.stats.InputsSeen++
	if err := m.model.Dispatch(e); err != nil {
		m.stats.ModelErrors++
		m.report(wire.ErrorReport{
			Detector: "model-invariant",
			At:       m.kernel.Now(),
			Detail:   err.Error(),
		})
	}
}

// HandleOutput is the Output Observer feeding the Comparator.
func (m *Monitor) HandleOutput(e event.Event) {
	if !m.started {
		return
	}
	m.stats.OutputsSeen++
	for i := range m.obs {
		st := &m.obs[i]
		if st.cfg.EventName != e.Name {
			continue
		}
		v, ok := e.Get(st.cfg.ValueName)
		if !ok {
			continue
		}
		st.lastValue = v
		st.everSeen = true
		st.lastSeen = m.kernel.Now()
		st.silenced = false
		m.compareOne(st, v)
	}
}

func (m *Monitor) enabled(st *obsState) bool {
	return st.cfg.EnableVar == "" || m.model.Var(st.cfg.EnableVar) != 0
}

// compareOne applies the threshold/tolerance policy to one observation.
func (m *Monitor) compareOne(st *obsState, actual float64) {
	if !m.enabled(st) {
		st.consecutive = 0
		st.inError = false
		return
	}
	m.stats.Comparisons++
	expected := m.model.Var(st.cfg.ModelVar)
	if math.Abs(actual-expected) > st.cfg.Threshold {
		m.stats.Deviations++
		st.consecutive++
		if st.consecutive > st.cfg.Tolerance && !st.inError {
			st.inError = true
			m.stats.Errors++
			m.report(wire.ErrorReport{
				Detector:    "comparator",
				Observable:  st.cfg.id(),
				Expected:    expected,
				Actual:      actual,
				Consecutive: st.consecutive,
				At:          m.kernel.Now(),
			})
		}
		return
	}
	st.consecutive = 0
	st.inError = false
}

// timeBasedCompare re-compares the last seen value of every observable
// against the (possibly changed) model expectation.
func (m *Monitor) timeBasedCompare() {
	for i := range m.obs {
		st := &m.obs[i]
		if !st.everSeen {
			continue
		}
		m.compareOne(st, st.lastValue)
	}
}

// sweepSilence reports observables that went quiet past their deadline.
func (m *Monitor) sweepSilence() {
	m.stats.SilenceScans++
	now := m.kernel.Now()
	for i := range m.obs {
		st := &m.obs[i]
		if st.cfg.MaxSilence <= 0 || st.silenced {
			continue
		}
		if !m.enabled(st) {
			st.lastSeen = now // gated: the clock restarts when re-enabled
			continue
		}
		if now-st.lastSeen > st.cfg.MaxSilence {
			st.silenced = true
			m.stats.Errors++
			m.report(wire.ErrorReport{
				Detector:   "silence",
				Observable: st.cfg.id(),
				Expected:   m.model.Var(st.cfg.ModelVar),
				At:         now,
				Detail: fmt.Sprintf("no %s event for %s (max %s)",
					st.cfg.EventName, now-st.lastSeen, st.cfg.MaxSilence),
			})
		}
	}
}

func (m *Monitor) report(r wire.ErrorReport) {
	for _, h := range m.handlers {
		h(r)
	}
}

// Reset clears deviation state for every observable at once: consecutive
// counters, latched error episodes and silence flags all re-arm, so the next
// deviation opens a fresh episode and is reported anew. The recovery control
// plane calls it after each escalation action — without the re-arm, a
// persistently failing device would report once and then sit silently behind
// its latched episode, starving the escalation ladder of evidence.
func (m *Monitor) Reset() {
	now := m.kernel.Now()
	for i := range m.obs {
		st := &m.obs[i]
		st.consecutive = 0
		st.inError = false
		st.silenced = false
		st.lastSeen = now
	}
}

// ResetObservable clears deviation state for the named observable (used by
// recovery once the SUO is repaired, so a fresh episode is reported anew).
func (m *Monitor) ResetObservable(name string) {
	if st := m.observable(name); st != nil {
		st.consecutive = 0
		st.inError = false
		st.silenced = false
		st.lastSeen = m.kernel.Now()
	}
}

// observable returns the named observable's state, or nil.
func (m *Monitor) observable(name string) *obsState {
	for i := range m.obs {
		if m.obs[i].cfg.id() == name {
			return &m.obs[i]
		}
	}
	return nil
}
