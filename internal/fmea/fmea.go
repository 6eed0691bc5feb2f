// Package fmea implements software failure-modes-and-effects analysis at
// the architecture level (Sect. 4.7, after Sözer et al., "Extending failure
// modes and effects analysis approach for reliability analysis at the
// software architecture design level"). An architecture model — components,
// their failure modes, and failure-propagation paths — yields a criticality
// ranking that tells developers which components threaten user-perceived
// reliability most.
package fmea

import (
	"fmt"
	"sort"
)

// FailureMode is one way a component can fail.
type FailureMode struct {
	Name string
	// Occurrence is the relative likelihood in [0,1].
	Occurrence float64
	// LocalSeverity is the user-visible severity if the failure stays
	// contained in the component, in [0,1].
	LocalSeverity float64
	// Detectability is how likely run-time detection catches it, in [0,1]
	// (1 = always detected; low detectability raises risk).
	Detectability float64
}

// Component is one architectural element.
type Component struct {
	Name string
	// UserFacing scales severity: failures of user-facing components are
	// directly visible.
	UserFacing bool
	Modes      []FailureMode
}

// Propagation says failures of From reach To with the given attenuation
// (0..1]: a propagated failure manifests in To with severity scaled by it.
type Propagation struct {
	From, To    string
	Attenuation float64
}

// Architecture is the analysis input.
type Architecture struct {
	components map[string]*Component
	order      []string
	edges      map[string][]Propagation
}

// NewArchitecture creates an empty model.
func NewArchitecture() *Architecture {
	return &Architecture{
		components: make(map[string]*Component),
		edges:      make(map[string][]Propagation),
	}
}

// AddComponent registers a component.
func (a *Architecture) AddComponent(c Component) {
	if _, dup := a.components[c.Name]; dup {
		panic(fmt.Sprintf("fmea: duplicate component %q", c.Name))
	}
	cp := c
	a.components[c.Name] = &cp
	a.order = append(a.order, c.Name)
}

// AddPropagation registers a failure-propagation path.
func (a *Architecture) AddPropagation(p Propagation) {
	if a.components[p.From] == nil || a.components[p.To] == nil {
		panic(fmt.Sprintf("fmea: propagation %s→%s references unknown component", p.From, p.To))
	}
	if p.Attenuation <= 0 || p.Attenuation > 1 {
		panic("fmea: attenuation must be in (0,1]")
	}
	a.edges[p.From] = append(a.edges[p.From], p)
}

// effectiveSeverity computes the worst user-visible severity a failure of
// component name with base severity sev can cause, following propagation
// paths (DFS with per-path attenuation; cycles are cut by the visited set).
func (a *Architecture) effectiveSeverity(name string, sev float64, visited map[string]bool) float64 {
	c := a.components[name]
	best := 0.0
	if c.UserFacing {
		best = sev
	}
	visited[name] = true
	for _, p := range a.edges[name] {
		if visited[p.To] {
			continue
		}
		if s := a.effectiveSeverity(p.To, sev*p.Attenuation, visited); s > best {
			best = s
		}
	}
	visited[name] = false
	return best
}

// Entry is one row of the FMEA worksheet.
type Entry struct {
	Component string
	Mode      string
	// Severity is the propagated user-visible severity.
	Severity float64
	// Occurrence copies the mode's likelihood.
	Occurrence float64
	// Detectability copies the mode's detection likelihood.
	Detectability float64
	// RPN is the risk priority number: severity × occurrence ×
	// (1 - detectability), normalised to [0,1].
	RPN float64
}

// Analyze produces the worksheet sorted by descending RPN (ties broken by
// component/mode name for determinism).
func (a *Architecture) Analyze() []Entry {
	var out []Entry
	for _, name := range a.order {
		c := a.components[name]
		for _, m := range c.Modes {
			sev := a.effectiveSeverity(name, m.LocalSeverity, map[string]bool{})
			e := Entry{
				Component:     name,
				Mode:          m.Name,
				Severity:      sev,
				Occurrence:    m.Occurrence,
				Detectability: m.Detectability,
			}
			e.RPN = e.Severity * e.Occurrence * (1 - e.Detectability)
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].RPN != out[j].RPN {
			return out[i].RPN > out[j].RPN
		}
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Mode < out[j].Mode
	})
	return out
}

// CriticalityByComponent aggregates RPN per component, sorted descending.
func (a *Architecture) CriticalityByComponent() []Entry {
	agg := map[string]float64{}
	for _, e := range a.Analyze() {
		agg[e.Component] += e.RPN
	}
	var out []Entry
	for _, name := range a.order {
		out = append(out, Entry{Component: name, RPN: agg[name]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].RPN != out[j].RPN {
			return out[i].RPN > out[j].RPN
		}
		return out[i].Component < out[j].Component
	})
	return out
}

// TVArchitecture builds the reference model of the simulated TV used by the
// E13 experiment: the component set of tvsim with failure modes calibrated
// to the fault classes the fault injector exercises.
func TVArchitecture() *Architecture {
	a := NewArchitecture()
	a.AddComponent(Component{Name: "tuner", Modes: []FailureMode{
		{Name: "bad-signal", Occurrence: 0.4, LocalSeverity: 0.5, Detectability: 0.7},
		{Name: "no-lock", Occurrence: 0.1, LocalSeverity: 0.9, Detectability: 0.9},
	}})
	a.AddComponent(Component{Name: "video", UserFacing: true, Modes: []FailureMode{
		{Name: "overload", Occurrence: 0.3, LocalSeverity: 0.7, Detectability: 0.6},
		{Name: "crash", Occurrence: 0.05, LocalSeverity: 1.0, Detectability: 0.9},
	}})
	a.AddComponent(Component{Name: "audio", UserFacing: true, Modes: []FailureMode{
		{Name: "level-corruption", Occurrence: 0.1, LocalSeverity: 0.6, Detectability: 0.5},
	}})
	a.AddComponent(Component{Name: "txt-acq", Modes: []FailureMode{
		{Name: "sync-loss", Occurrence: 0.25, LocalSeverity: 0.4, Detectability: 0.4},
	}})
	a.AddComponent(Component{Name: "txt-disp", UserFacing: true, Modes: []FailureMode{
		{Name: "stale-page", Occurrence: 0.2, LocalSeverity: 0.4, Detectability: 0.3},
	}})
	a.AddComponent(Component{Name: "osd", UserFacing: true, Modes: []FailureMode{
		{Name: "stuck-overlay", Occurrence: 0.1, LocalSeverity: 0.5, Detectability: 0.8},
	}})
	a.AddComponent(Component{Name: "swivel", UserFacing: true, Modes: []FailureMode{
		{Name: "stuck-motor", Occurrence: 0.15, LocalSeverity: 0.6, Detectability: 0.2},
	}})
	// Failures flow downstream toward the user-facing components.
	a.AddPropagation(Propagation{From: "tuner", To: "video", Attenuation: 0.9})
	a.AddPropagation(Propagation{From: "tuner", To: "audio", Attenuation: 0.6})
	a.AddPropagation(Propagation{From: "tuner", To: "txt-acq", Attenuation: 0.8})
	a.AddPropagation(Propagation{From: "txt-acq", To: "txt-disp", Attenuation: 1.0})
	return a
}
