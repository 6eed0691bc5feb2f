// Package modecheck implements mode-consistency error detection (Sect. 4.3,
// after Sözer et al., "Detecting mode inconsistencies in component-based
// embedded software"): components publish their internal modes; declarative
// rules constrain which mode combinations are consistent; a checker flags
// violations. The paper reports this approach "turned out to be successful
// to detect teletext problems due to a loss of synchronization between
// components".
package modecheck

import (
	"fmt"
	"sort"

	"trader/internal/event"
	"trader/internal/koala"
	"trader/internal/sim"
)

// Rule constrains the modes of a set of components.
type Rule struct {
	// Name identifies the rule in violation reports.
	Name string
	// Components lists the components whose modes the predicate reads. The
	// rule is only evaluated once all of them have reported a mode.
	Components []string
	// Consistent returns whether the given component→mode assignment is
	// allowed.
	Consistent func(modes map[string]string) bool
	// Grace is the number of consecutive violating mode updates tolerated
	// before reporting (transient inconsistency during mode transitions is
	// normal; cf. the comparator's consecutive-deviation tolerance).
	Grace int

	streak  int
	flagged bool
}

// ForbidPair builds a rule forbidding one specific pair of modes — the
// common case ("display visible while acquisition searching").
func ForbidPair(name, compA, modeA, compB, modeB string) Rule {
	return Rule{
		Name:       name,
		Components: []string{compA, compB},
		Consistent: func(m map[string]string) bool {
			return !(m[compA] == modeA && m[compB] == modeB)
		},
	}
}

// Violation reports one detected inconsistency.
type Violation struct {
	Rule  string
	Modes map[string]string // snapshot of the involved components' modes
	At    sim.Time
}

func (v Violation) String() string {
	keys := make([]string, 0, len(v.Modes))
	for k := range v.Modes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("[%s] mode inconsistency %q:", v.At, v.Rule)
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%s", k, v.Modes[k])
	}
	return s
}

// Checker tracks component modes from state events and evaluates rules.
type Checker struct {
	kernel *sim.Kernel
	rules  []*Rule
	modes  map[string]string
	byComp map[string][]*Rule
	onViol []func(Violation)
	sub    *event.Subscription

	// Checks counts rule evaluations; Violations counts reports.
	Checks     uint64
	Violations uint64
}

// NewChecker creates a checker with the given rules.
func NewChecker(kernel *sim.Kernel, rules ...Rule) *Checker {
	c := &Checker{
		kernel: kernel,
		modes:  make(map[string]string),
		byComp: make(map[string][]*Rule),
	}
	for i := range rules {
		r := rules[i]
		c.rules = append(c.rules, &r)
	}
	for _, r := range c.rules {
		for _, comp := range r.Components {
			c.byComp[comp] = append(c.byComp[comp], r)
		}
	}
	return c
}

// OnViolation registers a violation handler.
func (c *Checker) OnViolation(fn func(Violation)) { c.onViol = append(c.onViol, fn) }

// AttachBus subscribes to a SUO bus; koala components publish State events
// carrying interned mode ids, which the checker decodes via koala.ModeName.
func (c *Checker) AttachBus(bus *event.Bus) {
	c.sub = bus.Subscribe("", func(e event.Event) {
		if e.Kind != event.State {
			return
		}
		id, ok := e.Get("mode")
		if !ok {
			return
		}
		c.Update(e.Source, koala.ModeName(int(id)))
	})
}

// Update records a component's mode and re-evaluates the rules that involve
// it.
func (c *Checker) Update(component, mode string) {
	c.modes[component] = mode
	for _, r := range c.byComp[component] {
		c.evaluate(r)
	}
}

func (c *Checker) evaluate(r *Rule) {
	snapshot := make(map[string]string, len(r.Components))
	for _, comp := range r.Components {
		m, ok := c.modes[comp]
		if !ok {
			return // not all components reported yet
		}
		snapshot[comp] = m
	}
	c.Checks++
	if r.Consistent(snapshot) {
		r.streak = 0
		r.flagged = false
		return
	}
	r.streak++
	if r.streak > r.Grace && !r.flagged {
		r.flagged = true
		c.Violations++
		v := Violation{Rule: r.Name, Modes: snapshot, At: c.now()}
		for _, fn := range c.onViol {
			fn(v)
		}
	}
}

func (c *Checker) now() sim.Time {
	if c.kernel != nil {
		return c.kernel.Now()
	}
	return 0
}
