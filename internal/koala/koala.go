// Package koala implements a component model in the style of Koala, the
// component technology used at NXP (referenced throughout the paper). It
// provides components with named provides/requires interfaces, explicit
// bindings, and component modes. All inter-component calls are routed through
// the binding layer so the aspect package can weave observation advice onto
// join points without modifying component code (Sect. 4.1: "observation of
// software behaviour is mainly done by code instrumentation using
// aspect-oriented techniques ... AspectKoala has been developed on top of the
// component model Koala").
package koala

import (
	"fmt"

	"trader/internal/event"
	"trader/internal/sim"
)

// Args carries named scalar arguments/results of a method call.
type Args map[string]float64

// Method is one operation of an interface.
type Method func(args Args) Args

// Iface is a named collection of methods.
type Iface map[string]Method

// Call describes one inter-component invocation, visible to advice.
type Call struct {
	Caller    string // requiring component
	Callee    string // providing component
	Interface string
	Method    string
	Args      Args
	At        sim.Time
}

func (c Call) String() string {
	return fmt.Sprintf("%s->%s.%s.%s", c.Caller, c.Callee, c.Interface, c.Method)
}

// Component is a unit of composition with provided and required interfaces
// and a mode (the internal state observed by mode-consistency checking).
type Component struct {
	Name   string
	system *System

	provides map[string]Iface
	requires map[string]*binding
	mode     string
}

type binding struct {
	iface    string
	provider *Component
}

// System owns components, bindings, and the observation bus.
type System struct {
	Name       string
	kernel     *sim.Kernel
	components map[string]*Component
	weaver     *Weaver
	bus        *event.Bus
	seq        uint64
}

// NewSystem creates an empty component system. bus may be nil (no mode
// events are then published).
func NewSystem(kernel *sim.Kernel, name string, bus *event.Bus) *System {
	return &System{
		Name: name, kernel: kernel, bus: bus,
		components: make(map[string]*Component),
		weaver:     NewWeaver(),
	}
}

// Weaver returns the system's aspect weaver.
func (s *System) Weaver() *Weaver { return s.weaver }

// Bus returns the observation bus (may be nil).
func (s *System) Bus() *event.Bus { return s.bus }

// AddComponent registers a component.
func (s *System) AddComponent(name string) *Component {
	if _, dup := s.components[name]; dup {
		panic(fmt.Sprintf("koala: duplicate component %q", name))
	}
	c := &Component{
		Name: name, system: s,
		provides: make(map[string]Iface),
		requires: make(map[string]*binding),
	}
	s.components[name] = c
	return c
}

// Component returns the named component, or nil.
func (s *System) Component(name string) *Component { return s.components[name] }

// Provide declares that c implements iface.
func (c *Component) Provide(iface string, impl Iface) *Component {
	if _, dup := c.provides[iface]; dup {
		panic(fmt.Sprintf("koala: component %q already provides %q", c.Name, iface))
	}
	c.provides[iface] = impl
	return c
}

// Require declares that c needs iface; it must be bound before calls.
func (c *Component) Require(iface string) *Component {
	if _, dup := c.requires[iface]; dup {
		panic(fmt.Sprintf("koala: component %q already requires %q", c.Name, iface))
	}
	c.requires[iface] = &binding{iface: iface}
	return c
}

// Bind connects requirer's required iface to provider's provided iface.
func (s *System) Bind(requirer, iface, provider string) error {
	r := s.components[requirer]
	p := s.components[provider]
	if r == nil || p == nil {
		return fmt.Errorf("koala: bind %s.%s -> %s: unknown component", requirer, iface, provider)
	}
	b := r.requires[iface]
	if b == nil {
		return fmt.Errorf("koala: component %q does not require %q", requirer, iface)
	}
	if _, ok := p.provides[iface]; !ok {
		return fmt.Errorf("koala: component %q does not provide %q", provider, iface)
	}
	b.provider = p
	return nil
}

// Call invokes method on the component bound to c's required iface, routing
// through the weaver. It panics on unbound interfaces (a wiring bug) and
// returns the method result.
func (c *Component) Call(iface, method string, args Args) Args {
	b := c.requires[iface]
	if b == nil || b.provider == nil {
		panic(fmt.Sprintf("koala: component %q: unbound require %q", c.Name, iface))
	}
	impl := b.provider.provides[iface]
	m := impl[method]
	if m == nil {
		panic(fmt.Sprintf("koala: %q provides %q but not method %q", b.provider.Name, iface, method))
	}
	call := Call{
		Caller: c.Name, Callee: b.provider.Name,
		Interface: iface, Method: method, Args: args, At: c.now(),
	}
	return c.system.weaver.invoke(call, m)
}

func (c *Component) now() sim.Time {
	if c.system.kernel != nil {
		return c.system.kernel.Now()
	}
	return 0
}

// Mode returns the component's current mode.
func (c *Component) Mode() string { return c.mode }

// SetMode updates the component's mode and publishes a state event carrying
// the mode hash (modes are interned as integers on the wire; the event also
// keeps the string in its name for readability: "mode:<value>").
func (c *Component) SetMode(mode string) {
	if c.mode == mode {
		return
	}
	c.mode = mode
	if c.system.bus != nil {
		c.system.seq++
		e := event.Event{
			Kind: event.State, Name: "mode:" + mode, Source: c.Name,
			At: c.now(), Seq: c.system.seq,
		}
		e = e.With("mode", float64(ModeID(mode)))
		c.system.bus.Publish(e)
	}
}

// modeIDs interns mode strings process-wide so modes can travel as scalars.
var modeIDs = map[string]int{}
var modeNames []string

// ModeID returns a stable small integer for a mode string.
func ModeID(mode string) int {
	if id, ok := modeIDs[mode]; ok {
		return id
	}
	id := len(modeNames)
	modeIDs[mode] = id
	modeNames = append(modeNames, mode)
	return id
}

// ModeName returns the string for a mode id, or "".
func ModeName(id int) string {
	if id < 0 || id >= len(modeNames) {
		return ""
	}
	return modeNames[id]
}
