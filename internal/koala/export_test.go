package koala

import (
	"fmt"
	"sort"
)

// Clone copies the args.
func (a Args) Clone() Args {
	out := make(Args, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// BoundTo returns the provider bound to the required interface ("" when
// unbound or unknown) — architecture introspection for tooling like the
// FMEA model builder.
func (c *Component) BoundTo(iface string) string {
	if b := c.requires[iface]; b != nil && b.provider != nil {
		return b.provider.Name
	}
	return ""
}

// Provides lists the component's provided interface names, sorted.
func (c *Component) Provides() []string {
	out := make([]string, 0, len(c.provides))
	for i := range c.provides {
		out = append(out, i)
	}
	sort.Strings(out)
	return out
}

// Requires lists the component's required interface names, sorted.
func (c *Component) Requires() []string {
	out := make([]string, 0, len(c.requires))
	for i := range c.requires {
		out = append(out, i)
	}
	sort.Strings(out)
	return out
}

// Validate checks that every required interface is bound.
func (s *System) Validate() error {
	var missing []string
	for _, c := range s.Components() {
		ifaces := make([]string, 0, len(c.requires))
		for i := range c.requires {
			ifaces = append(ifaces, i)
		}
		sort.Strings(ifaces)
		for _, i := range ifaces {
			if c.requires[i].provider == nil {
				missing = append(missing, c.Name+"."+i)
			}
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("koala: unbound requires: %v", missing)
	}
	return nil
}

// AspectNames lists woven aspect names, sorted and deduplicated.
func (w *Weaver) AspectNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, a := range w.aspects {
		if !seen[a.advice.Name] {
			seen[a.advice.Name] = true
			names = append(names, a.advice.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Unweave removes all aspects with the given name.
func (w *Weaver) Unweave(name string) {
	kept := w.aspects[:0]
	for _, a := range w.aspects {
		if a.advice.Name != name {
			kept = append(kept, a)
		}
	}
	w.aspects = kept
}

// Components returns all components sorted by name.
func (s *System) Components() []*Component {
	out := make([]*Component, 0, len(s.components))
	for _, c := range s.components {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
