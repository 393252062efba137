package component

import (
	"fmt"
	"sync"

	"corbalc/internal/ior"
	"corbalc/internal/xmldesc"
)

// PortState is the run-time condition of one port of an instance.
type PortState struct {
	Desc xmldesc.Port
	// Declared marks ports from the component type descriptor (the
	// "minimal set"); only dynamically added ports can be removed.
	Declared bool
	// Connected reports whether a uses port has a bound provider or a
	// consumes port a subscription.
	Connected bool
	// Target is the provider reference of a connected uses port.
	Target *ior.IOR
}

// PortSet is the runtime-mutable set of ports of a component instance —
// the mechanism behind §2.4.2: "component instances can adapt to the
// changing environment requesting new services or offering new ones.
// CORBA-LC offers operations which allow modifying the set of ports a
// component exposes."
type PortSet struct {
	mu    sync.RWMutex
	ports map[string]*PortState
	order []string
}

// NewPortSet seeds a set with the component type's declared ports.
func NewPortSet(declared []xmldesc.Port) *PortSet {
	ps := &PortSet{ports: make(map[string]*PortState, len(declared))}
	for _, p := range declared {
		ps.ports[p.Name] = &PortState{Desc: p, Declared: true}
		ps.order = append(ps.order, p.Name)
	}
	return ps
}

// Add extends the set with a new (dynamic) port.
func (ps *PortSet) Add(p xmldesc.Port) error {
	switch p.Kind {
	case xmldesc.PortProvides, xmldesc.PortUses, xmldesc.PortEmits, xmldesc.PortConsumes:
	default:
		return fmt.Errorf("component: port %q: invalid kind %q", p.Name, p.Kind)
	}
	if p.Name == "" {
		return fmt.Errorf("component: unnamed port")
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, dup := ps.ports[p.Name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicatePort, p.Name)
	}
	ps.ports[p.Name] = &PortState{Desc: p}
	ps.order = append(ps.order, p.Name)
	return nil
}

// Remove retracts a dynamically added port (declared ports are the
// component's contractual minimum and cannot be removed).
func (ps *PortSet) Remove(name string) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	st, ok := ps.ports[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchPort, name)
	}
	if st.Declared {
		return fmt.Errorf("%w: %s", ErrPortDeclared, name)
	}
	delete(ps.ports, name)
	for i, n := range ps.order {
		if n == name {
			ps.order = append(ps.order[:i], ps.order[i+1:]...)
			break
		}
	}
	return nil
}

// Connect binds a uses/consumes port to a provider reference.
func (ps *PortSet) Connect(name string, target *ior.IOR) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	st, ok := ps.ports[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchPort, name)
	}
	if st.Desc.Kind != xmldesc.PortUses && st.Desc.Kind != xmldesc.PortConsumes {
		return fmt.Errorf("component: port %s is %s; only uses/consumes ports connect", name, st.Desc.Kind)
	}
	st.Connected = true
	st.Target = target
	return nil
}

// Disconnect unbinds a port.
func (ps *PortSet) Disconnect(name string) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	st, ok := ps.ports[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchPort, name)
	}
	st.Connected = false
	st.Target = nil
	return nil
}

// Get returns the state of one port.
func (ps *PortSet) Get(name string) (PortState, bool) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	st, ok := ps.ports[name]
	if !ok {
		return PortState{}, false
	}
	return *st, true
}

// List snapshots all port states in insertion order.
func (ps *PortSet) List() []PortState {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	out := make([]PortState, 0, len(ps.order))
	for _, n := range ps.order {
		out = append(out, *ps.ports[n])
	}
	return out
}

// Unsatisfied returns the non-optional uses/consumes ports that are not
// yet connected — the dependency set the network must resolve before the
// instance is fully operational.
func (ps *PortSet) Unsatisfied() []xmldesc.Port {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	var out []xmldesc.Port
	for _, n := range ps.order {
		st := ps.ports[n]
		if (st.Desc.Kind == xmldesc.PortUses || st.Desc.Kind == xmldesc.PortConsumes) &&
			!st.Desc.Optional && !st.Connected {
			out = append(out, st.Desc)
		}
	}
	return out
}
