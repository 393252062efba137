package container

import (
	"context"
	"fmt"
	"sync"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/events"
	"corbalc/internal/ior"
	"corbalc/internal/orb"
	"corbalc/internal/xmldesc"
)

// ManagedInstance is one running component instance under container
// control: the implementation object, its runtime port set, its CORBA
// servants (equivalent interface + one per provided port) and its event
// subscriptions.
type ManagedInstance struct {
	c    *Container
	name string
	inst component.Instance

	ports   *component.PortSet
	release func() // QoS reservation release

	mu         sync.Mutex
	active     bool
	cancels    map[string]func() // consumes-port subscriptions
	equivalent *ior.IOR
}

// Repository IDs of the container-level CORBA interfaces.
const (
	EquivalentRepoID = "IDL:corbalc/ComponentInstance:1.0"
)

func newManagedInstance(c *Container, name string, inst component.Instance, release func()) *ManagedInstance {
	return &ManagedInstance{
		c:       c,
		name:    name,
		inst:    inst,
		ports:   component.NewPortSet(c.comp.Type().Ports),
		release: release,
		cancels: make(map[string]func()),
	}
}

// Name returns the framework-assigned instance name.
func (mi *ManagedInstance) Name() string { return mi.name }

// Ports returns the instance's runtime port set.
func (mi *ManagedInstance) Ports() *component.PortSet { return mi.ports }

// objectKey builds the adapter key for this instance (optionally a port).
func (mi *ManagedInstance) objectKey(port string) string {
	k := "inst/" + mi.c.comp.ID().String() + "/" + mi.name
	if port != "" {
		k += "/port/" + port
	}
	return k
}

// activate registers servants and event wiring, then calls the
// implementation's Activate with the framework context.
func (mi *ManagedInstance) activate() error {
	o := mi.c.host.ORB()
	mi.equivalent = o.Activate(mi.objectKey(""), &equivalentServant{mi: mi})
	for _, st := range mi.ports.List() {
		switch st.Desc.Kind {
		case xmldesc.PortProvides:
			mi.activateProvidedPort(st.Desc.Name)
		case xmldesc.PortConsumes:
			mi.subscribeConsumesPort(st.Desc)
		}
	}
	mi.mu.Lock()
	mi.active = true
	mi.mu.Unlock()
	return mi.inst.Activate(&instanceContext{mi: mi})
}

// activateProvidedPort exposes one provided port as a CORBA object.
func (mi *ManagedInstance) activateProvidedPort(port string) {
	o := mi.c.host.ORB()
	desc, _ := mi.ports.Get(port)
	o.Adapter().Activate(mi.objectKey(port), &portServant{mi: mi, port: port, repoID: desc.Desc.RepoID})
}

// subscribeConsumesPort subscribes a consumes port to the node hub
// channel for its event kind.
func (mi *ManagedInstance) subscribeConsumesPort(p xmldesc.Port) {
	ch := mi.c.host.Hub().Channel(p.RepoID)
	port := p.Name
	cancel := ch.Subscribe(mi.name+"/"+port, func(ev events.Event) {
		mi.mu.Lock()
		ok := mi.active
		mi.mu.Unlock()
		if ok {
			mi.inst.ConsumeEvent(port, ev)
		}
	})
	mi.mu.Lock()
	if old := mi.cancels[port]; old != nil {
		old()
	}
	mi.cancels[port] = cancel
	mi.mu.Unlock()
	_ = mi.ports.Connect(port, nil)
}

// teardown passivates the implementation and retracts all servants and
// subscriptions.
func (mi *ManagedInstance) teardown() {
	mi.mu.Lock()
	wasActive := mi.active
	mi.active = false
	cancels := mi.cancels
	mi.cancels = make(map[string]func())
	mi.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	if wasActive {
		_ = mi.inst.Passivate()
	}
	o := mi.c.host.ORB()
	o.Adapter().Deactivate(mi.objectKey(""))
	for _, st := range mi.ports.List() {
		if st.Desc.Kind == xmldesc.PortProvides {
			o.Adapter().Deactivate(mi.objectKey(st.Desc.Name))
		}
	}
	if mi.release != nil {
		mi.release()
		mi.release = nil
	}
}

// capture passivates the implementation and snapshots everything needed
// to resurrect the instance elsewhere.
func (mi *ManagedInstance) capture() (*Capsule, error) {
	mi.mu.Lock()
	mi.active = false
	mi.mu.Unlock()
	if err := mi.inst.Passivate(); err != nil {
		return nil, err
	}
	return mi.buildCapsule()
}

// buildCapsule serialises the (quiescent) instance into a capsule.
func (mi *ManagedInstance) buildCapsule() (*Capsule, error) {
	state, err := mi.inst.CaptureState()
	if err != nil {
		return nil, err
	}
	capsule := &Capsule{
		ComponentID:  mi.c.comp.ID().String(),
		InstanceName: mi.name,
		State:        state,
		Connections:  make(map[string]*ior.IOR),
	}
	for _, st := range mi.ports.List() {
		if !st.Declared {
			capsule.DynamicPorts = append(capsule.DynamicPorts, st.Desc)
		}
		if st.Desc.Kind == xmldesc.PortUses && st.Connected && st.Target != nil {
			capsule.Connections[st.Desc.Name] = st.Target
		}
	}
	return capsule, nil
}

// EquivalentIOR returns the instance's reflective "equivalent interface"
// reference.
func (mi *ManagedInstance) EquivalentIOR() *ior.IOR { return mi.equivalent }

// PortIOR returns the CORBA reference of a provided port.
func (mi *ManagedInstance) PortIOR(port string) (*ior.IOR, error) {
	st, ok := mi.ports.Get(port)
	if !ok {
		return nil, fmt.Errorf("%w: %s", component.ErrNoSuchPort, port)
	}
	if st.Desc.Kind != xmldesc.PortProvides {
		return nil, fmt.Errorf("container: port %s is %s, not provides", port, st.Desc.Kind)
	}
	return mi.c.host.ORB().NewIOR(st.Desc.RepoID, mi.objectKey(port)), nil
}

// Connect wires a uses port to a provider reference.
func (mi *ManagedInstance) Connect(port string, target *ior.IOR) error {
	return mi.ports.Connect(port, target)
}

// Disconnect unwires a uses port.
func (mi *ManagedInstance) Disconnect(port string) error {
	return mi.ports.Disconnect(port)
}

// ResolveDependencies asks the host to satisfy every unsatisfied
// required uses port through the network (the automatic dependency
// management of paper §2, requirement 6). Consumes ports are satisfied
// locally by hub subscription at activation.
func (mi *ManagedInstance) ResolveDependencies(ctx context.Context) error {
	for _, p := range mi.ports.Unsatisfied() {
		if p.Kind != xmldesc.PortUses {
			continue
		}
		target, err := mi.c.host.ResolveDependency(ctx, p)
		if err != nil {
			return fmt.Errorf("container: resolving port %s (%s): %w", p.Name, p.RepoID, err)
		}
		if err := mi.ports.Connect(p.Name, target); err != nil {
			return err
		}
	}
	return nil
}

// instanceContext implements component.Context for one instance.
type instanceContext struct{ mi *ManagedInstance }

func (ic *instanceContext) NodeName() string { return ic.mi.c.host.NodeName() }

func (ic *instanceContext) UsePort(name string) (*orb.ObjectRef, error) {
	st, ok := ic.mi.ports.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", component.ErrNoSuchPort, name)
	}
	if !st.Connected || st.Target == nil {
		return nil, fmt.Errorf("%w: %s", component.ErrNotConnected, name)
	}
	return ic.mi.c.host.ORB().NewRef(st.Target), nil
}

func (ic *instanceContext) Emit(port string, data []byte) error {
	st, ok := ic.mi.ports.Get(port)
	if !ok {
		return fmt.Errorf("%w: %s", component.ErrNoSuchPort, port)
	}
	if st.Desc.Kind != xmldesc.PortEmits {
		return fmt.Errorf("container: port %s is %s, not emits", port, st.Desc.Kind)
	}
	return ic.mi.c.host.Hub().Channel(st.Desc.RepoID).Push(events.Event{
		Source: ic.mi.name,
		Data:   data,
	})
}

func (ic *instanceContext) AddPort(p xmldesc.Port) error {
	if err := ic.mi.ports.Add(p); err != nil {
		return err
	}
	switch p.Kind {
	case xmldesc.PortProvides:
		ic.mi.activateProvidedPort(p.Name)
	case xmldesc.PortConsumes:
		ic.mi.subscribeConsumesPort(p)
	}
	return nil
}

func (ic *instanceContext) RemovePort(name string) error {
	st, ok := ic.mi.ports.Get(name)
	if !ok {
		return fmt.Errorf("%w: %s", component.ErrNoSuchPort, name)
	}
	if err := ic.mi.ports.Remove(name); err != nil {
		return err
	}
	switch st.Desc.Kind {
	case xmldesc.PortProvides:
		ic.mi.c.host.ORB().Adapter().Deactivate(ic.mi.objectKey(name))
	case xmldesc.PortConsumes:
		ic.mi.mu.Lock()
		if cancel := ic.mi.cancels[name]; cancel != nil {
			cancel()
			delete(ic.mi.cancels, name)
		}
		ic.mi.mu.Unlock()
	}
	return nil
}

// portServant adapts a provided port to the ORB servant interface.
type portServant struct {
	mi     *ManagedInstance
	port   string
	repoID string
}

func (s *portServant) RepositoryID() string { return s.repoID }

func (s *portServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	s.mi.mu.Lock()
	active := s.mi.active
	s.mi.mu.Unlock()
	if !active {
		return orb.ObjectNotExist()
	}
	return s.mi.inst.InvokePort(s.port, op, args, reply)
}

// equivalentServant is the instance's reflective CORBA interface: port
// introspection, port provisioning, connection management, and the
// run-time port mutation operations of §2.4.2.
type equivalentServant struct{ mi *ManagedInstance }

func (s *equivalentServant) RepositoryID() string { return EquivalentRepoID }

func (s *equivalentServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	mi := s.mi
	switch op {
	case "name":
		reply.WriteString(mi.name)
		return nil
	case "component_id":
		reply.WriteString(mi.c.comp.ID().String())
		return nil
	case "ports":
		// sequence of (name, kind, repoid, connected, declared)
		states := mi.ports.List()
		reply.WriteULong(uint32(len(states)))
		for _, st := range states {
			reply.WriteString(st.Desc.Name)
			reply.WriteString(string(st.Desc.Kind))
			reply.WriteString(st.Desc.RepoID)
			reply.WriteBool(st.Connected)
			reply.WriteBool(st.Declared)
		}
		return nil
	case "provide_port":
		name, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		ref, err := mi.PortIOR(name)
		if err != nil {
			return noPortExc(name)
		}
		ref.Marshal(reply)
		return nil
	case "connect":
		name, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		target, err := ior.Unmarshal(args)
		if err != nil {
			return orb.Marshal()
		}
		if err := mi.Connect(name, target); err != nil {
			return noPortExc(name)
		}
		return nil
	case "disconnect":
		name, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		if err := mi.Disconnect(name); err != nil {
			return noPortExc(name)
		}
		return nil
	case "add_port":
		var p xmldesc.Port
		name, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		kind, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		repoID, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		p = xmldesc.Port{Name: name, Kind: xmldesc.PortKind(kind), RepoID: repoID}
		ctx := &instanceContext{mi: mi}
		if err := ctx.AddPort(p); err != nil {
			return &orb.UserException{
				ID:      "IDL:corbalc/ComponentInstance/PortError:1.0",
				Payload: func(e *cdr.Encoder) { e.WriteString(err.Error()) },
			}
		}
		return nil
	case "remove_port":
		name, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		ctx := &instanceContext{mi: mi}
		if err := ctx.RemovePort(name); err != nil {
			return noPortExc(name)
		}
		return nil
	}
	return orb.BadOperation()
}

func noPortExc(name string) error {
	return &orb.UserException{
		ID:      "IDL:corbalc/ComponentInstance/NoSuchPort:1.0",
		Payload: func(e *cdr.Encoder) { e.WriteString(name) },
	}
}
