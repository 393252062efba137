// Package container implements the CORBA-LC container framework (paper
// §2.2): the run-time environment component instances live in. The
// container is "the instances' view of the world" — it activates and
// passivates them, satisfies their required ports by collaborating with
// its node, exposes their provided ports and their reflective
// equivalent interface as CORBA objects, runs the automatically
// generated factory for the component type, enforces the QoS admission
// envelope, and captures/restores instance state for migration and
// replication.
package container

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/events"
	"corbalc/internal/ior"
	"corbalc/internal/orb"
	"corbalc/internal/xmldesc"
)

// Host is the container's view of its node: the services the node
// contributes to the component framework. (The node package implements
// it; the indirection keeps the dependency graph acyclic and lets tests
// run containers without a full node.)
type Host interface {
	// NodeName identifies the hosting node.
	NodeName() string
	// ORB returns the node's object request broker.
	ORB() *orb.ORB
	// Hub returns the node's event channel hub.
	Hub() *events.Hub
	// Admit reserves the QoS envelope for a new instance, returning a
	// release function, or an error when the node cannot host it.
	Admit(q xmldesc.QoS) (release func(), err error)
	// ResolveDependency finds a provider for a required uses port,
	// searching the whole network through the Distributed Registry. The
	// context bounds the network-wide search.
	ResolveDependency(ctx context.Context, p xmldesc.Port) (*ior.IOR, error)
}

// Errors returned by the container.
var (
	ErrNoInstance   = errors.New("container: no such instance")
	ErrDuplicate    = errors.New("container: instance name in use")
	ErrMaxInstances = errors.New("container: instance limit reached")
	ErrNotMovable   = errors.New("container: component is not movable")
	ErrPassivated   = errors.New("container: instance is passivated")
	ErrAdmission    = errors.New("container: QoS admission failed")
)

// Container hosts the instances of one component on one node.
type Container struct {
	host Host
	comp *component.Component
	reg  *component.Registry

	mu        sync.Mutex
	instances map[string]*ManagedInstance
	seq       int
	factory   *ior.IOR
	shared    *ManagedInstance // lifecycle "service": one shared instance
}

// knownFrameworkServices are the container services a component type may
// declare in its <framework> element (§2.1.2 "required framework
// services"); a type demanding anything else cannot be hosted.
var knownFrameworkServices = map[string]bool{
	"events":      true,
	"migration":   true,
	"replication": true,
	"lifecycle":   true,
}

// ErrUnknownService reports a framework-service demand this container
// cannot satisfy.
var ErrUnknownService = errors.New("container: unknown framework service required")

// New builds a container for comp, resolving implementations through
// reg. It activates the component's factory servant immediately.
func New(host Host, comp *component.Component, reg *component.Registry) (*Container, error) {
	if host == nil || comp == nil || reg == nil {
		return nil, errors.New("container: nil host, component or registry")
	}
	for _, svc := range comp.Type().Framework {
		if !knownFrameworkServices[svc.Name] {
			return nil, fmt.Errorf("%w: %q (component %s)", ErrUnknownService, svc.Name, comp.ID())
		}
	}
	c := &Container{
		host:      host,
		comp:      comp,
		reg:       reg,
		instances: make(map[string]*ManagedInstance),
	}
	key := "factory/" + comp.ID().String()
	c.factory = host.ORB().Activate(key, &factoryServant{c: c})
	return c, nil
}

// FactoryIOR returns the reference of the component's factory — the
// CORBA interface clients use to create instances (§2.1.2: "clients can
// search for a factory of the required component and ask it for the
// creation of a component instance").
func (c *Container) FactoryIOR() *ior.IOR { return c.factory }

// FactoryRepoID is the repository ID of generated factories.
const FactoryRepoID = "IDL:corbalc/ComponentFactory:1.0"

// Create instantiates the component under the given instance name (""
// auto-names it). It enforces the factory policy, admits the QoS
// envelope, wires event ports and activates the instance.
func (c *Container) Create(name string) (*ManagedInstance, error) {
	ct := c.comp.Type()

	name, existing, err := c.reserveName(name)
	if err != nil {
		return nil, err
	}
	if existing != nil {
		return existing, nil
	}

	release, err := c.host.Admit(ct.QoS)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAdmission, err)
	}

	// Resolve the implementation entry point for this node's platform;
	// the Spec/package pipeline guarantees a GoRegistered code element.
	im, _, err := c.comp.Package().Binary("any", "any", "corbalc")
	if err != nil {
		im, _, err = c.comp.Package().Binary("", "", "")
	}
	if err != nil {
		release()
		return nil, err
	}
	inst, err := c.reg.New(im.Code.EntryPoint)
	if err != nil {
		release()
		return nil, err
	}

	mi := newManagedInstance(c, name, inst, release)
	if err := mi.activate(); err != nil {
		release()
		return nil, err
	}

	if err := c.adoptInstance(name, mi, ct.Factory.Lifecycle == "service"); err != nil {
		mi.teardown()
		return nil, err
	}
	return mi, nil
}

// reserveName enforces the factory policy under the lock: it returns the
// shared service instance when one already exists, or the (possibly
// auto-generated) name the new instance will be created under.
func (c *Container) reserveName(name string) (string, *ManagedInstance, error) {
	ct := c.comp.Type()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ct.Factory.Lifecycle == "service" && c.shared != nil {
		return "", c.shared, nil
	}
	if name == "" {
		c.seq++
		name = fmt.Sprintf("%s-%d", c.comp.Name(), c.seq)
	}
	if _, dup := c.instances[name]; dup {
		return "", nil, fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	if max := ct.Factory.MaxInstances; max > 0 && len(c.instances) >= max {
		return "", nil, fmt.Errorf("%w (%d)", ErrMaxInstances, max)
	}
	return name, nil, nil
}

// adoptInstance publishes the activated instance unless a concurrent
// Create took the name while the lock was released for admission and
// activation.
func (c *Container) adoptInstance(name string, mi *ManagedInstance, service bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.instances[name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	c.instances[name] = mi
	if service && c.shared == nil {
		c.shared = mi
	}
	return nil
}

// Instance returns a live instance by name.
func (c *Container) Instance(name string) (*ManagedInstance, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mi, ok := c.instances[name]
	return mi, ok
}

// Instances snapshots the live instances.
func (c *Container) Instances() []*ManagedInstance {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*ManagedInstance, 0, len(c.instances))
	for _, mi := range c.instances {
		out = append(out, mi)
	}
	return out
}

// Destroy passivates and removes an instance.
func (c *Container) Destroy(name string) error {
	c.mu.Lock()
	mi, ok := c.instances[name]
	if ok {
		delete(c.instances, name)
		if c.shared == mi {
			c.shared = nil
		}
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	mi.teardown()
	return nil
}

// Close destroys all instances and deactivates the factory.
func (c *Container) Close() {
	c.mu.Lock()
	insts := c.instances
	c.instances = make(map[string]*ManagedInstance)
	c.shared = nil
	c.mu.Unlock()
	for _, mi := range insts {
		mi.teardown()
	}
	c.host.ORB().Adapter().Deactivate("factory/" + c.comp.ID().String())
}

// Migrate passivates an instance, captures its state and connections
// into a capsule, and removes it from this container. The capsule can be
// shipped (with the component package if needed) and handed to
// Restore on another node — the paper's migration story (§2.2).
func (c *Container) Migrate(name string) (*Capsule, error) {
	if !c.comp.Movable() {
		return nil, ErrNotMovable
	}
	c.mu.Lock()
	mi, ok := c.instances[name]
	if ok {
		delete(c.instances, name)
		if c.shared == mi {
			c.shared = nil
		}
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoInstance, name)
	}
	capsule, err := mi.capture()
	mi.teardown()
	if err != nil {
		return nil, err
	}
	return capsule, nil
}

// Restore re-creates an instance from a migration capsule: a fresh
// implementation object receives the captured state, the dynamic ports
// are re-added and connections re-established.
func (c *Container) Restore(capsule *Capsule) (*ManagedInstance, error) {
	if capsule.ComponentID != c.comp.ID().String() {
		return nil, fmt.Errorf("container: capsule for %s offered to %s",
			capsule.ComponentID, c.comp.ID())
	}
	mi, err := c.Create(capsule.InstanceName)
	if err != nil {
		return nil, err
	}
	if err := mi.inst.RestoreState(capsule.State); err != nil {
		_ = c.Destroy(capsule.InstanceName)
		return nil, err
	}
	for _, p := range capsule.DynamicPorts {
		if err := mi.ports.Add(p); err != nil {
			_ = c.Destroy(capsule.InstanceName)
			return nil, err
		}
		if p.Kind == xmldesc.PortProvides {
			mi.activateProvidedPort(p.Name)
		}
		if p.Kind == xmldesc.PortConsumes {
			mi.subscribeConsumesPort(p)
		}
	}
	for port, target := range capsule.Connections {
		if err := mi.Connect(port, target); err != nil {
			_ = c.Destroy(capsule.InstanceName)
			return nil, err
		}
	}
	return mi, nil
}

// factoryServant is the automatically generated factory implementation
// (§2.1.2: "factory properties ... allow to automatically generate the
// factory code for this type of component").
type factoryServant struct{ c *Container }

func (f *factoryServant) RepositoryID() string { return FactoryRepoID }

func (f *factoryServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "create":
		name, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		mi, err := f.c.Create(name)
		if err != nil {
			return &orb.UserException{
				ID:      "IDL:corbalc/ComponentFactory/CreateFailed:1.0",
				Payload: func(e *cdr.Encoder) { e.WriteString(err.Error()) },
			}
		}
		mi.EquivalentIOR().Marshal(reply)
		return nil
	case "destroy":
		name, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		if err := f.c.Destroy(name); err != nil {
			return &orb.UserException{
				ID:      "IDL:corbalc/ComponentFactory/NoSuchInstance:1.0",
				Payload: func(e *cdr.Encoder) { e.WriteString(err.Error()) },
			}
		}
		return nil
	case "list":
		insts := f.c.Instances()
		names := make([]string, 0, len(insts))
		for _, mi := range insts {
			names = append(names, mi.Name())
		}
		reply.WriteStringSeq(names)
		return nil
	case "component_id":
		reply.WriteString(f.c.comp.ID().String())
		return nil
	}
	return orb.BadOperation()
}
