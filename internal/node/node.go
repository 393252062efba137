// Package node implements the CORBA-LC node (paper §2.4.1, Fig. 1):
// the per-host server that maintains the logical network behaviour. A
// Node owns a Component Repository and exposes four services — the
// Resource Manager (static and dynamic host information), the Component
// Registry (the reflective external view of the repository and the
// running instances), the Component Acceptor (hooks for run-time
// installation and instantiation), and, attached by the network layer,
// the Network Cohesion protocol endpoint — plus the event service that
// stretches its push channels across nodes. Service names each of them.
package node

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/container"
	"corbalc/internal/events"
	"corbalc/internal/ior"
	"corbalc/internal/orb"
	"corbalc/internal/version"
	"corbalc/internal/xmldesc"
)

// Service names one of the five services every node runs: the four of
// Fig. 1 and the event service that stretches its push channels across
// nodes (§2.1.2).
type Service uint8

// The node services.
const (
	NetworkCohesion Service = iota
	ComponentRegistry
	ComponentAcceptor
	ResourceManager
	EventService
)

// services holds each service's repository ID and well-known object key
// in the node's adapter. Every reference to a node service is minted
// (Node.Ref) or derived from the node's endpoint (Derive) through it.
var services = [...]struct{ repoID, key string }{
	NetworkCohesion:   {"IDL:corbalc/NetworkCohesion:1.0", "node/cohesion"},
	ComponentRegistry: {"IDL:corbalc/ComponentRegistry:1.0", "node/registry"},
	ComponentAcceptor: {"IDL:corbalc/ComponentAcceptor:1.0", "node/acceptor"},
	ResourceManager:   {"IDL:corbalc/ResourceManager:1.0", "node/resources"},
	EventService:      {"IDL:corbalc/EventService:1.0", "node/events"},
}

// RepoID returns the service's CORBA interface ID.
func (svc Service) RepoID() string { return services[svc].repoID }

// Key returns the service's object key in the node's adapter.
func (svc Service) Key() string { return services[svc].key }

// Derive returns the reference to a service of the node at endpoint ep
// (ior.Cut): byte-identical to the one that node's Ref mints.
func Derive(ep []byte, svc Service) *ior.IOR { return ior.Derive(ep, svc.RepoID(), svc.Key()) }

// DependencyResolver finds a provider reference for a required port.
// The node's default resolver only looks locally; the Distributed
// Registry plugs in a network-wide one.
type DependencyResolver interface {
	Resolve(ctx context.Context, p xmldesc.Port) (*ior.IOR, error)
}

// ErrUnresolved reports that no provider could be found for a port.
var ErrUnresolved = errors.New("node: dependency unresolved")

// Config assembles a Node.
type Config struct {
	Name string
	// ORB to serve on; a fresh one is created when nil.
	ORB *orb.ORB
	// Impls resolves implementation entry points (defaults to
	// component.DefaultRegistry).
	Impls *component.Registry
	// Profile describes the hardware (defaults to WorkstationProfile).
	Profile Profile
	// TrustedKeys, when non-empty, makes the acceptor reject packages
	// not signed by one of them.
	TrustedKeys []ed25519.PublicKey
}

// eventQueues configures the node hub's channels: a subscriber may fall
// 256 events behind, one that far behind blocks the publisher
// (backpressure, nothing dropped), and batch subscribers are handed
// events as they arrive.
var eventQueues = events.Config{Depth: 256, Policy: events.Block}

// Node is one CORBA-LC node.
type Node struct {
	name string
	orb  *orb.ORB

	// ctx is the node's lifetime context: background work the node
	// starts on its own behalf (event-bridge pushes) derives from it and
	// stops at Close.
	ctx    context.Context
	cancel context.CancelFunc
	hub    *events.Hub
	impls  *component.Registry
	res    *Resources
	repo   *Repository
	keys   []ed25519.PublicKey

	mu         sync.Mutex
	containers map[component.ID]*container.Container
	resolver   DependencyResolver
	eventSvc   *eventService

	digest atomic.Uint64
	// offersEpoch advances only when the installed-component set (the
	// offer list) changes; see Report.OffersEpoch.
	offersEpoch atomic.Uint64
	onChange    atomic.Pointer[func()]
}

// New assembles a node and activates its service servants on the ORB.
func New(cfg Config) *Node {
	if cfg.Name == "" {
		cfg.Name = "node"
	}
	o := cfg.ORB
	if o == nil {
		o = orb.NewORB()
	}
	impls := cfg.Impls
	if impls == nil {
		impls = component.DefaultRegistry
	}
	prof := cfg.Profile
	if prof.CPUCores == 0 && prof.MemoryMB == 0 {
		prof = WorkstationProfile()
	}
	n := &Node{
		name:       cfg.Name,
		orb:        o,
		hub:        events.NewHubConfig(eventQueues),
		impls:      impls,
		res:        NewResources(prof),
		repo:       NewRepository(),
		keys:       cfg.TrustedKeys,
		containers: make(map[component.ID]*container.Container),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.resolver = &localResolver{n: n}
	n.eventSvc = newEventService(n)
	o.Activate(ResourceManager.Key(), &resourceServant{n: n})
	o.Activate(ComponentRegistry.Key(), &registryServant{n: n})
	o.Activate(ComponentAcceptor.Key(), &acceptorServant{n: n})
	o.Activate(EventService.Key(), n.eventSvc)
	return n
}

// Name implements container.Host.
func (n *Node) Name() string { return n.name }

// NodeName implements container.Host.
func (n *Node) NodeName() string { return n.name }

// ORB implements container.Host.
func (n *Node) ORB() *orb.ORB { return n.orb }

// Hub implements container.Host.
func (n *Node) Hub() *events.Hub { return n.hub }

// Admit implements container.Host.
func (n *Node) Admit(q xmldesc.QoS) (func(), error) {
	release, err := n.res.Admit(q)
	if err != nil {
		return nil, err
	}
	n.bumpDigest()
	return func() { release(); n.bumpDigest() }, nil
}

// ResolveDependency implements container.Host.
func (n *Node) ResolveDependency(ctx context.Context, p xmldesc.Port) (*ior.IOR, error) {
	n.mu.Lock()
	r := n.resolver
	n.mu.Unlock()
	return r.Resolve(ctx, p)
}

// SetResolver plugs in a network-wide dependency resolver (the
// Distributed Registry does this when the node joins a network).
func (n *Node) SetResolver(r DependencyResolver) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.resolver = r
}

// Resources returns the node's resource manager.
func (n *Node) Resources() *Resources { return n.res }

// Repo returns the node's component repository.
func (n *Node) Repo() *Repository { return n.repo }

// Digest returns the node's reflection epoch.
func (n *Node) Digest() uint64 { return n.digest.Load() }

func (n *Node) bumpDigest() {
	n.digest.Add(1)
	if fn := n.onChange.Load(); fn != nil {
		(*fn)()
	}
}

// Touch records a reflective change without altering state — the
// experiment harness uses it to drive configurable change rates through
// the same path real instantiations take. It moves the digest, not the
// offers (Report.OffersEpoch), and runs the change listener.
func (n *Node) Touch() { n.bumpDigest() }

// SetChangeListener registers fn to run after every reflection change
// (install/uninstall, instance creation/destruction, QoS reservations).
// fn runs on the changing goroutine and must not block. The Distributed
// Registry's agent registers one in both consistency modes: Soft pushes
// an offer change to the node's MRM replicas and the root's summary at
// once, Strong floods every change.
func (n *Node) SetChangeListener(fn func()) {
	if fn == nil {
		n.onChange.Store(nil)
		return
	}
	n.onChange.Store(&fn)
}

// Report returns the resource snapshot stamped with the node identity.
func (n *Node) Report() Report {
	r := n.res.Snapshot()
	r.Node = n.name
	r.Digest = n.Digest()
	r.OffersEpoch = n.offersEpoch.Load()
	return r
}

// Ref mints the reference to one of the node's services. It is minted
// on each call, so it carries the profiles of every transport attached
// by then.
func (n *Node) Ref(svc Service) *ior.IOR { return n.orb.NewIOR(svc.RepoID(), svc.Key()) }

// endpoint is the one endpoint (ior.Cut) all of the node's services
// share. Cut refuses no reference the node's ORB mints.
func (n *Node) endpoint() []byte {
	ep, _ := ior.Cut(n.Ref(ComponentAcceptor))
	return ep
}

// Install verifies and installs a component package from its archive
// bytes — the Component Acceptor path ("hooks for accepting new
// components at run-time", Fig. 1). The package must carry an
// implementation fitting this node's platform.
func (n *Node) Install(data []byte) (component.ID, error) {
	if n.res.Profile().Fixed {
		return component.ID{}, ErrFixedNode
	}
	c, err := component.LoadBytes(data)
	if err != nil {
		return component.ID{}, err
	}
	return n.installLoaded(c)
}

// InstallComponent installs an already-loaded component (local
// convenience used by deployment and tests; applies the same checks).
func (n *Node) InstallComponent(c *component.Component) (component.ID, error) {
	if n.res.Profile().Fixed {
		return component.ID{}, ErrFixedNode
	}
	return n.installLoaded(c)
}

func (n *Node) installLoaded(c *component.Component) (component.ID, error) {
	if err := verifyPackage(c, n.keys); err != nil {
		return component.ID{}, err
	}
	p := n.res.Profile()
	if _, ok := c.SoftPkg().FindImplementation(p.OS, p.Arch, p.ORB); !ok {
		return component.ID{}, fmt.Errorf("%w: %s on %s/%s", ErrNoPlatformFit, c.ID(), p.OS, p.Arch)
	}
	// Memory gate for tiny devices: a component whose minimum footprint
	// exceeds the device's total memory can never run here.
	if q := c.Type().QoS; q.MemoryMinMB > p.MemoryMB {
		return component.ID{}, fmt.Errorf("%w: needs %d MB, node has %d MB",
			ErrResources, q.MemoryMinMB, p.MemoryMB)
	}
	n.repo.Put(c)
	n.offersEpoch.Add(1)
	n.bumpDigest()
	return c.ID(), nil
}

// Uninstall removes a component, closing its container.
func (n *Node) Uninstall(id component.ID) error {
	n.mu.Lock()
	ct := n.containers[id]
	delete(n.containers, id)
	n.mu.Unlock()
	if ct != nil {
		ct.Close()
	}
	if !n.repo.Remove(id) {
		return fmt.Errorf("%w: %s", ErrNotInstalled, id)
	}
	n.offersEpoch.Add(1)
	n.bumpDigest()
	return nil
}

// cachedContainer returns the already-created container for id, if any.
func (n *Node) cachedContainer(id component.ID) (*container.Container, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ct, ok := n.containers[id]
	return ct, ok
}

// adoptContainer records ct for id unless a concurrent caller won the
// race; the winning container is returned along with whether ct was the
// one adopted.
func (n *Node) adoptContainer(id component.ID, ct *container.Container) (*container.Container, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if existing, ok := n.containers[id]; ok {
		return existing, false
	}
	n.containers[id] = ct
	return ct, true
}

// ContainerFor returns (creating on demand) the container hosting a
// component's instances on this node.
func (n *Node) ContainerFor(id component.ID) (*container.Container, error) {
	if ct, ok := n.cachedContainer(id); ok {
		return ct, nil
	}
	c, ok := n.repo.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotInstalled, id)
	}
	ct, err := container.New(n, c, n.impls)
	if err != nil {
		return nil, err
	}
	winner, adopted := n.adoptContainer(id, ct)
	if !adopted {
		ct.Close()
	}
	return winner, nil
}

// Instantiate creates (and dependency-resolves) an instance of an
// installed component.
func (n *Node) Instantiate(ctx context.Context, id component.ID, name string) (*container.ManagedInstance, error) {
	ct, err := n.ContainerFor(id)
	if err != nil {
		return nil, err
	}
	mi, err := ct.Create(name)
	if err != nil {
		return nil, err
	}
	if err := mi.ResolveDependencies(ctx); err != nil {
		_ = ct.Destroy(mi.Name())
		return nil, err
	}
	n.bumpDigest()
	return mi, nil
}

// Instances lists (component ID, instance) pairs currently running.
func (n *Node) Instances() map[component.ID][]*container.ManagedInstance {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[component.ID][]*container.ManagedInstance, len(n.containers))
	for id, ct := range n.containers {
		out[id] = ct.Instances()
	}
	return out
}

// Close tears down all containers and the event hub.
func (n *Node) Close() {
	n.cancel()
	n.mu.Lock()
	cts := n.containers
	n.containers = make(map[component.ID]*container.Container)
	n.mu.Unlock()
	for _, ct := range cts {
		ct.Close()
	}
	n.eventSvc.close()
	n.hub.Close()
	n.orb.Shutdown()
}

// Offer is one match for a component query: an installed component on
// some node providing the requested port, with the data placement needs
// (§2.4.3: location, QoS, mobility).
type Offer struct {
	ComponentID string
	Node        string
	Port        string
	PortRepoID  string
	Movable     bool
	CPUMin      float64
	MemoryMinMB uint32
	// BandwidthMin is the component's declared bandwidth demand in
	// Mbit/s; the fetch-vs-remote placement decision keys off it.
	BandwidthMin float64
	// NodeLoad is the offering node's load fraction at snapshot time.
	NodeLoad float64
	// Endpoint is the offering node's endpoint (ior.Cut): Ref derives
	// its acceptor, to instantiate remotely, or its registry, to fetch
	// the package.
	Endpoint []byte
}

// Ref derives the reference to one of the offering node's services.
func (of *Offer) Ref(svc Service) *ior.IOR { return Derive(of.Endpoint, svc) }

// Marshal encodes the offer.
func (of *Offer) Marshal(e *cdr.Encoder) {
	e.WriteString(of.ComponentID)
	e.WriteString(of.Node)
	e.WriteString(of.Port)
	e.WriteString(of.PortRepoID)
	e.WriteBool(of.Movable)
	e.WriteDouble(of.CPUMin)
	e.WriteULong(of.MemoryMinMB)
	e.WriteDouble(of.BandwidthMin)
	e.WriteDouble(of.NodeLoad)
	e.WriteOctetSeq(of.Endpoint)
}

// UnmarshalOffer decodes an offer and refuses an endpoint
// ior.CheckEndpoint refuses.
func UnmarshalOffer(d *cdr.Decoder) (*Offer, error) {
	of := &Offer{}
	var err error
	if of.ComponentID, err = d.ReadString(); err != nil {
		return nil, err
	}
	if of.Node, err = d.ReadString(); err != nil {
		return nil, err
	}
	if of.Port, err = d.ReadString(); err != nil {
		return nil, err
	}
	if of.PortRepoID, err = d.ReadString(); err != nil {
		return nil, err
	}
	if of.Movable, err = d.ReadBool(); err != nil {
		return nil, err
	}
	if of.CPUMin, err = d.ReadDouble(); err != nil {
		return nil, err
	}
	if of.MemoryMinMB, err = d.ReadULong(); err != nil {
		return nil, err
	}
	if of.BandwidthMin, err = d.ReadDouble(); err != nil {
		return nil, err
	}
	if of.NodeLoad, err = d.ReadDouble(); err != nil {
		return nil, err
	}
	if of.Endpoint, err = d.ReadOctetSeq(); err != nil {
		return nil, err
	}
	if err := ior.CheckEndpoint(of.Endpoint); err != nil {
		return nil, err
	}
	return of, nil
}

// MarshalOffers encodes a sequence of offers.
func MarshalOffers(e *cdr.Encoder, offers []*Offer) {
	e.WriteULong(uint32(len(offers)))
	for _, of := range offers {
		of.Marshal(e)
	}
}

// UnmarshalOffers decodes a sequence of offers.
func UnmarshalOffers(d *cdr.Decoder) ([]*Offer, error) {
	nOffers, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining())/8 < nOffers {
		return nil, cdr.ErrTooLong
	}
	out := make([]*Offer, nOffers)
	for i := range out {
		if out[i], err = UnmarshalOffer(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LocalQuery lists this node's offers matching a port interface ID (or
// a "component:<name>" key) under a version requirement ("Component
// Registries collaborate to resolve distributed component queries",
// §2.4.3).
func (n *Node) LocalQuery(portRepoID, versionReq string) ([]*Offer, error) {
	req, err := version.ParseRequirement(versionReq)
	if err != nil {
		return nil, err
	}
	report := n.Report()
	load := report.LoadFraction()
	ep := n.endpoint()
	provs := n.repo.Providers(portRepoID, req)
	offers := make([]*Offer, 0, len(provs))
	for _, c := range provs {
		of := &Offer{
			ComponentID:  c.ID().String(),
			Node:         n.name,
			PortRepoID:   portRepoID,
			Movable:      c.Movable(),
			CPUMin:       c.Type().QoS.CPUMin,
			MemoryMinMB:  uint32(c.Type().QoS.MemoryMinMB),
			BandwidthMin: c.Type().QoS.BandwidthMin,
			NodeLoad:     load,
			Endpoint:     ep,
		}
		// Name the concrete port when the key is an interface ID.
		for _, p := range c.Type().PortsOf(xmldesc.PortProvides) {
			if p.RepoID == portRepoID {
				of.Port = p.Name
				break
			}
		}
		offers = append(offers, of)
	}
	return offers, nil
}

// ObtainPort returns a provided-port reference for a component installed
// here, reusing a running instance or creating one — the server half of
// network dependency resolution.
func (n *Node) ObtainPort(ctx context.Context, id component.ID, portRepoID string) (*ior.IOR, error) {
	c, ok := n.repo.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotInstalled, id)
	}
	ct, err := n.ContainerFor(id)
	if err != nil {
		return nil, err
	}
	var mi *container.ManagedInstance
	if insts := ct.Instances(); len(insts) > 0 {
		mi = insts[0]
	} else {
		mi, err = ct.Create("")
		if err != nil {
			return nil, err
		}
		if err := mi.ResolveDependencies(ctx); err != nil {
			_ = ct.Destroy(mi.Name())
			return nil, err
		}
		n.bumpDigest()
	}
	for _, port := range c.Type().PortsOf(xmldesc.PortProvides) {
		if port.RepoID == portRepoID {
			return mi.PortIOR(port.Name)
		}
	}
	return nil, fmt.Errorf("%w: %s does not provide %s", ErrUnresolved, id, portRepoID)
}

// ComponentKey builds the pseudo-port query key under which a component
// is advertised by name: queries for "component:<name>" match the
// component itself rather than one of its provided interfaces
// (assemblies instantiate components by name, §2.4.4).
func ComponentKey(name string) string { return "component:" + name }

// AllOffers enumerates every provided port of every installed component,
// plus one by-name pseudo-offer per component — the reflective export
// set a node advertises to its Meta-Resource Manager.
func (n *Node) AllOffers() []*Offer {
	report := n.Report()
	load := report.LoadFraction()
	ep := n.endpoint()
	var offers []*Offer
	for _, id := range n.repo.List() {
		c, ok := n.repo.Get(id)
		if !ok {
			continue
		}
		mk := func(port, repoID string) *Offer {
			return &Offer{
				ComponentID:  id.String(),
				Node:         n.name,
				Port:         port,
				PortRepoID:   repoID,
				Movable:      c.Movable(),
				CPUMin:       c.Type().QoS.CPUMin,
				MemoryMinMB:  uint32(c.Type().QoS.MemoryMinMB),
				BandwidthMin: c.Type().QoS.BandwidthMin,
				NodeLoad:     load,
				Endpoint:     ep,
			}
		}
		offers = append(offers, mk("", ComponentKey(id.Name)))
		for _, p := range c.Type().PortsOf(xmldesc.PortProvides) {
			offers = append(offers, mk(p.Name, p.RepoID))
		}
	}
	return offers
}

// localResolver satisfies dependencies from this node's repository only:
// it instantiates (or reuses) a local provider and returns its port.
type localResolver struct{ n *Node }

func (lr *localResolver) Resolve(ctx context.Context, p xmldesc.Port) (*ior.IOR, error) {
	req, _ := version.ParseRequirement(p.Version)
	provs := lr.n.repo.Providers(p.RepoID, req)
	if len(provs) == 0 {
		return nil, fmt.Errorf("%w: no local provider for %s", ErrUnresolved, p.RepoID)
	}
	return lr.n.ObtainPort(ctx, provs[0].ID(), p.RepoID)
}
