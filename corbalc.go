// Package corbalc is the public facade of the CORBA Lightweight
// Components (CORBA-LC) implementation: a lightweight, reflective,
// peer/network-centred distributed component model (Sevilla, García,
// Gómez — ICPP 2001) built on an embedded CORBA stack.
//
// A process hosts one or more Peers. Each Peer bundles the Fig. 1 node
// (Component Repository, Resource Manager, Component Registry, Component
// Acceptor), the network cohesion agent (membership, MRM hierarchy,
// soft-consistency updates) and the run-time deployment engine
// (network-wide dependency resolution and placement). Peers connect over
// real IIOP/TCP (ServeIIOP) or over the in-process virtual network
// (simnet) — or both.
//
// Quick start:
//
//	a := corbalc.NewPeer("alpha", corbalc.Options{})
//	b := corbalc.NewPeer("beta", corbalc.Options{})
//	net := simnet.New(simnet.Link{})
//	_ = net.Attach("alpha", a.Node.ORB())
//	_ = net.Attach("beta", b.Node.ORB())
//	_ = a.Bootstrap()
//	_ = b.Join(a.Contact())
//	// install a component anywhere, use it from everywhere
//	id, _ := a.Node.Install(pkgBytes)
//	_ = id
package corbalc

import (
	"crypto/ed25519"
	"fmt"
	"time"

	"corbalc/internal/cohesion"
	"corbalc/internal/component"
	"corbalc/internal/deploy"
	"corbalc/internal/iiop"
	"corbalc/internal/ior"
	"corbalc/internal/node"
	"corbalc/internal/simnet"
)

// Options configures a Peer.
type Options struct {
	// Profile describes the hardware class (default workstation).
	Profile node.Profile
	// Impls resolves implementation entry points (default the
	// process-wide component.DefaultRegistry).
	Impls *component.Registry
	// TrustedKeys restricts installs to signed packages when non-empty.
	TrustedKeys []ed25519.PublicKey
	// GroupSize is the MRM fanout (default 8).
	GroupSize int
	// Replicas is the MRM replication degree (default 2).
	Replicas int
	// UpdateInterval is the soft-consistency period (default 500ms).
	UpdateInterval time.Duration
	// FailMultiple times UpdateInterval is the failure timeout
	// (default 3).
	FailMultiple int
	// Mode selects Soft (default) or Strong consistency.
	Mode cohesion.Mode
	// Policy refines soft updates (Periodic default, DeadBand,
	// Predictive).
	Policy cohesion.SendPolicy
	// Deploy tunes placement (default deploy.DefaultPolicy).
	Deploy *deploy.Policy
	// IIOP tunes the real TCP transport used by ServeIIOP/UseIIOP.
	// Zero values select the documented defaults; peers on simnet
	// ignore it.
	IIOP IIOPOptions
}

// IIOPOptions carries the client-side IIOP/TCP settings through the
// facade (DESIGN.md §10). Zero values select the defaults documented in
// internal/iiop; the server side is tuned on iiop.Server directly.
type IIOPOptions struct {
	// PoolSize is the striped connection-pool size kept per remote
	// endpoint (default iiop.DefaultPoolSize = min(8, GOMAXPROCS);
	// negative forces a single multiplexed connection).
	PoolSize int
	// CallTimeout bounds one two-way call (default
	// iiop.DefaultCallTimeout; negative disables the limit).
	CallTimeout time.Duration
}

// Peer is one CORBA-LC node with its protocol agent and deployment
// engine.
type Peer struct {
	Node   *node.Node
	Agent  *cohesion.Agent
	Engine *deploy.Engine

	iiop IIOPOptions
}

// NewPeer assembles a peer (not yet part of any logical network).
func NewPeer(name string, opts Options) *Peer {
	n := node.New(node.Config{
		Name:        name,
		Impls:       opts.Impls,
		Profile:     opts.Profile,
		TrustedKeys: opts.TrustedKeys,
	})
	agent := cohesion.NewAgent(cohesion.Config{
		Node:           n,
		GroupSize:      opts.GroupSize,
		Replicas:       opts.Replicas,
		UpdateInterval: opts.UpdateInterval,
		FailMultiple:   opts.FailMultiple,
		Mode:           opts.Mode,
		Policy:         opts.Policy,
	})
	pol := deploy.DefaultPolicy()
	if opts.Deploy != nil {
		pol = *opts.Deploy
	}
	engine := deploy.NewEngine(n, agent, pol)
	n.SetResolver(engine)
	return &Peer{Node: n, Agent: agent, Engine: engine, iiop: opts.IIOP}
}

// Bootstrap starts a new logical network with this peer as its first
// member.
func (p *Peer) Bootstrap() error { return p.Agent.Bootstrap() }

// Contact returns the reference other peers pass to Join.
func (p *Peer) Contact() *ior.IOR { return p.Agent.CohesionIOR() }

// Join enters the logical network reachable at contact.
func (p *Peer) Join(contact *ior.IOR) error { return p.Agent.Join(contact) }

// Leave departs gracefully and stops the peer's protocol loop.
func (p *Peer) Leave() { p.Agent.Leave() }

// Close stops everything without notifying the network (crash).
func (p *Peer) Close() {
	p.Agent.Stop()
	p.Node.Close()
}

// ServeIIOP starts a real IIOP/TCP endpoint for the peer and registers
// the client-side transport, so IORs minted by this peer are reachable
// from other processes. It returns the listening server.
func (p *Peer) ServeIIOP(addr string) (*iiop.Server, error) {
	p.UseIIOP()
	return iiop.ListenAndActivate(p.Node.ORB(), addr)
}

// UseIIOP registers only the client-side IIOP transport (for peers that
// call out but do not listen), configured from Options.IIOP.
func (p *Peer) UseIIOP() {
	p.Node.ORB().RegisterTransport(&iiop.Transport{
		CallTimeout: p.iiop.CallTimeout,
		PoolSize:    p.iiop.PoolSize,
	})
}

// Cluster is a set of peers joined into one logical network over an
// in-process virtual network — what the examples and the package tests
// build on.
type Cluster struct {
	Net   *simnet.Network
	Peers []*Peer
}

// NewCluster builds n peers named fmt.Sprintf(nameFmt, i), attaches them
// to a fresh virtual network with the given link quality, bootstraps the
// first and joins the rest.
func NewCluster(n int, nameFmt string, link simnet.Link, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("corbalc: cluster needs at least one peer")
	}
	if nameFmt == "" {
		nameFmt = "node%03d"
	}
	c := &Cluster{Net: simnet.New(link)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf(nameFmt, i)
		p := NewPeer(name, opts)
		if err := c.Net.Attach(name, p.Node.ORB()); err != nil {
			c.Close()
			return nil, err
		}
		c.Peers = append(c.Peers, p)
	}
	if err := c.Peers[0].Bootstrap(); err != nil {
		c.Close()
		return nil, err
	}
	for i := 1; i < n; i++ {
		// A join is idempotent at the root (a known name is re-placed in
		// its existing group), so a timeout against a momentarily
		// overloaded root — routine while a swarm-sized cluster forms on
		// few cores — is retried rather than surfaced.
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if err = c.Peers[i].Join(c.Peers[0].Contact()); err == nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// WaitConverged blocks until every peer's directory covers the whole
// cluster (or the timeout passes).
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, p := range c.Peers {
			if p.Agent.Directory().Len() != len(c.Peers) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("corbalc: cluster did not converge within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close shuts every peer down.
func (c *Cluster) Close() {
	for _, p := range c.Peers {
		p.Close()
	}
}
