package corbalc_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"corbalc"
	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/leak"
	"corbalc/internal/node"
	"corbalc/internal/orb"
	"corbalc/internal/simnet"
	"corbalc/internal/xmldesc"
)

type greeterInstance struct{ component.Base }

func (g *greeterInstance) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if port == "greet" && op == "hello" {
		name, err := args.ReadString()
		if err != nil {
			return err
		}
		reply.WriteString("hello " + name + " from " + g.Ctx().NodeName())
		return nil
	}
	return orb.BadOperation()
}

func greeterSetup() (*component.Registry, *component.Spec) {
	reg := component.NewRegistry()
	reg.Register("facade/greeter.New", func() component.Instance { return &greeterInstance{} })
	spec := &component.Spec{Name: "greeter", Version: "1.0.0", Entrypoint: "facade/greeter.New"}
	spec.Provide("greet", "IDL:facade/Greeter:1.0")
	return reg, spec
}

func hello(t *testing.T, p *corbalc.Peer, who string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ref, err := p.Engine.Resolve(context.Background(), xmldesc.Port{
			Kind: xmldesc.PortUses, Name: "g", RepoID: "IDL:facade/Greeter:1.0",
		})
		if err == nil {
			var out string
			err = p.Node.ORB().NewRef(ref).InvokeContext(context.Background(), "hello",
				func(e *cdr.Encoder) { e.WriteString(who) },
				func(d *cdr.Decoder) error {
					var e error
					out, e = d.ReadString()
					return e
				})
			if err == nil {
				return out
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("hello never resolved: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClusterResolveAcrossVirtualNetwork(t *testing.T) {
	reg, spec := greeterSetup()
	c, err := corbalc.NewCluster(4, "vn%d", simnet.Link{}, corbalc.Options{
		Impls: reg, UpdateInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Peers[3].Node.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	got := hello(t, c.Peers[0], "cluster")
	if got != "hello cluster from vn3" {
		t.Fatalf("got %q", got)
	}
}

func TestTwoPeersOverRealTCP(t *testing.T) {
	reg, spec := greeterSetup()
	a := corbalc.NewPeer("alpha", corbalc.Options{Impls: reg, UpdateInterval: 20 * time.Millisecond})
	b := corbalc.NewPeer("beta", corbalc.Options{Impls: reg, UpdateInterval: 20 * time.Millisecond})
	defer a.Close()
	defer b.Close()

	srvA, err := a.ServeIIOP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := b.ServeIIOP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	if err := a.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Join through the stringified contact IOR, exactly as a separate
	// process would.
	contact, err := b.Node.ORB().ResolveStr(a.Contact().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Join(contact.IOR()); err != nil {
		t.Fatal(err)
	}

	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Node.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	got := hello(t, b, "tcp")
	if got != "hello tcp from alpha" {
		t.Fatalf("got %q", got)
	}
}

// TestIIOPOptionsThreadThroughFacade proves a peer configured through
// Options.IIOP carries real calls.
func TestIIOPOptionsThreadThroughFacade(t *testing.T) {
	reg, spec := greeterSetup()
	opts := corbalc.Options{
		Impls:          reg,
		UpdateInterval: 20 * time.Millisecond,
		IIOP: corbalc.IIOPOptions{
			PoolSize:    2,
			CallTimeout: 5 * time.Second,
		},
	}
	a := corbalc.NewPeer("alpha", opts)
	b := corbalc.NewPeer("beta", opts)
	defer a.Close()
	defer b.Close()

	srvA, err := a.ServeIIOP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := b.ServeIIOP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	if err := a.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	contact, err := b.Node.ORB().ResolveStr(a.Contact().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Join(contact.IOR()); err != nil {
		t.Fatal(err)
	}
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Node.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	if got := hello(t, b, "tuned"); got != "hello tuned from alpha" {
		t.Fatalf("got %q", got)
	}
}

func TestPeerLeaveShrinksDirectory(t *testing.T) {
	reg, _ := greeterSetup()
	c, err := corbalc.NewCluster(3, "lv%d", simnet.Link{}, corbalc.Options{
		Impls: reg, UpdateInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Peers[2].Leave()
	deadline := time.Now().Add(5 * time.Second)
	for c.Peers[0].Agent.Directory().Len() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("leave not observed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFigure1NodeWiring verifies, executably, the structure of the
// paper's Fig. 1: a node exposes the four external services, the
// Component Registry reflects the internal Component Repository
// (populate -> visible), the Resource Manager reflects the hardware, and
// instances/assemblies are reflected too.
func TestFigure1NodeWiring(t *testing.T) {
	reg, spec := greeterSetup()
	p := corbalc.NewPeer("fig1", corbalc.Options{Impls: reg, Profile: node.ServerProfile()})
	defer p.Close()
	if err := p.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	o := p.Node.ORB()
	// External view: the four Fig. 1 interfaces exist and respond.
	for _, svc := range []struct{ ref, op string }{
		{p.Node.Ref(node.ResourceManager).String(), "report"},
		{p.Node.Ref(node.ComponentRegistry).String(), "list_components"},
	} {
		ref, err := o.ResolveStr(svc.ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.InvokeContext(context.Background(), svc.op, nil, func(d *cdr.Decoder) error { return nil }); err != nil {
			t.Fatalf("%s: %v", svc.op, err)
		}
	}
	cohRef := o.NewRef(p.Contact())
	var epoch uint64
	if err := cohRef.InvokeContext(context.Background(), "ping", nil, func(d *cdr.Decoder) error {
		var e error
		epoch, e = d.ReadULongLong()
		return e
	}); err != nil || epoch == 0 {
		t.Fatalf("network cohesion ping: epoch=%d err=%v", epoch, err)
	}

	// "populates": installing through the acceptor makes the component
	// instantly visible through the registry (reflection).
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	acc := o.NewRef(p.Node.Ref(node.ComponentAcceptor))
	if err := acc.InvokeContext(context.Background(), "install",
		func(e *cdr.Encoder) { e.WriteOctetSeq(comp.Package().Bytes()) },
		func(d *cdr.Decoder) error { _, e := d.ReadString(); return e }); err != nil {
		t.Fatal(err)
	}
	regRef := o.NewRef(p.Node.Ref(node.ComponentRegistry))
	var names []string
	if err := regRef.InvokeContext(context.Background(), "list_components", nil, func(d *cdr.Decoder) error {
		var e error
		names, e = d.ReadStringSeq()
		return e
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "greeter-1.0.0" {
		t.Fatalf("registry reflects %v", names)
	}

	// "reflects": the resource manager reports the server profile and
	// reservation changes show in the dynamic data.
	rm := o.NewRef(p.Node.Ref(node.ResourceManager))
	readReport := func() *node.Report {
		var r *node.Report
		if err := rm.InvokeContext(context.Background(), "report", nil, func(d *cdr.Decoder) error {
			var e error
			r, e = node.UnmarshalReport(d)
			return e
		}); err != nil {
			t.Fatal(err)
		}
		return r
	}
	before := readReport()
	if before.Capability != node.CapServer || before.CPUCores != 16 {
		t.Fatalf("static info = %+v", before)
	}
	if _, err := p.Node.Instantiate(context.Background(), comp.ID(), "g1"); err != nil {
		t.Fatal(err)
	}
	after := readReport()
	if after.Instances != before.Instances+1 || after.Digest <= before.Digest {
		t.Fatalf("dynamic reflection: before=%+v after=%+v", before, after)
	}
}

// A crashed peer is still reachable — simnet keeps its endpoint, the
// endpoint its ORB, the ORB the cohesion servant, the servant the agent
// — so Close must leave the agent holding nothing: no directory entry,
// no member state, no gossip queue, and no goroutine it started. A
// cluster that keeps crashing and replacing peers without ever detaching
// them checks each corpse as it closes and again once the cluster has
// moved on; corpses are closed once, so the leak check at the end finds
// any goroutine one left behind.
func TestClosedPeerPinsNoState(t *testing.T) {
	leak.Check(t)
	const n, cycles = 40, 12
	opts := corbalc.Options{UpdateInterval: 20 * time.Millisecond}
	c, err := corbalc.NewCluster(n, "hp%02d", simnet.Link{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	agreed := func(peers []*corbalc.Peer) bool {
		e0, n0, x0 := peers[0].Agent.Stamp()
		for _, p := range peers[1:] {
			if e, m, x := p.Agent.Stamp(); e != e0 || m != n0 || x != x0 {
				return false
			}
		}
		return n0 == len(peers)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
		}
	}
	settle := func(peers []*corbalc.Peer) {
		t.Helper()
		waitFor("cluster never agreed on its membership", func() bool { return agreed(peers) })
	}
	holdsNothing := func(p *corbalc.Peer) {
		t.Helper()
		st := p.Agent.Stats()
		if _, members, _ := p.Agent.Stamp(); members != 0 || p.Agent.Directory().Len() != 0 || st.Nodes != 0 || st.Groups != 0 {
			t.Fatalf("%s: closed peer still holds a %d-member directory in %d groups", p.Node.Name(), members, st.Groups)
		}
		if st.Viewed != 0 || st.Queues != 0 {
			t.Fatalf("%s: closed peer still holds %d member states and %d gossip queues", p.Node.Name(), st.Viewed, st.Queues)
		}
	}
	settle(c.Peers)
	waitFor("the root MRM never held a member state: the checks below would prove nothing",
		func() bool { return c.Peers[0].Agent.Stats().Viewed > 0 })

	var corpses []*corbalc.Peer
	for i := 0; i < cycles; i++ {
		last := len(c.Peers) - 1
		victim := c.Peers[last]
		waitFor(victim.Node.Name()+" never shipped gossip", func() bool { return victim.Agent.Stats().GossipBatches > 0 })
		c.Net.SetDown(victim.Node.Name(), true) // down, never detached
		victim.Close()
		holdsNothing(victim)
		corpses = append(corpses, victim)
		settle(c.Peers[:last])
		name := fmt.Sprintf("hp-new%02d", i)
		p := corbalc.NewPeer(name, opts)
		if err := c.Net.Attach(name, p.Node.ORB()); err != nil {
			t.Fatal(err)
		}
		c.Peers[last] = p // before Join: the deferred Close covers it either way
		if err := p.Join(c.Peers[0].Contact()); err != nil {
			t.Fatal(err)
		}
		settle(c.Peers)
	}
	for _, p := range corpses {
		holdsNothing(p)
	}
}
