package corbalc_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"corbalc"
	"corbalc/internal/cdr"
	"corbalc/internal/cohesion"
	"corbalc/internal/component"
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

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first may only have queued finalizers
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A crashed peer is still reachable — simnet keeps its endpoint, the
// endpoint its ORB, the ORB the cohesion servant, the servant the agent
// — so Close must leave the agent holding nothing: it reads as never
// joined, and a cluster that keeps crashing and replacing peers without
// ever detaching them does not grow by half a directory replica per
// corpse beyond what a peer closed before it ever joined keeps.
func TestClosedPeerPinsNoState(t *testing.T) {
	const n, cycles = 40, 90
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
	settle := func(peers []*corbalc.Peer) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); !agreed(peers); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("cluster never agreed on its membership")
			}
		}
	}
	settle(c.Peers)

	// What one decoded replica of this cluster's directory weighs.
	e := cdr.NewEncoder(cdr.LittleEndian)
	c.Peers[0].Agent.Directory().Marshal(e)
	replicas := make([]*cohesion.Directory, 32)
	before := liveHeap()
	for i := range replicas {
		if replicas[i], err = cohesion.UnmarshalDirectory(cdr.NewDecoder(e.Bytes(), cdr.LittleEndian)); err != nil {
			t.Fatal(err)
		}
	}
	replica := (liveHeap() - before) / uint64(len(replicas))
	runtime.KeepAlive(replicas)

	// What every corpse keeps by design: a peer attached, downed and
	// closed before it ever joined holds its endpoint, ORB, node and
	// agent and no protocol state.
	var idle []*corbalc.Peer
	before = liveHeap()
	for i := 0; i < cycles; i++ {
		name := fmt.Sprintf("hp-idle%02d", i)
		p := corbalc.NewPeer(name, opts)
		if err := c.Net.Attach(name, p.Node.ORB()); err != nil {
			t.Fatal(err)
		}
		c.Net.SetDown(name, true)
		p.Close()
		idle = append(idle, p)
	}
	floor := (int64(liveHeap()) - int64(before)) / cycles
	runtime.KeepAlive(idle)

	var corpses []*corbalc.Peer
	before = liveHeap()
	for i := 0; i < cycles; i++ {
		last := len(c.Peers) - 1
		victim := c.Peers[last]
		c.Net.SetDown(victim.Node.Name(), true) // down, never detached
		victim.Close()
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
	grown := int64(liveHeap()) - int64(before)

	for _, p := range corpses {
		if _, members, _ := p.Agent.Stamp(); members != 0 || p.Agent.Directory().Len() != 0 {
			t.Fatalf("%s: closed peer still holds a %d-member directory", p.Node.Name(), members)
		}
	}
	perCorpse := grown/cycles - floor
	t.Logf("one replica %d B; heap grew %d B over %d crash+join cycles, %d B per crashed peer beyond the %d B a peer closed unjoined keeps", replica, grown, cycles, perCorpse, floor)
	// Half a replica: the replica is weighed while the cluster gossips,
	// so the figure itself wanders by a quarter.
	if perCorpse >= int64(replica/2) {
		t.Fatalf("heap grew %d B per crashed peer (beyond a %d B floor) against a directory replica of %d B: closed peers pin state", perCorpse, floor, replica)
	}
}
