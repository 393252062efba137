package deploy_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"corbalc"
	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/deploy"
	"corbalc/internal/node"
	"corbalc/internal/orb"
	"corbalc/internal/simnet"
	"corbalc/internal/version"
	"corbalc/internal/xmldesc"
)

// pingInstance provides one port answering "ping" with the hosting node
// name, letting tests observe where calls execute.
type pingInstance struct {
	component.Base
	calls atomic.Int64
}

func (pi *pingInstance) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "ping":
		pi.calls.Add(1)
		reply.WriteString(pi.Ctx().NodeName())
		return nil
	case "frame": // one decoded video frame: TestE7CrossoverToLocal's payload
		reply.WriteOctetSeq(make([]byte, 64<<10))
		return nil
	}
	return orb.BadOperation()
}

func (pi *pingInstance) CaptureState() ([]byte, error) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.WriteLongLong(pi.calls.Load())
	return e.Bytes(), nil
}

func (pi *pingInstance) RestoreState(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	v, err := cdr.NewDecoder(b, cdr.LittleEndian).ReadLongLong()
	if err != nil {
		return err
	}
	pi.calls.Store(v)
	return nil
}

func registerPing(reg *component.Registry) {
	reg.Register("test/ping.New", func() component.Instance { return &pingInstance{} })
}

// pingSpec builds a component providing the Ping interface; bandwidth
// configures the fetch decision.
func pingSpec(name string, bandwidth float64) *component.Spec {
	s := &component.Spec{Name: name, Version: "1.0.0", Entrypoint: "test/ping.New"}
	s.Provide("svc", "IDL:test/Ping:1.0")
	s.QoS = xmldesc.QoS{CPUMin: 0.1, BandwidthMin: bandwidth}
	return s
}

func testOpts(extra func(*corbalc.Options)) corbalc.Options {
	reg := component.NewRegistry()
	registerPing(reg)
	opts := corbalc.Options{
		Impls:          reg,
		UpdateInterval: 20 * time.Millisecond,
		// A generous failure timeout: these tests assert placement
		// logic, not failure detection, and the suite runs with many
		// test binaries contending for CPU.
		FailMultiple: 15,
		GroupSize:    8,
	}
	if extra != nil {
		extra(&opts)
	}
	return opts
}

func newCluster(t *testing.T, n int, extra func(*corbalc.Options)) *corbalc.Cluster {
	t.Helper()
	c, err := corbalc.NewCluster(n, "peer%d", simnet.Link{}, testOpts(extra))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

func install(t *testing.T, p *corbalc.Peer, spec *component.Spec) component.ID {
	t.Helper()
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Node.InstallComponent(comp)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// waitOffers waits until the network can answer a query from peer p.
func waitOffers(t *testing.T, p *corbalc.Peer, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if offers, err := p.Agent.Query(context.Background(), key, "*"); err == nil && len(offers) > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no offers for %s", key)
}

func callPing(t *testing.T, p *corbalc.Peer, ref *orb.ObjectRef) string {
	t.Helper()
	var where string
	err := ref.InvokeContext(context.Background(), "ping", nil, func(d *cdr.Decoder) error {
		var e error
		where, e = d.ReadString()
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	return where
}

func TestResolveRemoteUse(t *testing.T) {
	c := newCluster(t, 3, nil)
	install(t, c.Peers[2], pingSpec("logger", 0)) // low bandwidth: stay remote
	waitOffers(t, c.Peers[0], "IDL:test/Ping:1.0")

	ref, err := c.Peers[0].Engine.Resolve(context.Background(), xmldesc.Port{
		Kind: xmldesc.PortUses, Name: "log", RepoID: "IDL:test/Ping:1.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	where := callPing(t, c.Peers[0], c.Peers[0].Node.ORB().NewRef(ref))
	if where != "peer2" {
		t.Fatalf("executed on %s, want peer2 (remote use)", where)
	}
	// The component must NOT have been fetched locally.
	if c.Peers[0].Node.Repo().Len() != 0 {
		t.Fatal("low-bandwidth component was fetched")
	}
}

func TestResolveFetchesBandwidthHungryComponent(t *testing.T) {
	c := newCluster(t, 3, nil)
	install(t, c.Peers[2], pingSpec("decoder", 20)) // above the 5 Mbps default threshold
	waitOffers(t, c.Peers[0], "IDL:test/Ping:1.0")

	ref, err := c.Peers[0].Engine.Resolve(context.Background(), xmldesc.Port{
		Kind: xmldesc.PortUses, Name: "video", RepoID: "IDL:test/Ping:1.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The MPEG-decoder decision: the component was fetched and now runs
	// locally.
	where := callPing(t, c.Peers[0], c.Peers[0].Node.ORB().NewRef(ref))
	if where != "peer0" {
		t.Fatalf("executed on %s, want peer0 (fetched locally)", where)
	}
	if _, ok := c.Peers[0].Node.Repo().Get(component.ID{Name: "decoder", Version: mustV("1.0.0")}); !ok {
		t.Fatal("decoder not installed locally after fetch")
	}
}

func TestFetchDisabledByPolicy(t *testing.T) {
	c := newCluster(t, 2, func(o *corbalc.Options) {
		o.Deploy = &deploy.Policy{FetchEnabled: false, LoadWeight: 1}
	})
	install(t, c.Peers[1], pingSpec("decoder", 20))
	waitOffers(t, c.Peers[0], "IDL:test/Ping:1.0")
	ref, err := c.Peers[0].Engine.Resolve(context.Background(), xmldesc.Port{
		Kind: xmldesc.PortUses, Name: "video", RepoID: "IDL:test/Ping:1.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if where := callPing(t, c.Peers[0], c.Peers[0].Node.ORB().NewRef(ref)); where != "peer1" {
		t.Fatalf("executed on %s, want peer1", where)
	}
	if c.Peers[0].Node.Repo().Len() != 0 {
		t.Fatal("fetched despite disabled policy")
	}
}

func TestPDAUsesComponentsRemotely(t *testing.T) {
	reg := component.NewRegistry()
	registerPing(reg)
	net := simnet.New(simnet.Link{})
	server := corbalc.NewPeer("server", corbalc.Options{Impls: reg, UpdateInterval: 20 * time.Millisecond})
	pda := corbalc.NewPeer("pda", corbalc.Options{
		Impls: reg, UpdateInterval: 20 * time.Millisecond, Profile: node.PDAProfile(),
	})
	if err := net.Attach("server", server.Node.ORB()); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach("pda", pda.Node.ORB()); err != nil {
		t.Fatal(err)
	}
	if err := server.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := pda.Join(server.Contact()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close(); pda.Close() })

	install(t, server, pingSpec("decoder", 50)) // very bandwidth hungry
	waitOffers(t, pda, "IDL:test/Ping:1.0")

	ref, err := pda.Engine.Resolve(context.Background(), xmldesc.Port{
		Kind: xmldesc.PortUses, Name: "video", RepoID: "IDL:test/Ping:1.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	// A PDA never fetches, however hungry the component: it uses it
	// remotely (paper §3.1).
	if where := callPing(t, pda, pda.Node.ORB().NewRef(ref)); where != "server" {
		t.Fatalf("executed on %s, want server", where)
	}
	if pda.Node.Repo().Len() != 0 {
		t.Fatal("PDA fetched a component")
	}
}

func TestPlacePrefersLeastLoadedNode(t *testing.T) {
	c := newCluster(t, 3, nil)
	spec := pingSpec("worker", 0)
	install(t, c.Peers[1], spec)
	install(t, c.Peers[2], spec)
	// Skew peer1 heavily.
	c.Peers[1].Node.Resources().SetBackgroundLoad(3.5)
	waitOffers(t, c.Peers[0], node.ComponentKey("worker"))
	// Give the MRM a moment to see the skewed load.
	time.Sleep(100 * time.Millisecond)

	pl, err := c.Peers[0].Engine.Place(context.Background(), "worker", "*", "w1")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Node != "peer2" {
		t.Fatalf("placed on %s, want peer2 (least loaded)", pl.Node)
	}
	// The instance is reachable through its reflective reference.
	ref, err := c.Peers[0].Engine.ProvidePort(context.Background(), pl, "svc")
	if err != nil {
		t.Fatal(err)
	}
	if where := callPing(t, c.Peers[0], c.Peers[0].Node.ORB().NewRef(ref)); where != "peer2" {
		t.Fatalf("instance runs on %s", where)
	}
}

func TestPlaceNoOffer(t *testing.T) {
	c := newCluster(t, 2, nil)
	_, err := c.Peers[0].Engine.Place(context.Background(), "ghost", "*", "g")
	if !errors.Is(err, deploy.ErrNoOffer) {
		t.Fatalf("err = %v", err)
	}
	_, err = c.Peers[0].Engine.Resolve(context.Background(), xmldesc.Port{
		Kind: xmldesc.PortUses, Name: "x", RepoID: "IDL:test/Missing:1.0",
	})
	if !errors.Is(err, deploy.ErrNoOffer) {
		t.Fatalf("resolve err = %v", err)
	}
}

func TestYieldInstanceOp(t *testing.T) {
	c := newCluster(t, 2, nil)
	comp, err := pingSpec("worker", 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Peers[0].Node.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Peers[0].Node.Instantiate(context.Background(), comp.ID(), "y1"); err != nil {
		t.Fatal(err)
	}
	acc := c.Peers[1].Node.ORB().NewRef(c.Peers[0].Node.AcceptorIOR())
	var capsule []byte
	err = acc.InvokeContext(context.Background(), "yield_instance",
		func(e *cdr.Encoder) { e.WriteString(comp.ID().String()); e.WriteString("y1") },
		func(d *cdr.Decoder) error { var e error; capsule, e = d.ReadOctetSeq(); return e })
	if err != nil {
		t.Fatal(err)
	}
	if len(capsule) == 0 {
		t.Fatal("empty capsule")
	}
	// The instance is gone from the source.
	ct, err := c.Peers[0].Node.ContainerFor(component.ID{Name: "worker", Version: mustV("1.0.0")})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ct.Instance("y1"); ok {
		t.Fatal("instance still on source after yield")
	}
	// Yielding a ghost is a user exception, not a crash.
	err = acc.InvokeContext(context.Background(), "yield_instance",
		func(e *cdr.Encoder) { e.WriteString(comp.ID().String()); e.WriteString("ghost") }, nil)
	if err == nil {
		t.Fatal("ghost yield succeeded")
	}
}

func mustV(s string) version.V {
	v, err := version.Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

func TestAlwaysFetchPolicy(t *testing.T) {
	c := newCluster(t, 2, func(o *corbalc.Options) {
		// Threshold zero: fetch any movable component regardless of its
		// bandwidth demand.
		o.Deploy = &deploy.Policy{FetchEnabled: true, FetchBandwidthMbps: 0, LoadWeight: 1}
	})
	install(t, c.Peers[1], pingSpec("logger", 0)) // zero bandwidth demand
	waitOffers(t, c.Peers[0], "IDL:test/Ping:1.0")
	ref, err := c.Peers[0].Engine.Resolve(context.Background(), xmldesc.Port{
		Kind: xmldesc.PortUses, Name: "log", RepoID: "IDL:test/Ping:1.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if where := callPing(t, c.Peers[0], c.Peers[0].Node.ORB().NewRef(ref)); where != "peer0" {
		t.Fatalf("executed on %s, want peer0 (always-fetch)", where)
	}
	if c.Peers[0].Node.Repo().Len() != 1 {
		t.Fatal("component not fetched under always-fetch policy")
	}
}

func TestFetchFallsBackToRemoteWhenImmovable(t *testing.T) {
	c := newCluster(t, 2, func(o *corbalc.Options) {
		o.Deploy = &deploy.Policy{FetchEnabled: true, FetchBandwidthMbps: 0, LoadWeight: 1}
	})
	spec := pingSpec("anchored", 50)
	spec.Mobility = "fixed"
	install(t, c.Peers[1], spec)
	waitOffers(t, c.Peers[0], "IDL:test/Ping:1.0")
	ref, err := c.Peers[0].Engine.Resolve(context.Background(), xmldesc.Port{
		Kind: xmldesc.PortUses, Name: "a", RepoID: "IDL:test/Ping:1.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fixed components cannot be fetched: remote use is the only option.
	if where := callPing(t, c.Peers[0], c.Peers[0].Node.ORB().NewRef(ref)); where != "peer1" {
		t.Fatalf("executed on %s, want peer1", where)
	}
	if c.Peers[0].Node.Repo().Len() != 0 {
		t.Fatal("immovable component was fetched")
	}
}
