package deploy_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/deploy"
	"corbalc/internal/xmldesc"
)

func TestNetBalancerMigratesOverCORBA(t *testing.T) {
	c := newCluster(t, 3, nil) // one group: peer0 is the MRM leader
	spec := pingSpec("worker", 0)
	spec.QoS = xmldesc.QoS{CPUMin: 0.8}
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// peer1 hosts all the load; peer2 is idle and does NOT have the
	// component installed (the balancer must fetch it over the wire).
	if _, err := c.Peers[1].Node.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"w1", "w2", "w3"} {
		if _, err := c.Peers[1].Node.Instantiate(context.Background(), comp.ID(), name); err != nil {
			t.Fatal(err)
		}
	}
	// Give the instance state so we can verify it survives the move.
	ct1, err := c.Peers[1].Node.ContainerFor(comp.ID())
	if err != nil {
		t.Fatal(err)
	}
	mi, _ := ct1.Instance("w1")
	mi.Impl().(*pingInstance).calls.Store(7)

	// Wait for the MRM (peer0) to see the skewed loads.
	deadline := time.Now().Add(5 * time.Second)
	for {
		view := c.Peers[0].Agent.GroupView()
		loaded := 0
		for _, m := range view {
			if m.Report.Node == "peer1" && m.Report.LoadFraction() > 0.5 {
				loaded++
			}
		}
		if len(view) == 3 && loaded == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("MRM view never reflected the skew: %d members", len(view))
		}
		time.Sleep(20 * time.Millisecond)
	}

	nb := &deploy.NetBalancer{ORB: c.Peers[0].Node.ORB(), Threshold: 0.2}
	mig, err := nb.Step(context.Background(), c.Peers[0].Agent.GroupView())
	if err != nil {
		t.Fatal(err)
	}
	if mig.From != "peer1" || mig.To == "peer1" {
		t.Fatalf("migration = %+v", mig)
	}
	// The component was auto-installed on the target and the instance
	// really runs there with its state intact.
	target := c.Peers[2].Node
	if mig.To == "peer0" {
		target = c.Peers[0].Node
	}
	if _, ok := target.Repo().Get(comp.ID()); !ok {
		t.Fatal("component not installed on the migration target")
	}
	tct, err := target.ContainerFor(comp.ID())
	if err != nil {
		t.Fatal(err)
	}
	moved, ok := tct.Instance(mig.Instance)
	if !ok {
		t.Fatalf("instance %s not on %s", mig.Instance, mig.To)
	}
	if mig.Instance == "w1" {
		if got := moved.Impl().(*pingInstance).calls.Load(); got != 7 {
			t.Fatalf("state after CORBA migration = %d", got)
		}
	}
	// And it serves requests on the new node.
	ref, err := moved.PortIOR("svc")
	if err != nil {
		t.Fatal(err)
	}
	where := callPing(t, c.Peers[0], c.Peers[0].Node.ORB().NewRef(ref))
	if where != mig.To {
		t.Fatalf("migrated instance answers from %s, want %s", where, mig.To)
	}
	// The source shed one instance.
	if got := len(ct1.Instances()); got != 2 {
		t.Fatalf("source still has %d instances", got)
	}
}

func TestNetBalancerBalancedViewDoesNothing(t *testing.T) {
	c := newCluster(t, 2, nil)
	waitView := func() {
		deadline := time.Now().Add(5 * time.Second)
		for len(c.Peers[0].Agent.GroupView()) < 2 {
			if time.Now().After(deadline) {
				t.Fatal("view never populated")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitView()
	nb := &deploy.NetBalancer{ORB: c.Peers[0].Node.ORB()}
	if _, err := nb.Step(context.Background(), c.Peers[0].Agent.GroupView()); !errors.Is(err, deploy.ErrNothingToMove) {
		t.Fatalf("err = %v", err)
	}
	if _, err := nb.Step(context.Background(), nil); !errors.Is(err, deploy.ErrNothingToMove) {
		t.Fatalf("empty view err = %v", err)
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
