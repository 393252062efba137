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

// statefulSpec builds a replicable component whose instance counts calls
// (reusing pingInstance, whose CaptureState serialises the counter).
func statefulSpec(replication string) *component.Spec {
	s := &component.Spec{Name: "statefulsvc", Version: "1.0.0", Entrypoint: "test/ping.New"}
	s.Provide("svc", "IDL:test/Ping:1.0")
	s.QoS = xmldesc.QoS{CPUMin: 0.05}
	s.Replication = replication
	return s
}

func TestReplicateCoordinatedCarriesState(t *testing.T) {
	c := newCluster(t, 3, nil)
	comp, err := statefulSpec("coordinated").Build()
	if err != nil {
		t.Fatal(err)
	}
	primaryNode := c.Peers[1].Node
	if _, err := primaryNode.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	mi, err := primaryNode.Instantiate(context.Background(), comp.ID(), "p1")
	if err != nil {
		t.Fatal(err)
	}
	// Put observable state into the primary: 5 calls.
	ref, err := mi.PortIOR("svc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := primaryNode.ORB().NewRef(ref).InvokeContext(context.Background(), "ping", nil, func(d *cdr.Decoder) error {
			_, e := d.ReadString()
			return e
		}); err != nil {
			t.Fatal(err)
		}
	}

	replica, err := deploy.Replicate(primaryNode, comp.ID(), "p1", c.Peers[2].Node)
	if err != nil {
		t.Fatal(err)
	}
	// The replica starts from the snapshot: its call counter is 5.
	if got := replica.Impl().(*pingInstance).calls.Load(); got != 5 {
		t.Fatalf("replica state = %d, want 5", got)
	}
	// The primary kept serving through the snapshot quiesce.
	if err := primaryNode.ORB().NewRef(ref).InvokeContext(context.Background(), "ping", nil, func(d *cdr.Decoder) error {
		_, e := d.ReadString()
		return e
	}); err != nil {
		t.Fatalf("primary after snapshot: %v", err)
	}
}

func TestReplicaMasksPrimaryFailure(t *testing.T) {
	c := newCluster(t, 3, nil)
	comp, err := statefulSpec("coordinated").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Peers[1].Node.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Peers[1].Node.Instantiate(context.Background(), comp.ID(), "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.Replicate(c.Peers[1].Node, comp.ID(), "p1", c.Peers[2].Node); err != nil {
		t.Fatal(err)
	}

	// Both nodes now offer the service.
	deadline := time.Now().Add(5 * time.Second)
	for {
		offers, err := c.Peers[0].Agent.QueryAll(context.Background(), "IDL:test/Ping:1.0", "*")
		if err == nil && len(offers) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never advertised (offers=%v, err=%v)", offers, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Crash the primary; a client resolving afresh lands on the replica.
	c.Peers[1].Agent.Stop()
	c.Net.SetDown("peer1", true)
	deadline = time.Now().Add(10 * time.Second)
	for {
		ref, err := c.Peers[0].Engine.Resolve(context.Background(), xmldesc.Port{
			Kind: xmldesc.PortUses, Name: "s", RepoID: "IDL:test/Ping:1.0",
		})
		if err == nil {
			where := callPing(t, c.Peers[0], c.Peers[0].Node.ORB().NewRef(ref))
			if where == "peer2" {
				return // failover complete
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover to replica never happened: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestReplicateStatelessAndErrors(t *testing.T) {
	c := newCluster(t, 2, nil)
	// Stateless replication: fresh instance, no state copied.
	comp, err := statefulSpec("stateless").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Peers[0].Node.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	mi, err := c.Peers[0].Node.Instantiate(context.Background(), comp.ID(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	mi.Impl().(*pingInstance).calls.Store(9)
	replica, err := deploy.Replicate(c.Peers[0].Node, comp.ID(), "s1", c.Peers[1].Node)
	if err != nil {
		t.Fatal(err)
	}
	if got := replica.Impl().(*pingInstance).calls.Load(); got != 0 {
		t.Fatalf("stateless replica inherited state: %d", got)
	}

	// A non-replicable component is refused.
	plain, err := statefulSpec("").Build()
	if err != nil {
		t.Fatal(err)
	}
	// Same name would collide in the repo; rebuild under another name.
	spec := statefulSpec("none")
	spec.Name = "fixedsvc"
	plain, err = spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Peers[0].Node.InstallComponent(plain); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Peers[0].Node.Instantiate(context.Background(), plain.ID(), "f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.Replicate(c.Peers[0].Node, plain.ID(), "f1", c.Peers[1].Node); !errors.Is(err, deploy.ErrNotReplicable) {
		t.Fatalf("err = %v", err)
	}
	// Unknown instance.
	if _, err := deploy.Replicate(c.Peers[0].Node, comp.ID(), "ghost", c.Peers[1].Node); err == nil {
		t.Fatal("replicating a ghost instance succeeded")
	}
}
