package assembly_test

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"corbalc"
	"corbalc/internal/assembly"
	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/events"
	"corbalc/internal/orb"
	"corbalc/internal/simnet"
)

const assemblyXML = `<?xml version="1.0"?>
<assembly name="whiteboard-app">
  <instance name="prod" component="producer" version="1.*"/>
  <instance name="cons" component="consumer"/>
  <connect from="prod" fromport="sink" to="cons" toport="query"/>
  <eventlink from="prod" fromport="out" to="cons" toport="in"/>
</assembly>`

func TestParseValidateEncode(t *testing.T) {
	a, err := assembly.Parse(strings.NewReader(assemblyXML))
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "whiteboard-app" || len(a.Instances) != 2 ||
		len(a.Connections) != 1 || len(a.EventLinks) != 1 {
		t.Fatalf("assembly = %+v", a)
	}
	if d := a.Instances[0]; d.Name != "prod" || d.Component != "producer" || d.Version != "1.*" {
		t.Fatalf("prod decl = %+v", d)
	}
	out, err := xml.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := assembly.Parse(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
	if a2.Connections[0] != a.Connections[0] || a2.EventLinks[0] != a.EventLinks[0] {
		t.Fatal("round trip mismatch")
	}
}

func TestValidationErrors(t *testing.T) {
	base := func() *assembly.Assembly {
		a, err := assembly.Parse(strings.NewReader(assemblyXML))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cases := map[string]func(*assembly.Assembly){
		"no name":           func(a *assembly.Assembly) { a.Name = "" },
		"name with slash":   func(a *assembly.Assembly) { a.Name = "a/b" },
		"no instances":      func(a *assembly.Assembly) { a.Instances = nil },
		"dup instance":      func(a *assembly.Assembly) { a.Instances[1].Name = a.Instances[0].Name },
		"inst no comp":      func(a *assembly.Assembly) { a.Instances[0].Component = "" },
		"bad version":       func(a *assembly.Assembly) { a.Instances[0].Version = "nope" },
		"conn unknown from": func(a *assembly.Assembly) { a.Connections[0].From = "ghost" },
		"conn unknown to":   func(a *assembly.Assembly) { a.Connections[0].To = "ghost" },
		"conn no port":      func(a *assembly.Assembly) { a.Connections[0].FromPort = "" },
		"event unknown":     func(a *assembly.Assembly) { a.EventLinks[0].To = "ghost" },
	}
	for name, mutate := range cases {
		a := base()
		mutate(a)
		if err := a.Validate(); !errors.Is(err, assembly.ErrInvalid) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	if _, err := assembly.Parse(strings.NewReader("<junk")); err == nil {
		t.Error("garbage accepted")
	}
}

// producerInstance emits an event per "send" call and relays "count"
// calls through its sink uses port.
type producerInstance struct {
	component.Base
}

func (pi *producerInstance) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if port != "ctl" {
		return component.ErrNoSuchPort
	}
	switch op {
	case "send":
		return pi.Ctx().Emit("out", []byte("stroke"))
	case "relay_count":
		ref, err := pi.Ctx().UsePort("sink")
		if err != nil {
			return err
		}
		var n int32
		if err := ref.InvokeContext(context.Background(), "count", nil, func(d *cdr.Decoder) error {
			var e error
			n, e = d.ReadLong()
			return e
		}); err != nil {
			return err
		}
		reply.WriteLong(n)
		return nil
	}
	return orb.BadOperation()
}

// consumerInstance counts events on its "in" consumes port and answers
// "count" on its "query" provides port.
type consumerInstance struct {
	component.Base
	n atomic.Int64
}

func (ci *consumerInstance) ConsumeEvent(port string, ev events.Event) {
	if port == "in" {
		ci.n.Add(1)
	}
}

func (ci *consumerInstance) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if port != "query" || op != "count" {
		return orb.BadOperation()
	}
	reply.WriteLong(int32(ci.n.Load()))
	return nil
}

func appCluster(t *testing.T) *corbalc.Cluster {
	t.Helper()
	reg := component.NewRegistry()
	reg.Register("app/producer.New", func() component.Instance { return &producerInstance{} })
	reg.Register("app/consumer.New", func() component.Instance { return &consumerInstance{} })
	c, err := corbalc.NewCluster(3, "host%d", simnet.Link{}, corbalc.Options{
		Impls:          reg,
		UpdateInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	prodSpec := &component.Spec{Name: "producer", Version: "1.2.0", Entrypoint: "app/producer.New"}
	prodSpec.Provide("ctl", "IDL:app/Control:1.0")
	prodSpec.Use("sink", "IDL:app/Query:1.0", true)
	prodSpec.Emit("out", "IDL:app/Stroke:1.0")

	consSpec := &component.Spec{Name: "consumer", Version: "1.0.0", Entrypoint: "app/consumer.New"}
	consSpec.Provide("query", "IDL:app/Query:1.0")
	consSpec.Consume("in", "IDL:app/Stroke:1.0", true)

	// producer only on host1, consumer only on host2: deployment must
	// spread the app across nodes.
	prod, err := prodSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cons, err := consSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Peers[1].Node.InstallComponent(prod); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Peers[2].Node.InstallComponent(cons); err != nil {
		t.Fatal(err)
	}

	// Wait until host0 can see both components.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		p, _ := c.Peers[0].Agent.Query(context.Background(), "component:producer", "*")
		q, _ := c.Peers[0].Agent.Query(context.Background(), "component:consumer", "*")
		if len(p) > 0 && len(q) > 0 {
			return c
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("components never became visible")
	return nil
}

func TestDeployAcrossNodes(t *testing.T) {
	c := appCluster(t)
	a, err := assembly.Parse(strings.NewReader(assemblyXML))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := assembly.Deploy(context.Background(), c.Peers[0].Engine, c.Peers[0].Node.ORB(), a)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Teardown()

	if dep.Placements["prod"].Node != "host1" || dep.Placements["cons"].Node != "host2" {
		t.Fatalf("placements: prod=%s cons=%s",
			dep.Placements["prod"].Node, dep.Placements["cons"].Node)
	}
	if id, err := component.ParseID(dep.Placements["prod"].ComponentID); err != nil || id.Name != "producer" {
		t.Fatalf("component of prod = %v, %v", id, err)
	}

	// Drive the app from host0: send strokes through the producer's ctl
	// port; they must reach the consumer on the other node through the
	// bridged event channel.
	ctl, err := c.Peers[0].Engine.ProvidePort(context.Background(), dep.Placements["prod"], "ctl")
	if err != nil {
		t.Fatal(err)
	}
	ctlRef := c.Peers[0].Node.ORB().NewRef(ctl)
	for i := 0; i < 5; i++ {
		if err := ctlRef.InvokeContext(context.Background(), "send", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The explicit connection lets the producer relay count queries.
	deadline := time.Now().Add(5 * time.Second)
	var n int32
	for time.Now().Before(deadline) {
		err = ctlRef.InvokeContext(context.Background(), "relay_count", nil, func(d *cdr.Decoder) error {
			var e error
			n, e = d.ReadLong()
			return e
		})
		if err == nil && n == 5 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil || n != 5 {
		t.Fatalf("relay_count = %d, %v", n, err)
	}
}

func TestTeardownDestroysInstances(t *testing.T) {
	c := appCluster(t)
	a, err := assembly.Parse(strings.NewReader(assemblyXML))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := assembly.Deploy(context.Background(), c.Peers[0].Engine, c.Peers[0].Node.ORB(), a)
	if err != nil {
		t.Fatal(err)
	}
	prodID, _ := component.ParseID(dep.Placements["prod"].ComponentID)
	ct, err := c.Peers[1].Node.ContainerFor(prodID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Instances()) != 1 {
		t.Fatalf("instances before teardown = %d", len(ct.Instances()))
	}
	dep.Teardown()
	if len(ct.Instances()) != 0 {
		t.Fatalf("instances after teardown = %d", len(ct.Instances()))
	}
}

func TestDeployFailsForMissingComponent(t *testing.T) {
	c := appCluster(t)
	a := &assembly.Assembly{
		Name: "broken",
		Instances: []assembly.InstanceDecl{
			{Name: "x", Component: "nonexistent"},
		},
	}
	if _, err := assembly.Deploy(context.Background(), c.Peers[0].Engine, c.Peers[0].Node.ORB(), a); err == nil {
		t.Fatal("deploy of missing component succeeded")
	}
}

func TestDeployVersionRequirement(t *testing.T) {
	c := appCluster(t)
	a := &assembly.Assembly{
		Name: "verapp",
		Instances: []assembly.InstanceDecl{
			{Name: "p", Component: "producer", Version: ">=2.0"},
		},
	}
	if _, err := assembly.Deploy(context.Background(), c.Peers[0].Engine, c.Peers[0].Node.ORB(), a); err == nil {
		t.Fatal("version >=2.0 matched a 1.2.0 component")
	}
	a.Instances[0].Version = "1.*"
	dep, err := assembly.Deploy(context.Background(), c.Peers[0].Engine, c.Peers[0].Node.ORB(), a)
	if err != nil {
		t.Fatal(err)
	}
	dep.Teardown()
}
