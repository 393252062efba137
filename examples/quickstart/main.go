// Quickstart: two CORBA-LC peers, one component, fully automatic
// deployment.
//
// The example builds a tiny "greeter" component (package + descriptors +
// implementation), installs it on peer "alpha", and then asks peer
// "beta" for something implementing the Greeter interface. Beta has
// never seen the component: the network-as-repository resolves the
// dependency, decides remote use vs. local fetch, and hands back a live
// CORBA object reference.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"corbalc"
	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/orb"
	"corbalc/internal/simnet"
	"corbalc/internal/xmldesc"
)

// greeter is the component implementation: it provides one port
// ("greet", interface IDL:quickstart/Greeter:1.0) with one operation.
type greeter struct{ component.Base }

func (g *greeter) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if port == "greet" && op == "hello" {
		name, err := args.ReadString()
		if err != nil {
			return err
		}
		reply.WriteString(fmt.Sprintf("Hello %s! (served by node %q)", name, g.Ctx().NodeName()))
		return nil
	}
	return orb.BadOperation()
}

func main() {
	// 1. Register the Go implementation under its entry point (the
	// role a DLL plays in the paper's packaging model).
	impls := component.NewRegistry()
	impls.Register("quickstart/greeter.New", func() component.Instance { return &greeter{} })

	// 2. Describe, package and load the component. Spec assembles the
	// softpkg + componenttype XML descriptors and the ZIP package.
	spec := &component.Spec{
		Name:       "greeter",
		Version:    "1.0.0",
		Title:      "Quickstart greeter",
		Entrypoint: "quickstart/greeter.New",
		IDL: map[string]string{
			"idl/greeter.idl": `module quickstart {
  interface Greeter { string hello(in string name); };
};`,
		},
	}
	spec.Provide("greet", "IDL:quickstart/Greeter:1.0")
	comp, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("packaged %s: %d bytes, descriptors + IDL + binary\n",
		comp.ID(), comp.Package().Size())

	// 3. Start two peers on a virtual network and join them into one
	// logical CORBA-LC network.
	opts := corbalc.Options{Impls: impls, UpdateInterval: 25 * time.Millisecond}
	alpha := corbalc.NewPeer("alpha", opts)
	beta := corbalc.NewPeer("beta", opts)
	defer alpha.Close()
	defer beta.Close()

	net := simnet.New(simnet.Link{Latency: time.Millisecond})
	must(net.Attach("alpha", alpha.Node.ORB()))
	must(net.Attach("beta", beta.Node.ORB()))
	must(alpha.Bootstrap())
	must(beta.Join(alpha.Contact()))
	fmt.Println("alpha bootstrapped, beta joined")

	// 4. Install the component on alpha only — at run time, no restart.
	if _, err := alpha.Node.InstallComponent(comp); err != nil {
		log.Fatal(err)
	}
	fmt.Println("greeter-1.0.0 installed on alpha")

	// 5. Resolve the Greeter interface from beta. Beta's deployment
	// engine queries the distributed registry, finds alpha's offer and
	// binds to a (shared) instance there.
	var ref *orb.ObjectRef
	for deadline := time.Now().Add(5 * time.Second); ; {
		ior, err := beta.Engine.Resolve(context.Background(), xmldesc.Port{
			Kind: xmldesc.PortUses, Name: "g", RepoID: "IDL:quickstart/Greeter:1.0",
		})
		if err == nil {
			ref = beta.Node.ORB().NewRef(ior)
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("resolve: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// 6. Invoke it like any CORBA object.
	var out string
	err = ref.InvokeContext(context.Background(), "hello",
		func(e *cdr.Encoder) { e.WriteString("world") },
		func(d *cdr.Decoder) error {
			var e error
			out, e = d.ReadString()
			return e
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("beta called greeter ->", out)

	msgs, bytes := net.Totals()
	fmt.Printf("virtual network carried %d GIOP messages, %d bytes\n", msgs, bytes)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
