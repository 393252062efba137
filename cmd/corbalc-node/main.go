// corbalc-node runs one CORBA-LC node as a daemon speaking real
// IIOP/TCP: it bootstraps a new logical network or joins an existing one
// and then serves the four node interfaces (Fig. 1) plus the cohesion
// protocol until interrupted.
//
// Usage:
//
//	corbalc-node -listen 0.0.0.0:2809 [-name host1] [-profile workstation]
//	             [-join IOR:...|@contact.ior] [-contact-file contact.ior]
//	             [pkg.zip ...]
//
// Trailing arguments are component packages installed at startup.
//
// The process registers a demo implementation entry point
// ("corbalc/echo.New"), so packages produced with that entry point can
// be installed and instantiated for smoke tests. Real deployments link
// their component implementations into the binary and register them in
// component.DefaultRegistry before starting the node.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"corbalc"
	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/node"
	"corbalc/internal/orb"
)

// echoInstance is the built-in demo implementation: any provided port
// answers "echo" with its argument and "where" with the node name.
type echoInstance struct{ component.Base }

func (e *echoInstance) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "echo":
		s, err := args.ReadString()
		if err != nil {
			return err
		}
		reply.WriteString(s)
		return nil
	case "where":
		reply.WriteString(e.Ctx().NodeName())
		return nil
	}
	return orb.BadOperation()
}

func main() {
	name := flag.String("name", hostnameDefault(), "node name")
	listen := flag.String("listen", "127.0.0.1:0", "IIOP listen address")
	profile := flag.String("profile", "workstation", "hardware profile: server|workstation|pda")
	join := flag.String("join", "", "contact to join: IOR:... or @file containing one")
	contactFile := flag.String("contact-file", "", "write this node's contact IOR to a file")
	interval := flag.Duration("interval", 500*time.Millisecond, "soft-consistency update interval")
	flag.Parse()

	var prof node.Profile
	switch *profile {
	case "server":
		prof = node.ServerProfile()
	case "workstation":
		prof = node.WorkstationProfile()
	case "pda":
		prof = node.PDAProfile()
	default:
		fmt.Fprintln(os.Stderr, "unknown profile", *profile)
		os.Exit(2)
	}

	component.DefaultRegistry.Register("corbalc/echo.New",
		func() component.Instance { return &echoInstance{} })

	peer := corbalc.NewPeer(*name, corbalc.Options{
		Profile:        prof,
		UpdateInterval: *interval,
	})
	srv, err := peer.ServeIIOP(*listen)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	host, port := peer.Node.ORB().Endpoint()
	fmt.Printf("node %q (%s) listening on %s:%d\n", *name, *profile, host, port)

	contact := peer.Contact().String()
	fmt.Println("contact:", contact)
	if *contactFile != "" {
		if err := os.WriteFile(*contactFile, []byte(contact+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}

	if *join == "" {
		if err := peer.Bootstrap(); err != nil {
			fatal(err)
		}
		fmt.Println("bootstrapped a new logical network")
	} else {
		ref, err := peer.Node.ORB().ResolveStr(resolveContact(*join))
		if err != nil {
			fatal(err)
		}
		if err := peer.Join(ref.IOR()); err != nil {
			fatal(err)
		}
		fmt.Println("joined the network")
	}

	for _, pkg := range flag.Args() {
		data, err := os.ReadFile(pkg)
		if err != nil {
			fatal(err)
		}
		id, err := peer.Node.Install(data)
		if err != nil {
			fatal(fmt.Errorf("installing %s: %w", pkg, err))
		}
		fmt.Println("installed", id)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	status := time.NewTicker(10 * time.Second)
	defer status.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("\nleaving the network...")
			peer.Leave()
			peer.Close()
			return
		case <-status.C:
			dir := peer.Agent.Directory()
			r := peer.Node.Report()
			fmt.Printf("[status] nodes=%d epoch=%d components=%d instances=%d load=%.2f\n",
				dir.Len(), dir.Epoch, peer.Node.Repo().Len(), r.Instances, r.LoadFraction())
		}
	}
}

func resolveContact(s string) string {
	if strings.HasPrefix(s, "@") {
		raw, err := os.ReadFile(s[1:])
		if err != nil {
			fatal(err)
		}
		return strings.TrimSpace(string(raw))
	}
	return s
}

func hostnameDefault() string {
	h, err := os.Hostname()
	if err != nil {
		return "node"
	}
	return h
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corbalc-node:", err)
	os.Exit(1)
}
