// corbalc-admin is the management client: it talks to a live CORBA-LC
// network over IIOP through any member's contact IOR, without joining.
//
// Usage:
//
//	corbalc-admin -contact IOR:...|@contact.ior <command> [args]
//
// Commands:
//
//	dir                         show the membership directory
//	report <node>               one node's resource report
//	components <node>           list a node's installed components
//	query <port-repoid> [ver]   network-wide component query via the root MRM
//	install <node> <pkg.zip>    install a package on a node
//	instantiate <node> <component-id> <instance>
//	ports <node> <component-id> <instance>   show an instance's port states
//	events <node>               event-fabric counters (published/delivered/dropped)
//	cohesion <node>             gossip-plane counters (deltas/anti-entropy/batches)
//	deploy <assembly.xml> [listen-addr]
//	    join as an ephemeral peer and deploy an application assembly at
//	    run time (instances land on the currently best nodes)
//	call <node> <component-id> <instance> <port> <op> [args...]
//	    invoke any operation through the Dynamic Invocation Interface:
//	    the component's own IDL (shipped in its package) provides the
//	    signature; scalar arguments are parsed per parameter type
//	gateway <addr>              per-route counters of a corbalc-gateway
//	    (no -contact needed; addr is the gateway's HTTP address)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"strconv"

	"corbalc"
	"corbalc/internal/assembly"
	"corbalc/internal/cdr"
	"corbalc/internal/cohesion"
	"corbalc/internal/component"
	"corbalc/internal/dii"
	"corbalc/internal/gateway"
	"corbalc/internal/idl"
	"corbalc/internal/iiop"
	"corbalc/internal/ior"
	"corbalc/internal/node"
	"corbalc/internal/orb"
)

func main() {
	contact := flag.String("contact", "", "contact IOR (IOR:... or @file)")
	flag.Parse()
	// The gateway subcommand inspects an HTTP web gateway
	// (corbalc-gateway), not a CORBA-LC network: no contact IOR needed.
	if flag.NArg() > 0 && flag.Arg(0) == "gateway" {
		gatewayCmd(flag.Args()[1:])
		return
	}
	if *contact == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: corbalc-admin -contact IOR:...|@file <dir|report|components|query|install|instantiate|ports> ...")
		os.Exit(2)
	}

	o := orb.NewORB()
	o.RegisterTransport(&iiop.Transport{CallTimeout: 10 * time.Second})
	defer o.Shutdown()

	ref, err := o.ResolveStr(resolveContact(*contact))
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	dir := fetchDirectory(ctx, ref)

	args := flag.Args()
	switch args[0] {
	case "dir":
		fmt.Printf("epoch %d, %d node(s)\n", dir.Epoch, dir.Len())
		for g, members := range dir.Groups {
			if len(members) == 0 {
				continue
			}
			fmt.Printf("group %d:", g)
			for _, m := range members {
				fmt.Printf(" %s(%s)", m, dir.Entry(m).Capability)
			}
			fmt.Println()
		}
	case "report":
		nd := nodeArg(dir, args, 1)
		r := fetchReport(ctx, o, nd)
		fmt.Printf("node %s (%s): os=%s/%s cpu=%.2f/%.2f mem=%d/%dMB bw=%.0fMbps instances=%d digest=%d\n",
			r.Node, r.Capability, r.OS, r.Arch, r.CPUUsed, r.CPUCores,
			r.MemoryUsedMB, r.MemoryMB, r.BandwidthMbps, r.Instances, r.Digest)
	case "components":
		nd := nodeArg(dir, args, 1)
		var names []string
		must(o.NewRef(nd.Ref(node.ComponentRegistry)).InvokeContext(ctx, "list_components", nil, func(d *cdr.Decoder) error {
			var e error
			names, e = d.ReadStringSeq()
			return e
		}))
		for _, n := range names {
			fmt.Println(n)
		}
		if len(names) == 0 {
			fmt.Println("(none)")
		}
	case "query":
		if len(args) < 2 {
			fatal(fmt.Errorf("query needs a port repository ID"))
		}
		verReq := "*"
		if len(args) > 2 {
			verReq = args[2]
		}
		offers := rootQuery(ctx, o, dir, args[1], verReq)
		for _, of := range offers {
			fmt.Printf("%-24s node=%-12s port=%-10s load=%.2f movable=%v\n",
				of.ComponentID, of.Node, of.Port, of.NodeLoad, of.Movable)
		}
		if len(offers) == 0 {
			fmt.Println("(no offers)")
		}
	case "install":
		nd := nodeArg(dir, args, 1)
		if len(args) < 3 {
			fatal(fmt.Errorf("install needs <node> <pkg.zip>"))
		}
		data, err := os.ReadFile(args[2])
		if err != nil {
			fatal(err)
		}
		var id string
		must(o.NewRef(nd.Ref(node.ComponentAcceptor)).InvokeContext(ctx, "install",
			func(e *cdr.Encoder) { e.WriteOctetSeq(data) },
			func(d *cdr.Decoder) error { var e error; id, e = d.ReadString(); return e }))
		fmt.Println("installed", id, "on", nd.Name)
	case "instantiate":
		nd := nodeArg(dir, args, 1)
		if len(args) < 4 {
			fatal(fmt.Errorf("instantiate needs <node> <component-id> <instance>"))
		}
		var equiv *ior.IOR
		must(o.NewRef(nd.Ref(node.ComponentAcceptor)).InvokeContext(ctx, "instantiate",
			func(e *cdr.Encoder) { e.WriteString(args[2]); e.WriteString(args[3]) },
			func(d *cdr.Decoder) error { var e error; equiv, e = ior.Unmarshal(d); return e }))
		fmt.Printf("instance %s of %s running on %s\n", args[3], args[2], nd.Name)
		fmt.Println("equivalent IOR:", equiv.String())
	case "ports":
		nd := nodeArg(dir, args, 1)
		if len(args) < 4 {
			fatal(fmt.Errorf("ports needs <node> <component-id> <instance>"))
		}
		must(o.NewRef(nd.Ref(node.ComponentRegistry)).InvokeContext(ctx, "instance_ports",
			func(e *cdr.Encoder) { e.WriteString(args[2]); e.WriteString(args[3]) },
			func(d *cdr.Decoder) error {
				n, err := d.ReadULong()
				if err != nil {
					return err
				}
				for i := uint32(0); i < n; i++ {
					name, err := d.ReadString()
					if err != nil {
						return err
					}
					kind, err := d.ReadString()
					if err != nil {
						return err
					}
					repoID, err := d.ReadString()
					if err != nil {
						return err
					}
					connected, err := d.ReadBool()
					if err != nil {
						return err
					}
					fmt.Printf("%-8s %-16s %-32s connected=%v\n", kind, name, repoID, connected)
				}
				return nil
			}))
	case "map":
		// The visual-builder view (§2.4.2: the reflection data is used
		// "by visual builder tools to offer to the user the palette of
		// available components, instances and connections among them"):
		// every node, its components, instances and port states.
		for _, name := range dir.Names() {
			nd := dir.Entry(name)
			r := fetchReport(ctx, o, nd)
			fmt.Printf("%s (%s) load=%.2f\n", name, nd.Capability, r.LoadFraction())
			var comps []string
			_ = o.NewRef(nd.Ref(node.ComponentRegistry)).InvokeContext(ctx, "list_components", nil, func(d *cdr.Decoder) error {
				var e error
				comps, e = d.ReadStringSeq()
				return e
			})
			for _, comp := range comps {
				fmt.Printf("  component %s\n", comp)
			}
			type instRow struct{ comp, inst string }
			var insts []instRow
			_ = o.NewRef(nd.Ref(node.ComponentRegistry)).InvokeContext(ctx, "list_instances", nil, func(d *cdr.Decoder) error {
				n, err := d.ReadULong()
				if err != nil {
					return err
				}
				for i := uint32(0); i < n; i++ {
					comp, err := d.ReadString()
					if err != nil {
						return err
					}
					inst, err := d.ReadString()
					if err != nil {
						return err
					}
					insts = append(insts, instRow{comp, inst})
				}
				return nil
			})
			for _, ir := range insts {
				fmt.Printf("  instance  %s of %s\n", ir.inst, ir.comp)
				_ = o.NewRef(nd.Ref(node.ComponentRegistry)).InvokeContext(ctx, "instance_ports",
					func(e *cdr.Encoder) { e.WriteString(ir.comp); e.WriteString(ir.inst) },
					func(d *cdr.Decoder) error {
						n, err := d.ReadULong()
						if err != nil {
							return err
						}
						for i := uint32(0); i < n; i++ {
							pname, err := d.ReadString()
							if err != nil {
								return err
							}
							kind, err := d.ReadString()
							if err != nil {
								return err
							}
							repoID, err := d.ReadString()
							if err != nil {
								return err
							}
							connected, err := d.ReadBool()
							if err != nil {
								return err
							}
							mark := " "
							if connected {
								mark = "*"
							}
							fmt.Printf("    %s %-8s %-14s %s\n", mark, kind, pname, repoID)
						}
						return nil
					})
			}
		}
	case "events":
		// events <node>: the node's event-fabric counters — one line per
		// channel plus a dropped total, so overflow policies are
		// observable from outside (DESIGN.md §12).
		nd := nodeArg(dir, args, 1)
		var total uint64
		var rows int
		must(o.NewRef(nd.Ref(node.EventService)).InvokeContext(ctx, "events_stats", nil, func(d *cdr.Decoder) error {
			n, err := d.ReadULong()
			if err != nil {
				return err
			}
			for i := uint32(0); i < n; i++ {
				typeID, err := d.ReadString()
				if err != nil {
					return err
				}
				pub, err := d.ReadULongLong()
				if err != nil {
					return err
				}
				del, err := d.ReadULongLong()
				if err != nil {
					return err
				}
				drop, err := d.ReadULongLong()
				if err != nil {
					return err
				}
				subs, err := d.ReadULong()
				if err != nil {
					return err
				}
				total += drop
				rows++
				fmt.Printf("%-40s published=%-8d delivered=%-8d dropped=%-6d subscribers=%d\n",
					typeID, pub, del, drop, subs)
			}
			return nil
		}))
		if rows == 0 {
			fmt.Println("(no event channels)")
		} else {
			fmt.Printf("total dropped: %d\n", total)
		}
	case "cohesion":
		// cohesion <node>: the node's gossip-plane counters (DESIGN.md
		// §13) — how many deltas it has disseminated, received and
		// applied, the anti-entropy pull traffic, and the coalesced
		// gossip frames/bytes it has shipped.
		nd := nodeArg(dir, args, 1)
		var st *cohesion.Stats
		must(o.NewRef(nd.Ref(node.NetworkCohesion)).InvokeContext(ctx, "cohesion_stats", nil,
			func(d *cdr.Decoder) error { var e error; st, e = cohesion.UnmarshalStats(d); return e }))
		fmt.Printf("directory: epoch=%d nodes=%d groups=%d\n", st.Epoch, st.Nodes, st.Groups)
		fmt.Printf("held:      view=%d queues=%d\n", st.Viewed, st.Queues)
		fmt.Printf("deltas:    sent=%d recv=%d applied=%d\n",
			st.DeltasSent, st.DeltasRecv, st.DeltasApplied)
		fmt.Printf("anti-entropy: pulls=%d served=%d\n",
			st.AntiEntropyPulls, st.PullsServed)
		fmt.Printf("gossip:    batches=%d bytes=%d\n", st.GossipBatches, st.GossipBytes)
		fmt.Printf("updates:   sent=%d recv=%d bytes=%d\n",
			st.UpdatesSent, st.UpdatesRecv, st.UpdateBytes)
		fmt.Printf("queries:   sent=%d served=%d floods=%d\n",
			st.QueriesSent, st.QueriesServed, st.Floods)
	case "deploy":
		// deploy <assembly.xml> [listen-addr]: join the network as an
		// ephemeral peer, match the assembly against it at run time,
		// print the placements and leave (the application keeps
		// running).
		if len(args) < 2 {
			fatal(fmt.Errorf("deploy needs an assembly.xml path"))
		}
		listen := "127.0.0.1:0"
		if len(args) > 2 {
			listen = args[2]
		}
		deployAssembly(*contact, args[1], listen)
	case "call":
		if len(args) < 6 {
			fatal(fmt.Errorf("call needs <node> <component-id> <instance> <port> <op> [args...]"))
		}
		nd := nodeArg(dir, args, 1)
		callOp(ctx, o, nd, args[2], args[3], args[4], args[5], args[6:])
	default:
		fatal(fmt.Errorf("unknown command %q", args[0]))
	}
}

// deployAssembly runs the run-time matching of §2.4.4 from the command
// line: an ephemeral peer joins the network (so it can query the
// Distributed Registry and drive acceptors), deploys the assembly, and
// leaves. The deployed instances stay up on their nodes.
func deployAssembly(contact, path, listen string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	app, err := assembly.Parse(f)
	_ = f.Close()
	if err != nil {
		fatal(err)
	}

	peer := corbalc.NewPeer(fmt.Sprintf("admin-%d", os.Getpid()), corbalc.Options{
		UpdateInterval: 250 * time.Millisecond,
	})
	defer peer.Close()
	srv, err := peer.ServeIIOP(listen)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	ref, err := peer.Node.ORB().ResolveStr(resolveContact(contact))
	if err != nil {
		fatal(err)
	}
	if err := peer.Join(ref.IOR()); err != nil {
		fatal(err)
	}
	defer peer.Leave()

	// Wait until every declared component is visible to the registry.
	deadline := time.Now().Add(15 * time.Second)
	for _, decl := range app.Instances {
		for {
			offers, err := peer.Agent.Query(context.Background(), node.ComponentKey(decl.Component), orDefaultStr(decl.Version, "*"))
			if err == nil && len(offers) > 0 {
				break
			}
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("component %s (%s) not offered anywhere", decl.Component, decl.Version))
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	dep, err := assembly.Deploy(context.Background(), peer.Engine, peer.Node.ORB(), app)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("deployed %s:\n", app.Name)
	for inst, pl := range dep.Placements {
		fmt.Printf("  %-12s -> %-12s (%s)\n", inst, pl.Node, pl.ComponentID)
	}
}

func orDefaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// callOp drives an arbitrary operation through DII: it fetches the
// component package for its IDL, binds the port reference against the
// port's interface type, parses scalar arguments per the signature and
// prints the outputs.
func callOp(ctx context.Context, o *orb.ORB, nd *cohesion.Entry, compID, instance, port, op string, rawArgs []string) {
	// The component's IDL travels inside its package.
	var pkgBytes []byte
	must(o.NewRef(nd.Ref(node.ComponentRegistry)).InvokeContext(ctx, "get_package",
		func(e *cdr.Encoder) { e.WriteString(compID) },
		func(d *cdr.Decoder) error { var e error; pkgBytes, e = d.ReadOctetSeq(); return e }))
	comp, err := component.LoadBytes(pkgBytes)
	must(err)

	var portRef *ior.IOR
	must(o.NewRef(nd.Ref(node.ComponentAcceptor)).InvokeContext(ctx, "provide",
		func(e *cdr.Encoder) {
			e.WriteString(compID)
			e.WriteString(instance)
			e.WriteString(port)
		},
		func(d *cdr.Decoder) error { var e error; portRef, e = ior.Unmarshal(d); return e }))

	obj, err := dii.BindByID(comp.IDL(), o.NewRef(portRef), portRef.TypeID)
	must(err)
	opSig, ok := obj.Iface.LookupOperation(op)
	if !ok {
		fatal(fmt.Errorf("interface %s has no operation %q", obj.Iface.ScopedName(), op))
	}
	var in []idl.Param
	for _, p := range opSig.Params {
		if p.Dir == idl.DirIn || p.Dir == idl.DirInOut {
			in = append(in, p)
		}
	}
	if len(rawArgs) != len(in) {
		fatal(fmt.Errorf("%s takes %d argument(s), got %d", op, len(in), len(rawArgs)))
	}
	callArgs := make([]any, len(in))
	for i, p := range in {
		v, err := parseScalar(p.Type, rawArgs[i])
		if err != nil {
			fatal(fmt.Errorf("argument %s: %v", p.Name, err))
		}
		callArgs[i] = v
	}
	res, err := obj.CallContext(ctx, op, callArgs...)
	must(err)
	if res.Return != nil {
		fmt.Printf("return: %v\n", res.Return)
	}
	for name, v := range res.Out {
		fmt.Printf("out %s: %v\n", name, v)
	}
	if res.Return == nil && len(res.Out) == 0 {
		fmt.Println("ok")
	}
}

// parseScalar converts a command-line token per an IDL parameter type.
func parseScalar(t *idl.Type, s string) (any, error) {
	switch t.Resolve().Kind {
	case idl.KindBoolean:
		return strconv.ParseBool(s)
	case idl.KindOctet, idl.KindChar:
		if len(s) == 1 {
			return s[0], nil
		}
		v, err := strconv.ParseUint(s, 0, 8)
		return byte(v), err
	case idl.KindShort, idl.KindLong, idl.KindLongLong:
		v, err := strconv.ParseInt(s, 0, 64)
		return v, err
	case idl.KindUShort, idl.KindULong, idl.KindULongLong:
		v, err := strconv.ParseUint(s, 0, 64)
		return v, err
	case idl.KindFloat:
		v, err := strconv.ParseFloat(s, 32)
		return float32(v), err
	case idl.KindDouble:
		return strconv.ParseFloat(s, 64)
	case idl.KindString:
		return s, nil
	}
	return nil, fmt.Errorf("cannot parse %q as %s from the command line", s, t)
}

func fetchDirectory(ctx context.Context, contact *orb.ObjectRef) *cohesion.Directory {
	var dir *cohesion.Directory
	must(contact.InvokeContext(ctx, "get_directory", nil, func(d *cdr.Decoder) error {
		var e error
		dir, e = cohesion.UnmarshalDirectory(d)
		return e
	}))
	return dir
}

func fetchReport(ctx context.Context, o *orb.ORB, nd *cohesion.Entry) *node.Report {
	var r *node.Report
	must(o.NewRef(nd.Ref(node.ResourceManager)).InvokeContext(ctx, "report", nil, func(d *cdr.Decoder) error {
		var e error
		r, e = node.UnmarshalReport(d)
		return e
	}))
	return r
}

// rootQuery asks the root MRM (first root candidate that answers).
func rootQuery(ctx context.Context, o *orb.ORB, dir *cohesion.Directory, portID, verReq string) []*node.Offer {
	for _, cand := range dir.RootCandidates(4) {
		nd := dir.Entry(cand)
		if nd == nil {
			continue
		}
		var offers []*node.Offer
		err := o.NewRef(nd.Ref(node.NetworkCohesion)).InvokeContext(ctx, "root_query",
			func(e *cdr.Encoder) {
				e.WriteString(portID)
				e.WriteString(verReq)
				e.WriteLong(-1) // no group to skip
			},
			func(d *cdr.Decoder) error {
				var e error
				offers, e = node.UnmarshalOffers(d)
				return e
			})
		if err == nil {
			return offers
		}
	}
	fatal(fmt.Errorf("no root MRM answered the query"))
	return nil
}

func nodeArg(dir *cohesion.Directory, args []string, i int) *cohesion.Entry {
	if len(args) <= i {
		fatal(fmt.Errorf("command needs a node name; known: %v", dir.Names()))
	}
	nd := dir.Entry(args[i])
	if nd == nil {
		fatal(fmt.Errorf("unknown node %q; known: %v", args[i], dir.Names()))
	}
	return nd
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

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corbalc-admin:", err)
	os.Exit(1)
}

// gatewayCmd renders a corbalc-gateway's /metrics as a per-route,
// per-operation table.
func gatewayCmd(args []string) {
	if len(args) != 1 {
		fatal(fmt.Errorf("gateway needs the gateway's HTTP address"))
	}
	addr := args[0]
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(addr + "/metrics")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("%s/metrics: HTTP %d", addr, resp.StatusCode))
	}
	var m gateway.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		fatal(err)
	}
	limit := "unbounded"
	if m.MaxInFlight > 0 {
		limit = strconv.Itoa(m.MaxInFlight)
	}
	fmt.Printf("in-flight %d/%s, rejected %d, translation buffers %d\n",
		m.InFlight, limit, m.Rejected, m.TransBufs)
	routes := make([]string, 0, len(m.Routes))
	for name := range m.Routes {
		routes = append(routes, name)
	}
	sort.Strings(routes)
	for _, name := range routes {
		rt := m.Routes[name]
		fmt.Printf("route /obj/%s (%s) generation=%d\n", name, rt.Interface, rt.Generation)
		ops := make([]string, 0, len(rt.Ops))
		for op := range rt.Ops {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		if len(ops) == 0 {
			fmt.Println("  (no requests yet)")
			continue
		}
		fmt.Printf("  %-24s %10s %8s %8s %8s %10s\n",
			"operation", "requests", "errors", "hits", "misses", "avg-us")
		for _, op := range ops {
			s := rt.Ops[op]
			fmt.Printf("  %-24s %10d %8d %8d %8d %10d\n",
				op, s.Requests, s.Errors, s.CacheHits, s.CacheMisses, s.AvgMicros)
		}
	}
}
