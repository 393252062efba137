// corbalc-gateway serves a runtime-configured HTTP/1.1+JSON front end
// for CORBA-LC objects: it parses IDL files into an interface
// repository, binds stringified object references to routes, and maps
//
//	POST /obj/{object}/{operation}
//
// onto DII invocations over IIOP — no generated stubs, no recompiles
// when interfaces change. See DESIGN.md §15.
//
// Usage:
//
//	corbalc-gateway -listen :8080 -idl calc.idl \
//	    -obj calc=demo::Calc=IOR:0001... \
//	    -obj store=demo::Store=@store.ior
//
// Each -obj is name=interface=ref, where interface is a scoped name
// ("demo::Calc") or repository ID, and ref is a stringified IOR
// (IOR:… or corbaloc:…) or @file holding one.
//
// Inspect a running gateway with:
//
//	corbalc-admin gateway localhost:8080
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"corbalc/internal/gateway"
	"corbalc/internal/idl"
	"corbalc/internal/iiop"
	"corbalc/internal/orb"
)

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	var idlFiles, objs stringList
	listen := flag.String("listen", ":8080", "HTTP listen address")
	flag.Var(&idlFiles, "idl", "IDL file to load into the interface repository (repeatable)")
	flag.Var(&objs, "obj", "route as name=interface=ref; ref is IOR:…, corbaloc:… or @file (repeatable)")
	maxInFlight := flag.Int("max-inflight", 0, "bound on concurrently-handled requests; overflow gets 503 (0 = default, negative = unbounded)")
	cacheTTL := flag.Duration("cache-ttl", 0, "idempotent-response cache TTL (0 = default, negative = disable)")
	maxBody := flag.Int("max-body", 0, "request-body byte limit (0 = default)")
	callTimeout := flag.Duration("call-timeout", 0, "backend deadline when the client sends no X-Timeout-Ms (0 = default)")
	poolSize := flag.Int("pool-size", 0, "IIOP channel-pool stripes per backend (0 = default min(8, GOMAXPROCS))")
	flag.Parse()

	if len(idlFiles) == 0 || len(objs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: corbalc-gateway -listen :8080 -idl file.idl -obj name=interface=ref [...]")
		return 2
	}

	repo := idl.NewRepository()
	for _, f := range idlFiles {
		if err := repo.ParseFile(f); err != nil {
			fmt.Fprintf(os.Stderr, "corbalc-gateway: %s: %v\n", f, err)
			return 1
		}
	}

	o := orb.NewORB()
	o.RegisterTransport(&iiop.Transport{PoolSize: *poolSize})
	defer o.Shutdown()

	gw, err := gateway.New(gateway.Options{
		ORB:         o,
		Repo:        repo,
		MaxInFlight: *maxInFlight,
		CacheTTL:    *cacheTTL,
		MaxBody:     *maxBody,
		CallTimeout: *callTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "corbalc-gateway:", err)
		return 1
	}

	for _, spec := range objs {
		parts := strings.SplitN(spec, "=", 3)
		if len(parts) != 3 {
			fmt.Fprintf(os.Stderr, "corbalc-gateway: bad -obj %q (want name=interface=ref)\n", spec)
			return 2
		}
		name, iface, ref := parts[0], parts[1], parts[2]
		if strings.HasPrefix(ref, "@") {
			b, err := os.ReadFile(ref[1:])
			if err != nil {
				fmt.Fprintf(os.Stderr, "corbalc-gateway: %v\n", err)
				return 1
			}
			ref = strings.TrimSpace(string(b))
		}
		if err := gw.RegisterIOR(name, ref, iface); err != nil {
			fmt.Fprintln(os.Stderr, "corbalc-gateway:", err)
			return 1
		}
		fmt.Printf("route /obj/%s -> %s\n", name, iface)
	}

	srv := &http.Server{
		Addr:              *listen,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("listening on %s\n", *listen)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "corbalc-gateway:", err)
		return 1
	}
	return 0
}
