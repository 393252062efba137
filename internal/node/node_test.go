package node

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/container"
	"corbalc/internal/events"
	"corbalc/internal/iiop"
	"corbalc/internal/ior"
	"corbalc/internal/leak"
	"corbalc/internal/orb"
	"corbalc/internal/simnet"
	"corbalc/internal/xmldesc"
)

// adderInstance provides port "sum" with add/total ops.
type adderInstance struct {
	component.Base
	total atomic.Int64
}

func (ai *adderInstance) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if port != "sum" {
		return component.ErrNoSuchPort
	}
	switch op {
	case "add":
		n, err := args.ReadLong()
		if err != nil {
			return err
		}
		reply.WriteLong(int32(ai.total.Add(int64(n))))
		return nil
	case "total":
		reply.WriteLong(int32(ai.total.Load()))
		return nil
	}
	return orb.BadOperation()
}

func (ai *adderInstance) CaptureState() ([]byte, error) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.WriteLongLong(ai.total.Load())
	return e.Bytes(), nil
}

func (ai *adderInstance) RestoreState(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	v, err := cdr.NewDecoder(b, cdr.LittleEndian).ReadLongLong()
	if err != nil {
		return err
	}
	ai.total.Store(v)
	return nil
}

func adderSpec(name, ver string) *component.Spec {
	s := &component.Spec{Name: name, Version: ver, Entrypoint: "test/adder.New"}
	s.Provide("sum", "IDL:test/Adder:1.0")
	s.QoS = xmldesc.QoS{CPUMin: 0.1, MemoryMinMB: 8}
	return s
}

func testImpls() *component.Registry {
	reg := component.NewRegistry()
	reg.Register("test/adder.New", func() component.Instance { return &adderInstance{} })
	return reg
}

func newTestNode(t *testing.T, name string, prof Profile) *Node {
	t.Helper()
	n := New(Config{Name: name, Impls: testImpls(), Profile: prof})
	t.Cleanup(n.Close)
	return n
}

func buildAdder(t *testing.T, name, ver string) *component.Component {
	t.Helper()
	c, err := adderSpec(name, ver).Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInstallInstantiateInvoke(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "alpha", WorkstationProfile())
	id, err := n.Install(buildAdder(t, "adder", "1.0.0").Package().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if id.String() != "adder-1.0.0" {
		t.Fatalf("id = %s", id)
	}
	if n.Repo().Len() != 1 {
		t.Fatal("repo empty after install")
	}
	d0 := n.Digest()

	mi, err := n.Instantiate(context.Background(), id, "a1")
	if err != nil {
		t.Fatal(err)
	}
	if n.Digest() <= d0 {
		t.Fatal("digest did not advance on instantiate")
	}
	ref, err := mi.PortIOR("sum")
	if err != nil {
		t.Fatal(err)
	}
	var got int32
	err = n.ORB().NewRef(ref).InvokeContext(context.Background(), "add",
		func(e *cdr.Encoder) { e.WriteLong(40) },
		func(d *cdr.Decoder) error { var e error; got, e = d.ReadLong(); return e })
	if err != nil || got != 40 {
		t.Fatalf("add = %d, %v", got, err)
	}
}

func TestInstallRejectsWrongPlatform(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "alpha", WorkstationProfile())
	spec := adderSpec("nicheware", "1.0.0")
	spec.Platforms = [][2]string{{"plan9", "mips"}}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Install(c.Package().Bytes()); !errors.Is(err, ErrNoPlatformFit) {
		t.Fatalf("err = %v", err)
	}
}

func TestPDARefusesInstallButKeepsRemoteUse(t *testing.T) {
	leak.Check(t)
	pda := newTestNode(t, "pda-1", PDAProfile())
	// A PDA is a fixed node: installation refused outright.
	if _, err := pda.Install(buildAdder(t, "adder", "1.0.0").Package().Bytes()); !errors.Is(err, ErrFixedNode) {
		t.Fatalf("install on PDA: %v", err)
	}
	// And even a non-fixed tiny node rejects components whose memory
	// floor exceeds the device.
	tiny := PDAProfile()
	tiny.Fixed = false
	n := newTestNode(t, "tiny", tiny)
	spec := adderSpec("hog", "1.0.0")
	spec.QoS = xmldesc.QoS{MemoryMinMB: 512}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Install(c.Package().Bytes()); !errors.Is(err, ErrResources) {
		t.Fatalf("oversized install: %v", err)
	}
}

func TestLocalQueryAndVersions(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "alpha", WorkstationProfile())
	for _, ver := range []string{"1.0.0", "1.5.0", "2.0.0"} {
		if _, err := n.InstallComponent(buildAdder(t, "adder", ver)); err != nil {
			t.Fatal(err)
		}
	}
	offers, err := n.LocalQuery("IDL:test/Adder:1.0", "1.*")
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 {
		t.Fatalf("offers = %d", len(offers))
	}
	for _, of := range offers {
		if !strings.HasPrefix(of.ComponentID, "adder-1.") || of.Node != "alpha" || of.Port != "sum" {
			t.Fatalf("offer = %+v", of)
		}
	}
	if _, err := n.LocalQuery("IDL:test/Adder:1.0", ">>bad"); err == nil {
		t.Fatal("bad version requirement accepted")
	}
}

func TestLocalResolverReusesInstance(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "alpha", WorkstationProfile())
	if _, err := n.InstallComponent(buildAdder(t, "adder", "1.0.0")); err != nil {
		t.Fatal(err)
	}
	p := xmldesc.Port{Kind: xmldesc.PortUses, Name: "dep", RepoID: "IDL:test/Adder:1.0"}
	ref1, err := n.ResolveDependency(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := n.ResolveDependency(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if ref1.String() != ref2.String() {
		t.Fatal("resolver created a second instance instead of reusing")
	}
	if _, err := n.ResolveDependency(context.Background(), xmldesc.Port{RepoID: "IDL:test/Nothing:1.0", Kind: xmldesc.PortUses, Name: "x"}); !errors.Is(err, ErrUnresolved) {
		t.Fatalf("missing dep err = %v", err)
	}
}

func TestReportMarshalRoundTrip(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "alpha", ServerProfile())
	r := n.Report()
	e := cdr.NewEncoder(cdr.BigEndian)
	r.Marshal(e)
	got, err := UnmarshalReport(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != "alpha" || got.Capability != CapServer || got.CPUCores != 16 ||
		got.MemoryMB != 32768 || got.UnixMillis != r.UnixMillis {
		t.Fatalf("report = %+v", got)
	}
	if got.CPUFree() != 16 || got.LoadFraction() != 0 {
		t.Fatalf("derived values wrong: %+v", got)
	}
	if _, err := UnmarshalReport(cdr.NewDecoder([]byte{1}, cdr.BigEndian)); err == nil {
		t.Fatal("garbage report accepted")
	}
}

// TestOfferMarshalRoundTrip pins a real node's offer, on simnet and with
// an IIOP endpoint, at 144 B on the wire in either byte order: the
// offering node travels as its endpoint. Two full references (acceptor
// and registry) made it 318 B on simnet and 368 B with IIOP. Offers
// decode to what was marshalled.
func TestOfferMarshalRoundTrip(t *testing.T) {
	leak.Check(t)
	onSimnet, _, _ := twoNodesOverSimnet(t)
	onIIOP := newTestNode(t, "gamma", WorkstationProfile())
	srv, err := iiop.ListenAndActivate(onIIOP.ORB(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, n := range []*Node{onSimnet, onIIOP} {
		if _, err := n.InstallComponent(buildAdder(t, "adder", "1.0.0")); err != nil {
			t.Fatal(err)
		}
		offers, err := n.LocalQuery("IDL:test/Adder:1.0", "*")
		if err != nil || len(offers) != 1 {
			t.Fatalf("%s: LocalQuery = %d offers, %v", n.Name(), len(offers), err)
		}
		in := offers[0]
		for _, order := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
			e := cdr.NewEncoder(order)
			in.Marshal(e)
			if e.Len() > 144 {
				t.Errorf("%s: an offer is %d B on the wire, want <= 144", n.Name(), e.Len())
			}
			e = cdr.NewEncoder(order)
			MarshalOffers(e, []*Offer{in, in})
			out, err := UnmarshalOffers(cdr.NewDecoder(e.Bytes(), order))
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 2 || !reflect.DeepEqual(out[1], in) {
				t.Fatalf("%s: offers = %+v, want %+v", n.Name(), out[1], in)
			}
		}
	}
	// Hostile count.
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.WriteULong(1 << 30)
	if _, err := UnmarshalOffers(cdr.NewDecoder(e.Bytes(), cdr.LittleEndian)); err == nil {
		t.Fatal("hostile offer count accepted")
	}
}

// twoNodesOverSimnet wires two nodes through a virtual network and
// returns them; callers interact across it purely via CORBA refs.
func twoNodesOverSimnet(t *testing.T) (*Node, *Node, *simnet.Network) {
	t.Helper()
	net := simnet.New(simnet.Link{})
	a := newTestNode(t, "alpha", WorkstationProfile())
	b := newTestNode(t, "beta", WorkstationProfile())
	if err := net.Attach("alpha", a.ORB()); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach("beta", b.ORB()); err != nil {
		t.Fatal(err)
	}
	return a, b, net
}

func TestRemoteInstallQueryInstantiateOverCORBA(t *testing.T) {
	leak.Check(t)
	a, b, _ := twoNodesOverSimnet(t)

	// beta installs the component on alpha through alpha's acceptor —
	// pure CORBA, no shared memory.
	acceptor := b.ORB().NewRef(a.Ref(ComponentAcceptor))
	pkgBytes := buildAdder(t, "adder", "1.0.0").Package().Bytes()
	var idStr string
	err := acceptor.InvokeContext(context.Background(), "install",
		func(e *cdr.Encoder) { e.WriteOctetSeq(pkgBytes) },
		func(d *cdr.Decoder) error { var e error; idStr, e = d.ReadString(); return e })
	if err != nil {
		t.Fatal(err)
	}
	if idStr != "adder-1.0.0" {
		t.Fatalf("installed id = %q", idStr)
	}

	// Query alpha's registry from beta.
	reg := b.ORB().NewRef(a.Ref(ComponentRegistry))
	var offers []*Offer
	err = reg.InvokeContext(context.Background(), "query",
		func(e *cdr.Encoder) { e.WriteString("IDL:test/Adder:1.0"); e.WriteString("*") },
		func(d *cdr.Decoder) error { var e error; offers, e = UnmarshalOffers(d); return e })
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Node != "alpha" {
		t.Fatalf("offers = %+v", offers)
	}

	// Instantiate remotely and invoke the provided port from beta.
	var instRef *ior.IOR
	err = acceptor.InvokeContext(context.Background(), "instantiate",
		func(e *cdr.Encoder) { e.WriteString(idStr); e.WriteString("remote-made") },
		func(d *cdr.Decoder) error { var e error; instRef, e = ior.Unmarshal(d); return e })
	if err != nil {
		t.Fatal(err)
	}
	var portRef *ior.IOR
	err = acceptor.InvokeContext(context.Background(), "provide",
		func(e *cdr.Encoder) {
			e.WriteString(idStr)
			e.WriteString("remote-made")
			e.WriteString("sum")
		},
		func(d *cdr.Decoder) error { var e error; portRef, e = ior.Unmarshal(d); return e })
	if err != nil {
		t.Fatal(err)
	}
	var total int32
	err = b.ORB().NewRef(portRef).InvokeContext(context.Background(), "add",
		func(e *cdr.Encoder) { e.WriteLong(7) },
		func(d *cdr.Decoder) error { var e error; total, e = d.ReadLong(); return e })
	if err != nil || total != 7 {
		t.Fatalf("remote add = %d, %v", total, err)
	}
	_ = instRef

	// list_components across the wire.
	var names []string
	err = reg.InvokeContext(context.Background(), "list_components", nil, func(d *cdr.Decoder) error {
		var e error
		names, e = d.ReadStringSeq()
		return e
	})
	if err != nil || len(names) != 1 || names[0] != "adder-1.0.0" {
		t.Fatalf("list = %v, %v", names, err)
	}
}

func TestPackageFetchBetweenNodes(t *testing.T) {
	leak.Check(t)
	a, b, _ := twoNodesOverSimnet(t)
	if _, err := a.InstallComponent(buildAdder(t, "adder", "1.0.0")); err != nil {
		t.Fatal(err)
	}
	// beta fetches the binary package from alpha's registry and installs
	// it locally: "fetching them from the host they are installed".
	reg := b.ORB().NewRef(a.Ref(ComponentRegistry))
	var pkg []byte
	err := reg.InvokeContext(context.Background(), "get_package",
		func(e *cdr.Encoder) { e.WriteString("adder-1.0.0") },
		func(d *cdr.Decoder) error { var e error; pkg, e = d.ReadOctetSeq(); return e })
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.Install(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if id.String() != "adder-1.0.0" {
		t.Fatalf("fetched id = %s", id)
	}
	// Unknown package is a user exception.
	err = reg.InvokeContext(context.Background(), "get_package",
		func(e *cdr.Encoder) { e.WriteString("ghost-1.0.0") }, nil)
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/ComponentRegistry/NoSuchComponent:1.0" {
		t.Fatalf("err = %v", err)
	}
}

func TestMigrationViaAcceptorCapsule(t *testing.T) {
	leak.Check(t)
	a, b, _ := twoNodesOverSimnet(t)
	comp := buildAdder(t, "adder", "1.0.0")
	if _, err := a.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	if _, err := b.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	id := comp.ID()
	mi, err := a.Instantiate(context.Background(), id, "mover")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mi.PortIOR("sum")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ORB().NewRef(ref).InvokeContext(context.Background(), "add",
		func(e *cdr.Encoder) { e.WriteLong(99) },
		func(d *cdr.Decoder) error { _, e := d.ReadLong(); return e }); err != nil {
		t.Fatal(err)
	}

	ct, err := a.ContainerFor(id)
	if err != nil {
		t.Fatal(err)
	}
	capsule, err := ct.Migrate("mover")
	if err != nil {
		t.Fatal(err)
	}
	// Ship the capsule to beta through its acceptor.
	acceptor := a.ORB().NewRef(b.Ref(ComponentAcceptor))
	var instRef *ior.IOR
	err = acceptor.InvokeContext(context.Background(), "receive_capsule",
		func(e *cdr.Encoder) {
			e.WriteString(id.String())
			e.WriteOctetSeq(capsule.Bytes())
		},
		func(d *cdr.Decoder) error { var e error; instRef, e = ior.Unmarshal(d); return e })
	if err != nil {
		t.Fatal(err)
	}
	if instRef.TypeID != container.EquivalentRepoID {
		t.Fatalf("instance ref type = %q", instRef.TypeID)
	}
	// Total survived the move.
	bct, err := b.ContainerFor(id)
	if err != nil {
		t.Fatal(err)
	}
	bmi, ok := bct.Instance("mover")
	if !ok {
		t.Fatal("instance not on beta")
	}
	bref, err := bmi.PortIOR("sum")
	if err != nil {
		t.Fatal(err)
	}
	var total int32
	err = a.ORB().NewRef(bref).InvokeContext(context.Background(), "total", nil, func(d *cdr.Decoder) error {
		var e error
		total, e = d.ReadLong()
		return e
	})
	if err != nil || total != 99 {
		t.Fatalf("migrated total = %d, %v", total, err)
	}
}

func TestUninstallClosesContainer(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "alpha", WorkstationProfile())
	comp := buildAdder(t, "adder", "1.0.0")
	id, err := n.InstallComponent(comp)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := n.Instantiate(context.Background(), id, "x")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mi.PortIOR("sum")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Uninstall(id); err != nil {
		t.Fatal(err)
	}
	err = n.ORB().NewRef(ref).InvokeContext(context.Background(), "total", nil, nil)
	var se *orb.SystemException
	if !errors.As(err, &se) || se.Name != "OBJECT_NOT_EXIST" {
		t.Fatalf("after uninstall: %v", err)
	}
	if err := n.Uninstall(id); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("double uninstall: %v", err)
	}
}

func TestAdmitReleasesOnDestroy(t *testing.T) {
	leak.Check(t)
	prof := WorkstationProfile()
	prof.CPUCores = 0.25 // room for exactly two 0.1-CPU instances
	n := newTestNode(t, "small", prof)
	id, err := n.InstallComponent(buildAdder(t, "adder", "1.0.0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Instantiate(context.Background(), id, "one"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Instantiate(context.Background(), id, "two"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Instantiate(context.Background(), id, "three"); err == nil {
		t.Fatal("over-admission")
	}
	ct, err := n.ContainerFor(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Destroy("one"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Instantiate(context.Background(), id, "three"); err != nil {
		t.Fatalf("create after release: %v", err)
	}
}

// The node hub's queue settings were options nothing set; they are fixed
// at the values that were their defaults.
func TestEventQueueDefaultsPinned(t *testing.T) {
	want := events.Config{Depth: 256, Policy: events.Block, BatchWindow: 0}
	if eventQueues != want {
		t.Fatalf("eventQueues = %+v, want %+v", eventQueues, want)
	}
}

// TestE2RegistryShape (Fig. 1, Req. 5): components installed through the
// acceptor at run time are at once found by the registry, at every
// repository size; install and query rates land in the -v log.
func TestE2RegistryShape(t *testing.T) {
	t.Parallel()
	const queries = 500
	for _, count := range []int{10, 100, 400} {
		t.Run(fmt.Sprintf("installed=%d", count), func(t *testing.T) {
			n := newTestNode(t, "e2", WorkstationProfile())
			// Packages are built first, so the rate covers install only.
			pkgs := make([][]byte, count)
			for i := range pkgs {
				s := adderSpec(fmt.Sprintf("comp%04d", i), "1.0.0")
				s.Ports[0].RepoID = fmt.Sprintf("IDL:bench/Svc%04d:1.0", i)
				c, err := s.Build()
				if err != nil {
					t.Fatal(err)
				}
				pkgs[i] = c.Package().Bytes()
			}
			acc := n.ORB().NewRef(n.Ref(ComponentAcceptor))
			start := time.Now()
			for _, pkg := range pkgs {
				err := acc.InvokeContext(context.Background(), "install",
					func(e *cdr.Encoder) { e.WriteOctetSeq(pkg) },
					func(d *cdr.Decoder) error { _, err := d.ReadString(); return err })
				if err != nil {
					t.Fatal(err)
				}
			}
			installRate := float64(count) / time.Since(start).Seconds()

			reg := n.ORB().NewRef(n.Ref(ComponentRegistry))
			found := 0
			start = time.Now()
			for i := 0; i < queries; i++ {
				var offers []*Offer
				err := reg.InvokeContext(context.Background(), "query",
					func(e *cdr.Encoder) { e.WriteString(fmt.Sprintf("IDL:bench/Svc%04d:1.0", i%count)); e.WriteString("*") },
					func(d *cdr.Decoder) error { var e error; offers, e = UnmarshalOffers(d); return e })
				if err != nil {
					t.Fatal(err)
				}
				if len(offers) == 1 {
					found++
				}
			}
			t.Logf("%d installed: %.0f install/s, %.0f query/s, %d/%d found",
				count, installRate, queries/time.Since(start).Seconds(), found, queries)
			if found != queries {
				t.Errorf("not all queries found a match: %d/%d", found, queries)
			}
		})
	}
}
