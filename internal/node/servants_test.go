package node

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/cpkg"
	"corbalc/internal/events"
	"corbalc/internal/ior"
	"corbalc/internal/leak"
	"corbalc/internal/orb"
	"corbalc/internal/xmldesc"
)

func TestResourceServantOverCORBA(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "rs", ServerProfile())
	rm := n.ORB().NewRef(n.Ref(ResourceManager))

	var r *Report
	if err := rm.InvokeContext(context.Background(), "report", nil, func(d *cdr.Decoder) error {
		var e error
		r, e = UnmarshalReport(d)
		return e
	}); err != nil {
		t.Fatal(err)
	}
	if r.Node != "rs" || r.Capability != CapServer {
		t.Fatalf("report = %+v", r)
	}
	if r.MemoryUsedMB != 0 || r.MemoryMB == 0 {
		t.Fatalf("memory = %d used of %d MB", r.MemoryUsedMB, r.MemoryMB)
	}

	canHost := func(cpu float64, mem uint32, bw float64) bool {
		var ok bool
		if err := rm.InvokeContext(context.Background(), "can_host",
			func(e *cdr.Encoder) {
				e.WriteDouble(cpu)
				e.WriteULong(mem)
				e.WriteDouble(bw)
			},
			func(d *cdr.Decoder) error {
				var e error
				ok, e = d.ReadBool()
				return e
			}); err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !canHost(1, 128, 10) {
		t.Error("idle server refused a small envelope")
	}
	if canHost(100, 0, 0) {
		t.Error("server accepted 100 CPUs")
	}
	if canHost(0, 1<<20, 0) {
		t.Error("server accepted a terabyte")
	}
	if canHost(0, 0, 1e6) {
		t.Error("server accepted a terabit link demand")
	}
	// Background load shrinks admission capacity.
	n.Resources().SetBackgroundLoad(15.5)
	if canHost(1, 0, 0) {
		t.Error("loaded server accepted another CPU")
	}
}

func TestRegistryServantDigestFactoryAndInstances(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "rg", WorkstationProfile())
	reg := n.ORB().NewRef(n.Ref(ComponentRegistry))

	readDigest := func() uint64 {
		var d64 uint64
		if err := reg.InvokeContext(context.Background(), "digest", nil, func(d *cdr.Decoder) error {
			var e error
			d64, e = d.ReadULongLong()
			return e
		}); err != nil {
			t.Fatal(err)
		}
		return d64
	}
	before := readDigest()
	id, err := n.InstallComponent(buildAdder(t, "adder", "1.0.0"))
	if err != nil {
		t.Fatal(err)
	}
	if readDigest() <= before {
		t.Fatal("digest did not advance on install")
	}

	// factory via CORBA, then create an instance through it.
	var factory *ior.IOR
	if err := reg.InvokeContext(context.Background(), "factory",
		func(e *cdr.Encoder) { e.WriteString(id.String()) },
		func(d *cdr.Decoder) error { var e error; factory, e = ior.Unmarshal(d); return e }); err != nil {
		t.Fatal(err)
	}
	if err := n.ORB().NewRef(factory).InvokeContext(context.Background(), "create",
		func(e *cdr.Encoder) { e.WriteString("f1") },
		func(d *cdr.Decoder) error { _, e := ior.Unmarshal(d); return e }); err != nil {
		t.Fatal(err)
	}

	// list_instances + instance_ports reflect it.
	var pairs [][2]string
	if err := reg.InvokeContext(context.Background(), "list_instances", nil, func(d *cdr.Decoder) error {
		cnt, err := d.ReadULong()
		if err != nil {
			return err
		}
		for i := uint32(0); i < cnt; i++ {
			comp, err := d.ReadString()
			if err != nil {
				return err
			}
			inst, err := d.ReadString()
			if err != nil {
				return err
			}
			pairs = append(pairs, [2]string{comp, inst})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0][0] != id.String() || pairs[0][1] != "f1" {
		t.Fatalf("instances = %v", pairs)
	}
	found := 0
	if err := reg.InvokeContext(context.Background(), "instance_ports",
		func(e *cdr.Encoder) { e.WriteString(id.String()); e.WriteString("f1") },
		func(d *cdr.Decoder) error {
			cnt, err := d.ReadULong()
			if err != nil {
				return err
			}
			for i := uint32(0); i < cnt; i++ {
				if _, err := d.ReadString(); err != nil { // name
					return err
				}
				if _, err := d.ReadString(); err != nil { // kind
					return err
				}
				if _, err := d.ReadString(); err != nil { // repoid
					return err
				}
				if _, err := d.ReadBool(); err != nil { // connected
					return err
				}
				found++
			}
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if found != 1 {
		t.Fatalf("ports = %d", found)
	}
	// Unknown instance is a user exception.
	err = reg.InvokeContext(context.Background(), "instance_ports",
		func(e *cdr.Encoder) { e.WriteString(id.String()); e.WriteString("ghost") }, nil)
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/ComponentRegistry/NoSuchComponent:1.0" {
		t.Fatalf("err = %v", err)
	}
}

func TestAcceptorUninstallAndEventServiceOps(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "au", WorkstationProfile())
	acc := n.ORB().NewRef(n.Ref(ComponentAcceptor))
	id, err := n.InstallComponent(buildAdder(t, "adder", "1.0.0"))
	if err != nil {
		t.Fatal(err)
	}
	// The event service is reached through the reference an offer
	// derives from the node's endpoint, as bridging assemblies reach it.
	offers, err := n.LocalQuery("IDL:test/Adder:1.0", "*")
	if err != nil || len(offers) != 1 {
		t.Fatalf("LocalQuery = %d offers, %v", len(offers), err)
	}
	ev := n.ORB().NewRef(offers[0].Ref(EventService))
	if err := ev.InvokeContext(context.Background(), "events_stats", nil, func(d *cdr.Decoder) error {
		_, err := d.ReadULong()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := acc.InvokeContext(context.Background(), "uninstall", func(e *cdr.Encoder) { e.WriteString(id.String()) }, nil); err != nil {
		t.Fatal(err)
	}
	if n.Repo().Len() != 0 {
		t.Fatal("uninstall did not empty the repo")
	}
	err = acc.InvokeContext(context.Background(), "uninstall", func(e *cdr.Encoder) { e.WriteString(id.String()) }, nil)
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/ComponentRegistry/NoSuchComponent:1.0" {
		t.Fatalf("double uninstall err = %v", err)
	}
}

func TestEventServicePushAndBridge(t *testing.T) {
	leak.Check(t)
	a, b, _ := twoNodesOverSimnet(t)

	// Local subscriber on b counts arrivals.
	var got atomic.Int64
	cancel := b.Hub().Channel("IDL:test/E:1.0").Subscribe("t", func(ev events.Event) {
		if ev.Source == "tester" {
			got.Add(1)
		}
	})
	defer cancel()

	// Push directly into b's hub over CORBA.
	evB := a.ORB().NewRef(b.Ref(EventService))
	if err := evB.InvokeContext(context.Background(), "push", func(e *cdr.Encoder) {
		e.WriteString("IDL:test/E:1.0")
		e.WriteString("tester")
		e.WriteOctetSeq([]byte("x"))
	}, nil); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &got, 1)

	// Bridge a's channel to b: events published on a flow to b.
	evA := a.ORB().NewRef(a.Ref(EventService))
	var bridgeID string
	if err := evA.InvokeContext(context.Background(), "bridge", func(e *cdr.Encoder) {
		e.WriteString("IDL:test/E:1.0")
		b.Ref(EventService).Marshal(e)
	}, func(d *cdr.Decoder) error {
		var e error
		bridgeID, e = d.ReadString()
		return e
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Hub().Channel("IDL:test/E:1.0").Push(events.Event{Source: "tester"}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &got, 2)

	// Unbridge stops the flow; unknown bridge id is a user exception.
	if err := evA.InvokeContext(context.Background(), "unbridge", func(e *cdr.Encoder) { e.WriteString(bridgeID) }, nil); err != nil {
		t.Fatal(err)
	}
	_ = a.Hub().Channel("IDL:test/E:1.0").Push(events.Event{Source: "tester"})
	time.Sleep(30 * time.Millisecond)
	if got.Load() != 2 {
		t.Fatalf("events after unbridge = %d", got.Load())
	}
	err := evA.InvokeContext(context.Background(), "unbridge", func(e *cdr.Encoder) { e.WriteString("bridge-999") }, nil)
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/EventService/NoSuchBridge:1.0" {
		t.Fatalf("err = %v", err)
	}
}

func waitCount(t *testing.T, n *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("count = %d, want %d", n.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTrustedKeysGateInstalls(t *testing.T) {
	leak.Check(t)
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	n := New(Config{Name: "secure", Impls: testImpls(), Profile: WorkstationProfile(),
		TrustedKeys: []ed25519.PublicKey{pub}})
	t.Cleanup(n.Close)

	// Unsigned package refused.
	unsigned := buildAdder(t, "adder", "1.0.0")
	if _, err := n.Install(unsigned.Package().Bytes()); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("unsigned install err = %v", err)
	}

	// Properly signed package accepted: rebuild the same spec signed.
	spec := adderSpec("adder", "1.0.0")
	pkg, err := spec.BuildPackage()
	if err != nil {
		t.Fatal(err)
	}
	// Re-sign by rebuilding through the cpkg builder.
	b := &cpkg.Builder{
		SoftPkg:       pkg.SoftPkg(),
		ComponentType: pkg.ComponentType(),
		IDL:           map[string]string{},
		Binaries:      map[string][]byte{},
	}
	for _, im := range pkg.SoftPkg().Implementations {
		data, err := pkg.File(im.Code.File.Name)
		if err != nil {
			t.Fatal(err)
		}
		b.Binaries[im.Code.File.Name] = data
	}
	b.Sign(priv)
	signedBytes, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Install(signedBytes); err != nil {
		t.Fatalf("signed install: %v", err)
	}

	// Signed by the wrong key: refused.
	_, otherPriv, _ := ed25519.GenerateKey(rand.Reader)
	b.Sign(otherPriv)
	wrongBytes, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := component.LoadBytes(wrongBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Different version so the repo does not dedupe.
	_ = wrong
	n2 := New(Config{Name: "secure2", Impls: testImpls(), Profile: WorkstationProfile(),
		TrustedKeys: []ed25519.PublicKey{pub}})
	t.Cleanup(n2.Close)
	if _, err := n2.Install(wrongBytes); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("wrong-key install err = %v", err)
	}
}

func TestNodeAccessors(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "acc", PDAProfile())
	if n.Name() != "acc" || n.NodeName() != "acc" {
		t.Fatal("names")
	}
	if n.Hub() == nil || n.Resources() == nil {
		t.Fatal("nil services")
	}
	if n.Resources().Profile().Capability != CapPDA {
		t.Fatal("profile")
	}
	var fired atomic.Int64
	n.SetChangeListener(func() { fired.Add(1) })
	n.Touch()
	if fired.Load() != 1 {
		t.Fatalf("listener fired %d times", fired.Load())
	}
	n.SetChangeListener(nil)
	n.Touch()
	if fired.Load() != 1 {
		t.Fatal("listener fired after removal")
	}
	if len(n.Instances()) != 0 {
		t.Fatal("instances on fresh node")
	}
	// SetResolver is honoured.
	n.SetResolver(resolverFunc(func(p xmldesc.Port) (*ior.IOR, error) {
		return ior.New(p.RepoID, "h", 1, []byte("k")), nil
	}))
	ref, err := n.ResolveDependency(context.Background(), xmldesc.Port{RepoID: "IDL:x:1.0"})
	if err != nil || ref.TypeID != "IDL:x:1.0" {
		t.Fatalf("resolver: %v, %v", ref, err)
	}
}

type resolverFunc func(p xmldesc.Port) (*ior.IOR, error)

func (f resolverFunc) Resolve(_ context.Context, p xmldesc.Port) (*ior.IOR, error) { return f(p) }
