package container

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/events"
	"corbalc/internal/ior"
	"corbalc/internal/orb"
	"corbalc/internal/xmldesc"
)

// fakeHost satisfies Host without a full node.
type fakeHost struct {
	name     string
	orb      *orb.ORB
	hub      *events.Hub
	cpuFree  float64
	resolver map[string]*ior.IOR // port repoID -> provider
	admitted atomic.Int64
}

func newFakeHost(name string) *fakeHost {
	return &fakeHost{
		name:     name,
		orb:      orb.NewORB(),
		hub:      events.NewHubConfig(events.Config{Depth: 64, Policy: events.Block}),
		cpuFree:  1.0,
		resolver: make(map[string]*ior.IOR),
	}
}

func (h *fakeHost) NodeName() string { return h.name }
func (h *fakeHost) ORB() *orb.ORB    { return h.orb }
func (h *fakeHost) Hub() *events.Hub { return h.hub }

func (h *fakeHost) Admit(q xmldesc.QoS) (func(), error) {
	if q.CPUMin > h.cpuFree {
		return nil, fmt.Errorf("cpu: need %.2f, free %.2f", q.CPUMin, h.cpuFree)
	}
	h.cpuFree -= q.CPUMin
	h.admitted.Add(1)
	return func() { h.cpuFree += q.CPUMin; h.admitted.Add(-1) }, nil
}

func (h *fakeHost) ResolveDependency(_ context.Context, p xmldesc.Port) (*ior.IOR, error) {
	if ref, ok := h.resolver[p.RepoID]; ok {
		return ref, nil
	}
	return nil, fmt.Errorf("no provider for %s", p.RepoID)
}

// counterInstance is a stateful test component: provided port "count"
// with incr/value, uses port "peer", emits/consumes "tick".
type counterInstance struct {
	component.Base
	value atomic.Int64
	ticks atomic.Int64
}

func (ci *counterInstance) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if port != "count" {
		return component.ErrNoSuchPort
	}
	switch op {
	case "incr":
		n, err := args.ReadLong()
		if err != nil {
			return err
		}
		reply.WriteLong(int32(ci.value.Add(int64(n))))
		return nil
	case "value":
		reply.WriteLong(int32(ci.value.Load()))
		return nil
	case "tick_peer":
		// Emits a tick event through the framework.
		return ci.Ctx().Emit("ticks_out", []byte("tick"))
	case "call_peer":
		ref, err := ci.Ctx().UsePort("peer")
		if err != nil {
			return err
		}
		var v int32
		err = ref.InvokeContext(context.Background(), "value", nil, func(d *cdr.Decoder) error {
			var e error
			v, e = d.ReadLong()
			return e
		})
		if err != nil {
			return err
		}
		reply.WriteLong(v)
		return nil
	}
	return orb.BadOperation()
}

func (ci *counterInstance) ConsumeEvent(port string, ev events.Event) {
	if port == "ticks_in" {
		ci.ticks.Add(1)
	}
}

func (ci *counterInstance) CaptureState() ([]byte, error) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.WriteLongLong(ci.value.Load())
	return e.Bytes(), nil
}

func (ci *counterInstance) RestoreState(state []byte) error {
	if len(state) == 0 {
		return nil
	}
	v, err := cdr.NewDecoder(state, cdr.LittleEndian).ReadLongLong()
	if err != nil {
		return err
	}
	ci.value.Store(v)
	return nil
}

func counterSpec() *component.Spec {
	s := &component.Spec{Name: "counter", Version: "1.0.0", Entrypoint: "test/counter.New"}
	s.Provide("count", "IDL:test/Counter:1.0")
	s.Use("peer", "IDL:test/Counter:1.0", true)
	s.Emit("ticks_out", "IDL:test/Tick:1.0")
	s.Consume("ticks_in", "IDL:test/Tick:1.0", true)
	s.QoS = xmldesc.QoS{CPUMin: 0.25}
	return s
}

func newCounterContainer(t *testing.T, host Host) *Container {
	t.Helper()
	comp, err := counterSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := component.NewRegistry()
	reg.Register("test/counter.New", func() component.Instance { return &counterInstance{} })
	c, err := New(host, comp, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestCreateInvokeDestroy(t *testing.T) {
	host := newFakeHost("node-a")
	c := newCounterContainer(t, host)

	mi, err := c.Create("c1")
	if err != nil {
		t.Fatal(err)
	}
	if mi.Name() != "c1" {
		t.Fatalf("name = %q", mi.Name())
	}
	portRef, err := mi.PortIOR("count")
	if err != nil {
		t.Fatal(err)
	}
	ref := host.orb.NewRef(portRef)
	var v int32
	if err := ref.InvokeContext(context.Background(), "incr",
		func(e *cdr.Encoder) { e.WriteLong(5) },
		func(d *cdr.Decoder) error { var e error; v, e = d.ReadLong(); return e }); err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("incr = %d", v)
	}
	if err := c.Destroy("c1"); err != nil {
		t.Fatal(err)
	}
	// The port servant must be gone.
	err = ref.InvokeContext(context.Background(), "value", nil, nil)
	var se *orb.SystemException
	if !errors.As(err, &se) || se.Name != "OBJECT_NOT_EXIST" {
		t.Fatalf("after destroy: %v", err)
	}
	if err := c.Destroy("c1"); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("double destroy: %v", err)
	}
	if host.admitted.Load() != 0 {
		t.Fatalf("QoS reservations leaked: %d", host.admitted.Load())
	}
}

func TestAutoNamingAndDuplicates(t *testing.T) {
	c := newCounterContainer(t, newFakeHost("n"))
	a, err := c.Create("")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Create("")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() == b.Name() {
		t.Fatalf("auto names collide: %s", a.Name())
	}
	if _, err := c.Create(a.Name()); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate err = %v", err)
	}
	if got := len(c.Instances()); got != 2 {
		t.Fatalf("instances = %d", got)
	}
}

func TestQoSAdmission(t *testing.T) {
	host := newFakeHost("n")
	host.cpuFree = 0.6 // room for two 0.25 instances, not three
	c := newCounterContainer(t, host)
	if _, err := c.Create(""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(""); err != nil {
		t.Fatal(err)
	}
	_, err := c.Create("")
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("third create err = %v", err)
	}
	// Destroying one frees capacity.
	insts := c.Instances()
	if err := c.Destroy(insts[0].Name()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(""); err != nil {
		t.Fatalf("create after release: %v", err)
	}
}

func TestFactoryServantOverORB(t *testing.T) {
	host := newFakeHost("n")
	c := newCounterContainer(t, host)
	fref := host.orb.NewRef(c.FactoryIOR())

	// create via CORBA
	var instRef *ior.IOR
	err := fref.InvokeContext(context.Background(), "create",
		func(e *cdr.Encoder) { e.WriteString("made-by-corba") },
		func(d *cdr.Decoder) error {
			var e error
			instRef, e = ior.Unmarshal(d)
			return e
		})
	if err != nil {
		t.Fatal(err)
	}
	if instRef.TypeID != EquivalentRepoID {
		t.Fatalf("instance ref type = %q", instRef.TypeID)
	}

	// list
	var names []string
	if err := fref.InvokeContext(context.Background(), "list", nil, func(d *cdr.Decoder) error {
		var e error
		names, e = d.ReadStringSeq()
		return e
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "made-by-corba" {
		t.Fatalf("list = %v", names)
	}

	// duplicate create surfaces as a user exception
	err = fref.InvokeContext(context.Background(), "create", func(e *cdr.Encoder) { e.WriteString("made-by-corba") }, func(d *cdr.Decoder) error { _, e := ior.Unmarshal(d); return e })
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/ComponentFactory/CreateFailed:1.0" {
		t.Fatalf("dup create err = %v", err)
	}

	// destroy
	if err := fref.InvokeContext(context.Background(), "destroy", func(e *cdr.Encoder) { e.WriteString("made-by-corba") }, nil); err != nil {
		t.Fatal(err)
	}
	err = fref.InvokeContext(context.Background(), "destroy", func(e *cdr.Encoder) { e.WriteString("made-by-corba") }, nil)
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/ComponentFactory/NoSuchInstance:1.0" {
		t.Fatalf("destroy missing err = %v", err)
	}
}

func TestEquivalentInterfaceReflection(t *testing.T) {
	host := newFakeHost("n")
	c := newCounterContainer(t, host)
	mi, err := c.Create("r1")
	if err != nil {
		t.Fatal(err)
	}
	eref := host.orb.NewRef(mi.EquivalentIOR())

	// ports introspection
	type portRow struct {
		name, kind, repoID  string
		connected, declared bool
	}
	var rows []portRow
	readPorts := func() {
		rows = nil
		err := eref.InvokeContext(context.Background(), "ports", nil, func(d *cdr.Decoder) error {
			n, err := d.ReadULong()
			if err != nil {
				return err
			}
			for i := uint32(0); i < n; i++ {
				var r portRow
				if r.name, err = d.ReadString(); err != nil {
					return err
				}
				if r.kind, err = d.ReadString(); err != nil {
					return err
				}
				if r.repoID, err = d.ReadString(); err != nil {
					return err
				}
				if r.connected, err = d.ReadBool(); err != nil {
					return err
				}
				if r.declared, err = d.ReadBool(); err != nil {
					return err
				}
				rows = append(rows, r)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	readPorts()
	if len(rows) != 4 || rows[0].name != "count" || !rows[0].declared {
		t.Fatalf("ports = %+v", rows)
	}

	// add_port at run-time (reflection, §2.4.2), then verify it shows up.
	err = eref.InvokeContext(context.Background(), "add_port", func(e *cdr.Encoder) {
		e.WriteString("snapshot")
		e.WriteString("provides")
		e.WriteString("IDL:test/Snap:1.0")
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	readPorts()
	if len(rows) != 5 || rows[4].name != "snapshot" || rows[4].declared {
		t.Fatalf("after add_port: %+v", rows)
	}

	// provide_port on the dynamic port yields an invocable ref (the
	// implementation 404s the unknown port, proving dispatch reached it).
	var snapRef *ior.IOR
	err = eref.InvokeContext(context.Background(), "provide_port",
		func(e *cdr.Encoder) { e.WriteString("snapshot") },
		func(d *cdr.Decoder) error { var e error; snapRef, e = ior.Unmarshal(d); return e })
	if err != nil {
		t.Fatal(err)
	}
	if snapRef.TypeID != "IDL:test/Snap:1.0" {
		t.Fatalf("snapshot ref type = %q", snapRef.TypeID)
	}

	// remove_port retracts it.
	if err := eref.InvokeContext(context.Background(), "remove_port", func(e *cdr.Encoder) { e.WriteString("snapshot") }, nil); err != nil {
		t.Fatal(err)
	}
	readPorts()
	if len(rows) != 4 {
		t.Fatalf("after remove_port: %+v", rows)
	}
	// Removing a declared port fails with the NoSuchPort user exception.
	err = eref.InvokeContext(context.Background(), "remove_port", func(e *cdr.Encoder) { e.WriteString("count") }, nil)
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/ComponentInstance/NoSuchPort:1.0" {
		t.Fatalf("remove declared err = %v", err)
	}
}

func TestDependencyResolutionAndUsePort(t *testing.T) {
	host := newFakeHost("n")
	c := newCounterContainer(t, host)
	provider, err := c.Create("provider")
	if err != nil {
		t.Fatal(err)
	}
	pref, err := provider.PortIOR("count")
	if err != nil {
		t.Fatal(err)
	}
	// Seed provider with a value.
	if err := host.orb.NewRef(pref).InvokeContext(context.Background(), "incr",
		func(e *cdr.Encoder) { e.WriteLong(7) }, func(d *cdr.Decoder) error { _, e := d.ReadLong(); return e }); err != nil {
		t.Fatal(err)
	}
	host.resolver["IDL:test/Counter:1.0"] = pref

	consumer, err := c.Create("consumer")
	if err != nil {
		t.Fatal(err)
	}
	// "peer" is optional so ResolveDependencies skips it; connect it the
	// explicit way first to prove UsePort, then test auto-resolution on
	// a required port via the unsatisfied list.
	if err := consumer.Connect("peer", pref); err != nil {
		t.Fatal(err)
	}
	cref, err := consumer.PortIOR("count")
	if err != nil {
		t.Fatal(err)
	}
	var got int32
	err = host.orb.NewRef(cref).InvokeContext(context.Background(), "call_peer", nil, func(d *cdr.Decoder) error {
		var e error
		got, e = d.ReadLong()
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("call_peer = %d", got)
	}
}

func TestResolveDependenciesRequiredPort(t *testing.T) {
	host := newFakeHost("n")
	spec := counterSpec()
	spec.Name = "needy"
	spec.Ports[1].Optional = false // "peer" becomes required
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := component.NewRegistry()
	reg.Register("test/counter.New", func() component.Instance { return &counterInstance{} })
	c, err := New(host, comp, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mi, err := c.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	// Resolution fails with no provider in the network.
	if err := mi.ResolveDependencies(context.Background()); err == nil {
		t.Fatal("resolution succeeded with no provider")
	}
	host.resolver["IDL:test/Counter:1.0"] = ior.New("IDL:test/Counter:1.0", "h", 1, []byte("k"))
	if err := mi.ResolveDependencies(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := mi.Ports().Unsatisfied(); len(got) != 0 {
		t.Fatalf("unsatisfied = %+v", got)
	}
}

func TestEventFlowBetweenInstances(t *testing.T) {
	host := newFakeHost("n")
	c := newCounterContainer(t, host)
	emitter, err := c.Create("emitter")
	if err != nil {
		t.Fatal(err)
	}
	listener, err := c.Create("listener")
	if err != nil {
		t.Fatal(err)
	}
	epRef, err := emitter.PortIOR("count")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := host.orb.NewRef(epRef).InvokeContext(context.Background(), "tick_peer", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	li := listener.Impl().(*counterInstance)
	deadline := time.Now().Add(2 * time.Second)
	// Both instances consume the tick (emitter also has a consumes
	// port), so listener must see exactly 3.
	for li.ticks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := li.ticks.Load(); got != 3 {
		t.Fatalf("listener ticks = %d", got)
	}
	// Teardown cancels subscriptions: destroy listener, emit again.
	if err := c.Destroy("listener"); err != nil {
		t.Fatal(err)
	}
	if err := host.orb.NewRef(epRef).InvokeContext(context.Background(), "tick_peer", nil, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := li.ticks.Load(); got != 3 {
		t.Fatalf("ticks after destroy = %d", got)
	}
}

func TestServiceLifecycleShared(t *testing.T) {
	host := newFakeHost("n")
	spec := counterSpec()
	spec.Name = "singleton"
	spec.Lifecycle = "service"
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := component.NewRegistry()
	reg.Register("test/counter.New", func() component.Instance { return &counterInstance{} })
	c, err := New(host, comp, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := c.Create("shared")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Create("whatever")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("service lifecycle produced two instances")
	}
}

func TestMaxInstancesEnforced(t *testing.T) {
	host := newFakeHost("n")
	spec := counterSpec()
	spec.Name = "bounded"
	spec.MaxInstances = 2
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := component.NewRegistry()
	reg.Register("test/counter.New", func() component.Instance { return &counterInstance{} })
	c, err := New(host, comp, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Create(""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(""); !errors.Is(err, ErrMaxInstances) {
		t.Fatalf("err = %v", err)
	}
}

func TestMigrationPreservesState(t *testing.T) {
	hostA := newFakeHost("node-a")
	hostB := newFakeHost("node-b")
	cA := newCounterContainer(t, hostA)
	cB := newCounterContainer(t, hostB)

	mi, err := cA.Create("traveller")
	if err != nil {
		t.Fatal(err)
	}
	pref, err := mi.PortIOR("count")
	if err != nil {
		t.Fatal(err)
	}
	if err := hostA.orb.NewRef(pref).InvokeContext(context.Background(), "incr",
		func(e *cdr.Encoder) { e.WriteLong(41) }, func(d *cdr.Decoder) error { _, e := d.ReadLong(); return e }); err != nil {
		t.Fatal(err)
	}

	capsule, err := cA.Migrate("traveller")
	if err != nil {
		t.Fatal(err)
	}
	if len(cA.Instances()) != 0 {
		t.Fatal("instance still on node A")
	}

	// The capsule survives wire serialisation.
	capsule2, err := DecodeCapsuleBytes(capsule.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	mi2, err := cB.Restore(capsule2)
	if err != nil {
		t.Fatal(err)
	}
	pref2, err := mi2.PortIOR("count")
	if err != nil {
		t.Fatal(err)
	}
	var v int32
	err = hostB.orb.NewRef(pref2).InvokeContext(context.Background(), "incr",
		func(e *cdr.Encoder) { e.WriteLong(1) },
		func(d *cdr.Decoder) error { var e error; v, e = d.ReadLong(); return e })
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("state after migration = %d, want 42", v)
	}
}

func TestMigrateNotMovable(t *testing.T) {
	host := newFakeHost("n")
	spec := counterSpec()
	spec.Name = "anchored"
	spec.Mobility = "fixed"
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := component.NewRegistry()
	reg.Register("test/counter.New", func() component.Instance { return &counterInstance{} })
	c, err := New(host, comp, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate("a"); !errors.Is(err, ErrNotMovable) {
		t.Fatalf("err = %v", err)
	}
}

func TestRestoreWrongComponent(t *testing.T) {
	host := newFakeHost("n")
	c := newCounterContainer(t, host)
	capsule := &Capsule{ComponentID: "other-9.9.9", InstanceName: "x"}
	if _, err := c.Restore(capsule); err == nil {
		t.Fatal("foreign capsule accepted")
	}
}

func TestCapsuleRoundTripWithPortsAndConnections(t *testing.T) {
	in := &Capsule{
		ComponentID:  "counter-1.0.0",
		InstanceName: "i",
		State:        []byte{1, 2, 3},
		DynamicPorts: []xmldesc.Port{
			{Kind: xmldesc.PortProvides, Name: "extra", RepoID: "IDL:x:1.0"},
			{Kind: xmldesc.PortUses, Name: "dep", RepoID: "IDL:y:1.0", Optional: true},
		},
		Connections: map[string]*ior.IOR{
			"dep": ior.New("IDL:y:1.0", "h", 2, []byte("k")),
		},
	}
	out, err := DecodeCapsuleBytes(in.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if out.ComponentID != in.ComponentID || out.InstanceName != in.InstanceName ||
		string(out.State) != string(in.State) || len(out.DynamicPorts) != 2 ||
		out.DynamicPorts[1].Optional != true {
		t.Fatalf("capsule = %+v", out)
	}
	if out.Connections["dep"] == nil || out.Connections["dep"].TypeID != "IDL:y:1.0" {
		t.Fatalf("connections = %+v", out.Connections)
	}
	// Garbage rejected.
	if _, err := DecodeCapsuleBytes([]byte{1, 2}); err == nil {
		t.Fatal("garbage capsule accepted")
	}
}

func TestSnapshotKeepsInstanceRunning(t *testing.T) {
	host := newFakeHost("n")
	c := newCounterContainer(t, host)
	mi, err := c.Create("snap")
	if err != nil {
		t.Fatal(err)
	}
	ref := host.orb.NewRef(mustPortIOR(t, mi, "count"))
	if err := ref.InvokeContext(context.Background(), "incr", func(e *cdr.Encoder) { e.WriteLong(3) },
		func(d *cdr.Decoder) error { _, e := d.ReadLong(); return e }); err != nil {
		t.Fatal(err)
	}
	capsule, err := mi.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if capsule.InstanceName != "snap" || len(capsule.State) == 0 {
		t.Fatalf("capsule = %+v", capsule)
	}
	// The instance still serves after the snapshot quiesce.
	var v int32
	if err := ref.InvokeContext(context.Background(), "incr", func(e *cdr.Encoder) { e.WriteLong(1) },
		func(d *cdr.Decoder) error { var e error; v, e = d.ReadLong(); return e }); err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Fatalf("value after snapshot = %d", v)
	}
	// The capsule froze the pre-snapshot state.
	st, err := cdr.NewDecoder(capsule.State, cdr.LittleEndian).ReadLongLong()
	if err != nil || st != 3 {
		t.Fatalf("capsule state = %d, %v", st, err)
	}
}

func mustPortIOR(t *testing.T, mi *ManagedInstance, port string) *ior.IOR {
	t.Helper()
	ref, err := mi.PortIOR(port)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestInstanceContextIdentityAndDisconnect(t *testing.T) {
	host := newFakeHost("ctx-node")
	c := newCounterContainer(t, host)
	if c.Component().Name() != "counter" {
		t.Fatal("Component accessor")
	}
	mi, err := c.Create("idn")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Instance("idn"); !ok || got != mi {
		t.Fatal("Instance accessor")
	}
	ctx := &instanceContext{mi: mi}
	if ctx.InstanceName() != "idn" || ctx.NodeName() != "ctx-node" {
		t.Fatalf("identity = %s@%s", ctx.InstanceName(), ctx.NodeName())
	}
	if got := ctx.Ports(); len(got) != 4 {
		t.Fatalf("ports = %d", len(got))
	}
	// Connect/Disconnect through the instance API.
	target := ior.New("IDL:test/Counter:1.0", "h", 1, []byte("k"))
	if err := mi.Connect("peer", target); err != nil {
		t.Fatal(err)
	}
	if st, _ := mi.Ports().Get("peer"); !st.Connected {
		t.Fatal("not connected")
	}
	if err := mi.Disconnect("peer"); err != nil {
		t.Fatal(err)
	}
	if st, _ := mi.Ports().Get("peer"); st.Connected {
		t.Fatal("still connected")
	}
	// UsePort on a disconnected port errors.
	if _, err := ctx.UsePort("peer"); err == nil {
		t.Fatal("UsePort on disconnected port succeeded")
	}
	if _, err := ctx.UsePort("ghost"); err == nil {
		t.Fatal("UsePort on ghost port succeeded")
	}
}

func TestEquivalentServantEdgeCases(t *testing.T) {
	host := newFakeHost("n")
	c := newCounterContainer(t, host)
	mi, err := c.Create("edge")
	if err != nil {
		t.Fatal(err)
	}
	eref := host.orb.NewRef(mi.EquivalentIOR())

	// name / component_id ops.
	var name, compID string
	if err := eref.InvokeContext(context.Background(), "name", nil, func(d *cdr.Decoder) error {
		var e error
		name, e = d.ReadString()
		return e
	}); err != nil {
		t.Fatal(err)
	}
	if err := eref.InvokeContext(context.Background(), "component_id", nil, func(d *cdr.Decoder) error {
		var e error
		compID, e = d.ReadString()
		return e
	}); err != nil {
		t.Fatal(err)
	}
	if name != "edge" || compID != "counter-1.0.0" {
		t.Fatalf("identity = %s / %s", name, compID)
	}

	// provide_port on a uses port is a NoSuchPort user exception.
	err = eref.InvokeContext(context.Background(), "provide_port", func(e *cdr.Encoder) { e.WriteString("peer") },
		func(d *cdr.Decoder) error { _, e := ior.Unmarshal(d); return e })
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/ComponentInstance/NoSuchPort:1.0" {
		t.Fatalf("provide uses err = %v", err)
	}
	// connect with a bogus port.
	err = eref.InvokeContext(context.Background(), "connect", func(e *cdr.Encoder) {
		e.WriteString("ghost")
		ior.New("IDL:x:1.0", "h", 1, []byte("k")).Marshal(e)
	}, nil)
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/ComponentInstance/NoSuchPort:1.0" {
		t.Fatalf("connect ghost err = %v", err)
	}
	// disconnect via CORBA works on a connected port.
	if err := eref.InvokeContext(context.Background(), "connect", func(e *cdr.Encoder) {
		e.WriteString("peer")
		ior.New("IDL:test/Counter:1.0", "h", 1, []byte("k")).Marshal(e)
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eref.InvokeContext(context.Background(), "disconnect", func(e *cdr.Encoder) { e.WriteString("peer") }, nil); err != nil {
		t.Fatal(err)
	}
	// add_port with a bad kind is a PortError.
	err = eref.InvokeContext(context.Background(), "add_port", func(e *cdr.Encoder) {
		e.WriteString("dyn")
		e.WriteString("bogus-kind")
		e.WriteString("IDL:x:1.0")
	}, nil)
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/ComponentInstance/PortError:1.0" {
		t.Fatalf("bad kind err = %v", err)
	}
	// Unknown operation on the equivalent interface.
	err = eref.InvokeContext(context.Background(), "warp_drive", nil, nil)
	var se *orb.SystemException
	if !errors.As(err, &se) || se.Name != "BAD_OPERATION" {
		t.Fatalf("unknown op err = %v", err)
	}
	// Dynamic consumes port: add, then remove — subscription management.
	if err := eref.InvokeContext(context.Background(), "add_port", func(e *cdr.Encoder) {
		e.WriteString("extra_in")
		e.WriteString("consumes")
		e.WriteString("IDL:test/Tick:1.0")
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eref.InvokeContext(context.Background(), "remove_port", func(e *cdr.Encoder) { e.WriteString("extra_in") }, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreFailuresRollBack(t *testing.T) {
	host := newFakeHost("n")
	c := newCounterContainer(t, host)
	// A capsule with undecodable state: Restore must fail and leave no
	// half-created instance behind.
	capsule := &Capsule{
		ComponentID:  "counter-1.0.0",
		InstanceName: "broken",
		State:        []byte{1, 2, 3}, // too short for a long long
	}
	if _, err := c.Restore(capsule); err == nil {
		t.Fatal("broken capsule accepted")
	}
	if _, ok := c.Instance("broken"); ok {
		t.Fatal("half-restored instance left behind")
	}
}

func TestUnknownFrameworkServiceRefused(t *testing.T) {
	host := newFakeHost("n")
	spec := counterSpec()
	spec.Name = "demanding"
	spec.Framework = []string{"events", "transactions"} // transactions: not offered (the paper's lightweight pitch)
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := component.NewRegistry()
	reg.Register("test/counter.New", func() component.Instance { return &counterInstance{} })
	if _, err := New(host, comp, reg); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
	// Declaring only known services works.
	spec.Framework = []string{"events", "migration"}
	comp, err = spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(host, comp, reg)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
