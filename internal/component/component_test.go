package component

import (
	"errors"
	"testing"

	"corbalc/internal/events"
	"corbalc/internal/ior"
	"corbalc/internal/version"
	"corbalc/internal/xmldesc"
)

func demoSpec() *Spec {
	s := &Spec{
		Name:    "whiteboard",
		Version: "2.1.0",
		Title:   "Shared Whiteboard",
		IDL: map[string]string{
			"idl/wb.idl": `module cscw { interface Board { void stroke(in double x, in double y); }; };`,
		},
		Deps:       []xmldesc.Dependency{{Type: "Component", Name: "display", Version: ">=1.0"}},
		Splittable: false,
		Lifecycle:  "session",
	}
	s.Provide("board", "IDL:cscw/Board:1.0")
	s.Use("display", "IDL:corbalc/Display:1.0", false)
	s.Use("stats", "IDL:corbalc/Stats:1.0", true)
	s.Emit("stroke_added", "IDL:cscw/StrokeAdded:1.0")
	s.Consume("clear", "IDL:cscw/Clear:1.0", true)
	return s
}

func TestParseID(t *testing.T) {
	id, err := ParseID("whiteboard-2.1.0")
	if err != nil || id.Name != "whiteboard" || id.Version != (version.V{Major: 2, Minor: 1}) {
		t.Fatalf("id = %+v, %v", id, err)
	}
	// Hyphenated names parse by scanning for the last version-looking
	// suffix.
	id, err = ParseID("codec-core-1.2.3")
	if err != nil || id.Name != "codec-core" {
		t.Fatalf("id = %+v, %v", id, err)
	}
	if id.String() != "codec-core-1.2.3" {
		t.Fatalf("round trip = %q", id.String())
	}
	for _, bad := range []string{"", "noversion", "-1.0.0"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
}

func TestSpecBuildAndLoad(t *testing.T) {
	c, err := demoSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.ID().String() != "whiteboard-2.1.0" {
		t.Fatalf("id = %s", c.ID())
	}
	if c.Type().Name != "whiteboard" || len(c.Type().Ports) != 5 {
		t.Fatalf("type = %+v", c.Type())
	}
	// The IDL in the package must have been parsed.
	board, ok := c.IDL().LookupType("cscw::Board")
	if !ok {
		t.Fatal("Board interface not in component IDL repo")
	}
	if _, ok := board.LookupOperation("stroke"); !ok {
		t.Fatal("stroke operation missing")
	}
	var deps []xmldesc.Dependency
	for _, d := range c.SoftPkg().Dependencies {
		if d.Type == "Component" {
			deps = append(deps, d)
		}
	}
	if len(deps) != 1 || deps[0].Name != "display" {
		t.Fatalf("deps = %+v", deps)
	}
	if !c.Movable() {
		t.Error("default mobility should be movable")
	}
	// Round-trip through raw bytes (what travels between nodes).
	c2, err := LoadBytes(c.Package().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c2.ID() != c.ID() {
		t.Fatalf("reloaded id = %s", c2.ID())
	}
}

func TestSpecBadIDLRejected(t *testing.T) {
	s := demoSpec()
	s.IDL["idl/broken.idl"] = "interface {{{"
	if _, err := s.Build(); err == nil {
		t.Fatal("broken IDL accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if _, err := r.New("x"); err == nil {
		t.Fatal("empty registry has entry")
	}
	r.Register("x", func() Instance { return &Base{} })
	inst, err := r.New("x")
	if err != nil || inst == nil {
		t.Fatalf("New = %v, %v", inst, err)
	}
	if _, err := r.New("missing"); err == nil {
		t.Fatal("missing entrypoint accepted")
	}
	// Later registration replaces (library upgrade semantics).
	r.Register("x", func() Instance { return nil })
	if got, _ := r.New("x"); got != nil {
		t.Fatal("replacement did not win")
	}
}

func TestBaseInstance(t *testing.T) {
	var b Base
	if b.Ctx() != nil {
		t.Fatal("ctx before activate")
	}
	if err := b.Activate(nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Passivate(); err != nil {
		t.Fatal(err)
	}
	st, err := b.CaptureState()
	if err != nil || st != nil {
		t.Fatalf("state = %v, %v", st, err)
	}
	if err := b.RestoreState(nil); err != nil {
		t.Fatal(err)
	}
	b.ConsumeEvent("p", events.Event{})
}

func declaredPorts() []xmldesc.Port {
	return []xmldesc.Port{
		{Kind: xmldesc.PortProvides, Name: "board", RepoID: "IDL:cscw/Board:1.0"},
		{Kind: xmldesc.PortUses, Name: "display", RepoID: "IDL:corbalc/Display:1.0"},
		{Kind: xmldesc.PortUses, Name: "stats", RepoID: "IDL:corbalc/Stats:1.0", Optional: true},
		{Kind: xmldesc.PortConsumes, Name: "clear", RepoID: "IDL:cscw/Clear:1.0"},
	}
}

func TestPortSetDeclaredAndUnsatisfied(t *testing.T) {
	ps := NewPortSet(declaredPorts())
	un := ps.Unsatisfied()
	// display (uses, required) and clear (consumes, required); stats is
	// optional, board is provides.
	if len(un) != 2 || un[0].Name != "display" || un[1].Name != "clear" {
		t.Fatalf("unsatisfied = %+v", un)
	}
	if err := ps.Connect("display", ior.New("IDL:corbalc/Display:1.0", "h", 1, []byte("d"))); err != nil {
		t.Fatal(err)
	}
	if err := ps.Connect("clear", nil); err != nil {
		t.Fatal(err)
	}
	if got := ps.Unsatisfied(); len(got) != 0 {
		t.Fatalf("unsatisfied after connect = %+v", got)
	}
	st, ok := ps.Get("display")
	if !ok || !st.Connected || st.Target == nil {
		t.Fatalf("display state = %+v", st)
	}
	if err := ps.Disconnect("display"); err != nil {
		t.Fatal(err)
	}
	if got := ps.Unsatisfied(); len(got) != 1 {
		t.Fatalf("unsatisfied after disconnect = %+v", got)
	}
}

func TestPortSetReflectionRules(t *testing.T) {
	ps := NewPortSet(declaredPorts())

	// Declared ports cannot be removed (they are the contractual
	// minimum).
	if err := ps.Remove("board"); !errors.Is(err, ErrPortDeclared) {
		t.Fatalf("remove declared err = %v", err)
	}
	// Dynamic ports can be added and removed.
	dyn := xmldesc.Port{Kind: xmldesc.PortProvides, Name: "thumbnail", RepoID: "IDL:cscw/Thumb:1.0"}
	if err := ps.Add(dyn); err != nil {
		t.Fatal(err)
	}
	if err := ps.Add(dyn); !errors.Is(err, ErrDuplicatePort) {
		t.Fatalf("dup add err = %v", err)
	}
	if err := ps.Remove("thumbnail"); err != nil {
		t.Fatal(err)
	}
	if err := ps.Remove("thumbnail"); !errors.Is(err, ErrNoSuchPort) {
		t.Fatalf("remove twice err = %v", err)
	}
	// Provides ports do not connect.
	if err := ps.Connect("board", nil); err == nil {
		t.Fatal("connect on provides accepted")
	}
	if err := ps.Connect("ghost", nil); !errors.Is(err, ErrNoSuchPort) {
		t.Fatalf("connect missing err = %v", err)
	}
	// Invalid dynamic ports rejected.
	if err := ps.Add(xmldesc.Port{Kind: "bogus", Name: "x", RepoID: "IDL:x:1.0"}); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if err := ps.Add(xmldesc.Port{Kind: xmldesc.PortUses, RepoID: "IDL:x:1.0"}); err == nil {
		t.Fatal("unnamed port accepted")
	}
}

func TestPortSetListOrder(t *testing.T) {
	ps := NewPortSet(declaredPorts())
	_ = ps.Add(xmldesc.Port{Kind: xmldesc.PortEmits, Name: "zz", RepoID: "IDL:z:1.0"})
	list := ps.List()
	if len(list) != 5 || list[0].Desc.Name != "board" || list[4].Desc.Name != "zz" {
		t.Fatalf("list = %+v", list)
	}
	if !list[0].Declared || list[4].Declared {
		t.Fatal("declared flags wrong")
	}
}

func TestSpecPlatformsAndPayload(t *testing.T) {
	s := &Spec{
		Name:         "codec",
		Platforms:    [][2]string{{"linux", "amd64"}, {"palmos", "arm"}},
		BinarySize:   4096,
		Compressible: true,
	}
	s.Provide("p", "IDL:x/P:1.0")
	c, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.SoftPkg().Implementations); got != 2 {
		t.Fatalf("implementations = %d", got)
	}
	im, bin, err := c.Package().Binary("palmos", "arm", "corbalc")
	if err != nil || im.ID != "palmos-arm" || len(bin) != 4096 {
		t.Fatalf("binary = %+v, %d, %v", im, len(bin), err)
	}
}
