package corbalc_test

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"corbalc"
	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/idl"
	"corbalc/internal/ior"
	"corbalc/internal/node"
	"corbalc/internal/orb"
)

// TestServiceIDLConformance parses idl/corbalc.idl — the published
// contracts of every CORBA-LC service — and checks each declared
// operation against the live servants: invoking a declared operation
// (with empty arguments) must never produce CORBA::BAD_OPERATION, which
// is what the servants return for names they do not implement. This
// keeps the IDL file and the Go implementations in lock-step.
func TestServiceIDLConformance(t *testing.T) {
	repo := idl.NewRepository()
	if err := repo.ParseFile("idl/corbalc.idl"); err != nil {
		t.Fatal(err)
	}

	// A live peer with one component instance gives us real servants
	// for every interface.
	reg := component.NewRegistry()
	reg.Register("conf/x.New", func() component.Instance { return &component.Base{} })
	p := corbalc.NewPeer("conformance", corbalc.Options{Impls: reg})
	defer p.Close()
	if err := p.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	spec := &component.Spec{Name: "confcomp", Version: "1.0.0", Entrypoint: "conf/x.New"}
	spec.Provide("svc", "IDL:conf/Svc:1.0")
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Node.InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	mi, err := p.Node.Instantiate(context.Background(), comp.ID(), "i1")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := p.Node.ContainerFor(comp.ID())
	if err != nil {
		t.Fatal(err)
	}

	o := p.Node.ORB()
	targets := map[string]*ior.IOR{
		"corbalc::NetworkCohesion":   p.Contact(),
		"corbalc::ComponentRegistry": p.Node.Ref(node.ComponentRegistry),
		"corbalc::ComponentAcceptor": p.Node.Ref(node.ComponentAcceptor),
		"corbalc::ResourceManager":   p.Node.Ref(node.ResourceManager),
		"corbalc::EventService":      p.Node.Ref(node.EventService),
		"corbalc::ComponentFactory":  ct.FactoryIOR(),
		"corbalc::ComponentInstance": mi.EquivalentIOR(),
	}

	for scoped, target := range targets {
		iface, ok := repo.LookupType(scoped)
		if !ok {
			t.Errorf("idl/corbalc.idl does not declare %s", scoped)
			continue
		}
		ref := o.NewRef(target)
		// The IOR type IDs must match the IDL repository IDs.
		if target.TypeID != iface.RepoID() {
			t.Errorf("%s: servant advertises %q, IDL says %q", scoped, target.TypeID, iface.RepoID())
		}
		for _, op := range iface.AllOperations() {
			err := ref.InvokeContext(context.Background(), op.Name, nil, nil)
			var se *orb.SystemException
			if errors.As(err, &se) && se.Name == "BAD_OPERATION" {
				t.Errorf("%s: declared operation %q not recognised by the servant", scoped, op.Name)
			}
		}
	}
}

// TestNetworkCohesionOpsMatchIDL pins the cohesion wire surface in both
// directions: the operation names agentServant dispatches (read off the
// switch in its InvokeContext) are exactly the ones idl/corbalc.idl
// declares for NetworkCohesion, and the three operations of the deleted
// full-state plane answer BAD_OPERATION.
func TestNetworkCohesionOpsMatchIDL(t *testing.T) {
	repo := idl.NewRepository()
	if err := repo.ParseFile("idl/corbalc.idl"); err != nil {
		t.Fatal(err)
	}
	iface, ok := repo.LookupType("corbalc::NetworkCohesion")
	if !ok {
		t.Fatal("idl/corbalc.idl does not declare corbalc::NetworkCohesion")
	}
	declared := map[string]bool{}
	for _, op := range iface.AllOperations() {
		declared[op.Name] = true
	}

	file, err := parser.ParseFile(token.NewFileSet(), "internal/cohesion/servant.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	dispatched := map[string]bool{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "InvokeContext" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			if tag, ok := sw.Tag.(*ast.Ident); !ok || tag.Name != "op" {
				return true
			}
			for _, stmt := range sw.Body.List {
				for _, expr := range stmt.(*ast.CaseClause).List {
					name, err := strconv.Unquote(expr.(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					dispatched[name] = true
				}
			}
			return false
		})
	}
	if len(dispatched) == 0 {
		t.Fatal("found no operation switch in agentServant.InvokeContext")
	}
	for name := range declared {
		if !dispatched[name] {
			t.Errorf("IDL declares %q but agentServant does not dispatch it", name)
		}
	}
	for name := range dispatched {
		if !declared[name] {
			t.Errorf("agentServant dispatches %q but the IDL does not declare it", name)
		}
	}

	p := corbalc.NewPeer("ops", corbalc.Options{})
	defer p.Close()
	if err := p.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	ref := p.Node.ORB().NewRef(p.Contact())
	for _, op := range []string{"directory_push", "update", "summary"} {
		err := ref.InvokeContext(context.Background(), op, nil, nil)
		var se *orb.SystemException
		if !errors.As(err, &se) || se.Name != "BAD_OPERATION" {
			t.Errorf("%s: err = %v, want CORBA::BAD_OPERATION", op, err)
		}
	}
}

// TestServiceIDLTypesUsable double-checks the declared aggregate aliases
// survive the dynamic marshaller (i.e. the IDL is not just parseable but
// usable for DII against these services).
func TestServiceIDLTypesUsable(t *testing.T) {
	repo := idl.NewRepository()
	if err := repo.ParseFile("idl/corbalc.idl"); err != nil {
		t.Fatal(err)
	}
	blob, ok := repo.LookupType("corbalc::Blob")
	if !ok {
		t.Fatal("Blob missing")
	}
	e := cdr.NewEncoder(cdr.LittleEndian)
	if err := idl.Encode(e, blob, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v, err := idl.Decode(cdr.NewDecoder(e.Bytes(), cdr.LittleEndian), blob)
	if err != nil || len(v.([]byte)) != 3 {
		t.Fatalf("blob round trip: %v, %v", v, err)
	}
	// Every declared exception carries a repository ID matching the ones
	// the servants raise.
	for _, want := range []string{
		"IDL:corbalc/ComponentRegistry/NoSuchComponent:1.0",
		"IDL:corbalc/ComponentAcceptor/Rejected:1.0",
		"IDL:corbalc/ComponentFactory/CreateFailed:1.0",
		"IDL:corbalc/ComponentInstance/NoSuchPort:1.0",
		"IDL:corbalc/EventService/NoSuchBridge:1.0",
		"IDL:corbalc/NetworkCohesion/Refused:1.0",
	} {
		if _, ok := repo.LookupByRepoID(want); !ok {
			t.Errorf("IDL does not declare exception %s", want)
		}
	}
}
