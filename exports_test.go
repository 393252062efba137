package corbalc_test

import (
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"corbalc/internal/analysis"
)

// testOnlyAllowed lists exported functions, types and methods under
// internal/ that may have no caller outside tests: whole packages that
// exist for tests (by directory), paper features kept ahead of their
// first caller, and fault-injection controls that only a test has a
// reason to pull. Keys are "dir.Func", "dir.Type" or "dir.Type.Method".
var testOnlyAllowed = map[string]string{
	"internal/leak":                             "the goroutine-leak guard tests install",
	"internal/analysis/analysistest":            "the fixture driver of the analyzer tests",
	"internal/orb.WithGIOPVersion":              "GIOP 1.0/1.1 interoperability, no in-repo peer speaks them",
	"internal/orb.WithByteOrder":                "big-endian interoperability, no in-repo peer sends it",
	"internal/orb.Adapter.Keys":                 "introspection: a test wraps every served object in a tracer",
	"internal/orb.wrappedException.Unwrap":      "errors.Is and errors.As reach it through an unnamed interface",
	"internal/node.Node.Touch":                  "experiment control: a reflective change that installs nothing",
	"internal/simnet.Network.Seed":              "fault injection: replay the loss and jitter draws",
	"internal/simnet.Network.Partition":         "fault injection: cut a link",
	"internal/simnet.Network.SetLink":           "fault injection: latency, jitter and loss per link",
	"internal/simnet.Network.SetPartitionClass": "fault injection: cut a whole class of nodes",
	"internal/simnet.Network.Endpoints":         "fault injection: enumerate the endpoints to cut",
	"internal/simnet.Network.StatsOf":           "fault injection: read what a cut or lossy link dropped",
	"internal/node.Resources.SetBackgroundLoad": "fault injection: load a node from outside the component model",
}

// TestNoTestOnlyExports fails when an exported function, type or method
// under internal/ is referenced by no non-test file in the repository,
// benchmark/ and examples/ included: tests drive the forms production
// runs, never a twin kept only for them. References resolve through
// go/types, so only a use of the declared object counts (a field or a
// method of the same name does not), and a use inside the object's own
// declaration (a recursive call, a type's own methods) does not count
// either. A method that satisfies an interface counts as used when that
// interface's method is used; methods satisfying an interface declared
// outside the repository count as used, since their callers (fmt,
// net/http, container/heap...) are out of view.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs := loadRepo(t)
	exported := map[types.Object]string{} // object -> "dir.Name[.Method]"
	methods := map[string][]*types.Func{} // method name -> candidates
	for _, p := range pkgs {
		dir := strings.TrimPrefix(p.PkgPath, "corbalc/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Exported() {
					exported[obj] = dir + "." + name
				}
			case *types.TypeName:
				if obj.Exported() {
					exported[obj] = dir + "." + name
				}
				named, ok := obj.Type().(*types.Named)
				if !ok || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() {
						exported[m] = dir + "." + name + "." + m.Name()
						methods[m.Name()] = append(methods[m.Name()], m)
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	var ifaceMethods []*types.Func
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				owners := ownersOf(p.Info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := p.Info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
						if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
							ifaceMethods = append(ifaceMethods, fn)
						}
					}
					if obj != nil && !owners[obj] {
						used[obj] = true
					}
					return true
				})
			}
		}
	}
	for _, p := range pkgs {
		for _, imp := range imported(p.Types) {
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							ifaceMethods = append(ifaceMethods, iface.Method(i))
						}
					}
				}
			}
		}
	}
	ifaceMethods = append(ifaceMethods, types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0))
	for _, im := range ifaceMethods {
		iface := im.Signature().Recv().Type().Underlying().(*types.Interface)
		for _, m := range methods[im.Name()] {
			recv := m.Signature().Recv().Type()
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				used[m] = true
			}
		}
	}

	var unused []string
	for obj, name := range exported {
		if used[obj] {
			continue
		}
		if allowed(name) {
			continue
		}
		unused = append(unused, name)
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but only tests reference it", name)
	}
}

// allowed reports whether name or one of its enclosing scopes (its type,
// its package directory) is on testOnlyAllowed.
func allowed(name string) bool {
	for {
		if _, ok := testOnlyAllowed[name]; ok {
			return true
		}
		i := strings.LastIndexAny(name, "./")
		if i < 0 {
			return false
		}
		name = name[:i]
	}
}

// ownersOf returns the objects whose own declaration decl is: a function
// or method (a recursive call is no use of it), a method's receiver type
// (a type's methods are no use of the type), or the types a type
// declaration declares.
func ownersOf(info *types.Info, decl ast.Decl) map[types.Object]bool {
	owners := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		fn := info.Defs[d.Name].(*types.Func)
		owners[fn] = true
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				owners[named.Obj()] = true
			}
		}
	case *ast.GenDecl:
		if d.Tok == token.TYPE {
			for _, spec := range d.Specs {
				owners[info.Defs[spec.(*ast.TypeSpec).Name]] = true
			}
		}
	}
	return owners
}

// imported returns every package outside the repository that pkg
// imports, directly or not.
func imported(pkg *types.Package) []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			if !strings.HasPrefix(imp.Path(), "corbalc") {
				out = append(out, imp)
			}
			walk(imp)
		}
	}
	walk(pkg)
	return out
}

// loadRepo type-checks every non-test package of the repository,
// benchmark/ included, through one loader: each package is loaded after
// the repository packages it imports and registered for the next, so an
// object is the same types.Object wherever it is used.
func loadRepo(t *testing.T) []*analysis.Package {
	t.Helper()
	loader := analysis.NewLoader()
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() {
			dirs[strings.TrimSuffix("corbalc/"+filepath.ToSlash(path), "/.")] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]*analysis.Package{}
	var pkgs []*analysis.Package
	var load func(path string)
	load = func(path string) {
		if _, ok := loaded[path]; ok {
			return
		}
		loaded[path] = nil
		bp, err := build.Default.ImportDir(dirs[path], 0)
		if _, ok := err.(*build.NoGoError); ok {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range bp.Imports {
			if _, ok := dirs[imp]; ok {
				load(imp)
			}
		}
		pkg, err := loader.LoadDir(dirs[path], path)
		if err != nil {
			t.Fatal(err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("%s: %v", path, terr)
		}
		loader.RegisterImport(path, pkg.Types)
		loaded[path] = pkg
		pkgs = append(pkgs, pkg)
	}
	paths := make([]string, 0, len(dirs))
	for path := range dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		load(path)
	}
	return pkgs
}
