package corbalc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists exported functions under internal/ that may have
// no caller outside tests: whole packages that exist for tests (by
// directory), and paper features kept ahead of their first caller.
var testOnlyAllowed = map[string]bool{
	"internal/leak":                  true,
	"internal/analysis/analysistest": true,
	"internal/orb.WithGIOPVersion":   true,
	"internal/orb.WithByteOrder":     true,
	"internal/deploy.Replicate":      true,
}

// TestNoTestOnlyExports fails when an exported top-level function under
// internal/ is referenced by no non-test file in the repository,
// benchmark/ and examples/ included: tests drive the forms production
// runs, never a twin kept only for them. A reference counts only when it
// resolves to the function: pkg.Name through an import of its package,
// or a bare Name inside its own package (a method of the same name, a
// struct field or a recursive call does not).
func TestNoTestOnlyExports(t *testing.T) {
	const module = "corbalc/"
	fset := token.NewFileSet()
	exported := map[string]bool{} // "dir.Name"
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name -> repository directory
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, module) {
				continue
			}
			p = strings.TrimPrefix(p, module)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(dir, "internal/") {
				exported[dir+"."+fn.Name.Name] = true
			}
			self := ""
			if ok && fn.Recv == nil {
				self = fn.Name.Name
			}
			collectRefs(decl, dir, self, imports, used)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for name := range exported {
		if !used[name] && !testOnlyAllowed[name] && !testOnlyAllowed[name[:strings.LastIndex(name, ".")]] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but only tests reference it", name)
	}
}

// collectRefs records in used every "dir.Name" that decl refers to: a
// selector on an imported repository package, or a bare identifier of
// its own package other than a declared name, a selected field or
// method, a composite-literal key, or self.
func collectRefs(decl ast.Node, dir, self string, imports map[string]string, used map[string]bool) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					used[p+"."+n.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.FuncDecl:
			if n.Recv != nil {
				ast.Inspect(n.Recv, visit)
			}
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.Field:
			ast.Inspect(n.Type, visit)
			return false
		case *ast.KeyValueExpr:
			if _, ok := n.Key.(*ast.Ident); !ok {
				ast.Inspect(n.Key, visit)
			}
			ast.Inspect(n.Value, visit)
			return false
		case *ast.Ident:
			if n.Name != self {
				used[dir+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(decl, visit)
}
