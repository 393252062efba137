package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Fset    *token.FileSet
	Types   *types.Package
	Info    *types.Info
	// TypeErrors holds type-check problems. Analysis still runs (the
	// AST is intact) but the driver surfaces these as failures.
	TypeErrors []error
}

// Loader parses and type-checks packages with a shared FileSet and a
// shared (caching) stdlib source importer.
type Loader struct {
	Fset  *token.FileSet
	imp   types.Importer
	extra map[string]*types.Package
}

// NewLoader returns a Loader. Cgo is disabled in the build context so
// that stdlib packages with cgo variants (net, os/user) type-check from
// their pure-Go fallbacks.
func NewLoader() *Loader {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:  fset,
		imp:   importer.ForCompiler(fset, "source", nil),
		extra: map[string]*types.Package{},
	}
}

// RegisterImport makes subsequently loaded packages resolve imports of
// path to pkg instead of consulting the source importer. analysistest
// uses this so fixture packages can import one another (the fixtures
// live under testdata, outside any importable module).
func (l *Loader) RegisterImport(path string, pkg *types.Package) {
	if pkg != nil {
		l.extra[path] = pkg
	}
}

// overlayImporter consults a map of pre-loaded packages before falling
// back to the underlying (source) importer.
type overlayImporter struct {
	base  types.Importer
	extra map[string]*types.Package
}

func (o overlayImporter) Import(path string) (*types.Package, error) {
	if p, ok := o.extra[path]; ok {
		return p, nil
	}
	return o.base.Import(path)
}

func (o overlayImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := o.extra[path]; ok {
		return p, nil
	}
	if from, ok := o.base.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return o.base.Import(path)
}

// Load expands patterns (a directory, or a directory followed by "/...")
// relative to the current working directory and loads every Go package
// found, excluding test files and testdata/vendor/hidden directories.
func Load(patterns ...string) ([]*Package, error) {
	return NewLoader().Load(patterns...)
}

// Load implements the package-pattern loading described at Load.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	modRoot, modPath, err := findModule(".")
	if err != nil {
		return nil, err
	}
	dirs := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			dirs[abs] = true
			continue
		}
		walkErr := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if path != abs {
				// A nested module is not part of this one's "./...",
				// for this loader as for the go tool.
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			dirs[path] = true
			return nil
		})
		if walkErr != nil {
			return nil, walkErr
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	var pkgs []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: %s is outside module %s", dir, modRoot)
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, pkgPath)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, fmt.Errorf("analysis: %s: %w", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir, assigning it
// the given import path. Test files are excluded.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg := &Package{PkgPath: pkgPath, Dir: dir, Files: files, Fset: l.Fset}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: overlayImporter{base: l.imp, extra: l.extra},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(pkgPath, l.Fset, files, info)
	pkg.Info = info
	return pkg, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
	}
}
