package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Batch is one analyzer's view of a whole Run invocation: every package
// in the batch flows through the analyzer's Run with the same Batch, so
// a whole-program analyzer (e.g. the locks analyzer's lock graph)
// can accumulate State per package and conclude in Finish once all
// packages have been seen.
type Batch struct {
	// State is analyzer-owned accumulator storage, nil until the
	// analyzer sets it.
	State any
	// Report delivers a batch-scoped diagnostic, subject to the same
	// //lint:ignore filtering as per-package reports. Set by the driver.
	Report func(Diagnostic)
}

// Run applies every analyzer to every package, filters findings through
// //lint:ignore directives, and returns the surviving diagnostics in
// file/line order. Analyzers with a Finish hook get it called once after
// the last package. Malformed directives (no analyzer name, or no
// reason) and directives naming an analyzer not in this run are
// reported under the pseudo-analyzer "directive".
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	known := map[string]bool{"all": true, "directive": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	ignores := ignoreSet{}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, collectDirectives(pkg, ignores, known)...)
	}
	report := func(a *Analyzer, fset *token.FileSet) func(Diagnostic) {
		return func(d Diagnostic) {
			if d.Analyzer == "" {
				d.Analyzer = a.Name
			}
			pos := fset.Position(d.Pos)
			if ignores.matches(pos.Filename, pos.Line, d.Analyzer) {
				return
			}
			diags = append(diags, d)
		}
	}
	for _, a := range analyzers {
		batch := &Batch{}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				PkgPath:   pkg.PkgPath,
				TypesInfo: pkg.Info,
				Batch:     batch,
			}
			pass.Report = report(a, pkg.Fset)
			batch.Report = pass.Report
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
		if a.Finish != nil && len(pkgs) > 0 {
			// Batch diagnostics position into the shared FileSet of the
			// last package (Load gives every package the same FileSet).
			batch.Report = report(a, pkgs[len(pkgs)-1].Fset)
			if err := a.Finish(batch); err != nil {
				diags = append(diags, Diagnostic{
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := i, j
		return comparePos(pkgsPosition(pkgs, diags[pi].Pos), pkgsPosition(pkgs, diags[pj].Pos)) < 0
	})
	return diags
}

func pkgsPosition(pkgs []*Package, pos token.Pos) token.Position {
	if len(pkgs) == 0 {
		return token.Position{}
	}
	return pkgs[0].Fset.Position(pos)
}

func comparePos(a, b token.Position) int {
	if a.Filename != b.Filename {
		return strings.Compare(a.Filename, b.Filename)
	}
	return a.Offset - b.Offset
}

// ignoreSet records //lint:ignore directives as (file, line) -> analyzer
// names. A directive suppresses findings on its own line and on the line
// directly below it, matching the usual staticcheck placement.
type ignoreSet map[string]map[int][]string

func (s ignoreSet) matches(file string, line int, analyzer string) bool {
	lines := s[file]
	for _, l := range []int{line, line - 1} {
		for _, name := range lines[l] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

func (s ignoreSet) add(file string, line int, analyzer string) {
	if s[file] == nil {
		s[file] = map[int][]string{}
	}
	s[file][line] = append(s[file][line], analyzer)
}

// collectDirectives scans a package's comments for lint:ignore
// directives, adding them to set and returning diagnostics for
// malformed ones: a missing analyzer name or reason, or a name not
// among the analyzers known to this run (a typo there would silently
// suppress nothing while looking audited).
func collectDirectives(pkg *Package, set ignoreSet, known map[string]bool) []Diagnostic {
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "directive",
						Message:  "malformed lint:ignore directive: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				if !known[fields[0]] {
					names := make([]string, 0, len(known))
					for name := range known {
						if name != "all" && name != "directive" {
							names = append(names, name)
						}
					}
					sort.Strings(names)
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "directive",
						Message: fmt.Sprintf("lint:ignore names unknown analyzer %q (known: %s)",
							fields[0], strings.Join(names, ", ")),
					})
					continue
				}
				set.add(pos.Filename, pos.Line, fields[0])
			}
		}
	}
	return bad
}

// InspectFiles walks every file in the pass with fn, in source order.
func InspectFiles(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Files {
		ast.Inspect(f, fn)
	}
}
