// Package analysis is a lightweight, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis API surface used by corbalc-lint.
//
// The container this repo builds in bakes the Go toolchain but no module
// cache, so the suite is built entirely on the standard library: packages
// are parsed with go/parser and type-checked with go/types using the
// stdlib source importer. The API mirrors x/tools (Analyzer, Pass,
// Diagnostic) closely enough that the analyzers could be ported to a real
// multichecker by swapping import paths.
//
// Suppression: a finding may be silenced with a directive comment on the
// flagged line or the line immediately above it:
//
//	//lint:ignore <analyzer-name> <reason>
//
// The name "all" suppresses every analyzer for that line. Directives with
// no reason are themselves reported, so suppressions stay accountable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid Go identifier.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to a single package.
	Run func(*Pass) error
	// Finish, if set, runs once per driver Run invocation after every
	// package has been analyzed. Whole-program analyzers accumulate
	// per-package facts in Pass.Batch.State and report their global
	// conclusions (e.g. lock-order cycles) here.
	Finish func(*Batch) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	// Batch is shared by every Pass of one analyzer across one driver
	// Run invocation; see Batch.
	Batch *Batch

	// Report delivers a diagnostic. Set by the driver.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is a single finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// FuncOf resolves the *types.Func a call expression invokes, or nil for
// calls through function-typed variables, conversions, and builtins.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
