// Package poolreturn enforces the release-point invariant on the hot
// path's pooled resources (DESIGN.md §9).
//
// Buffers from internal/bufpool, encoders from cdr.GetEncoder /
// giop.GetBodyEncoder, messages from giop.NewMessage /
// giop.MessageFromEncoder / giop.ReadMessagePooled have exactly one
// owner, and that owner must either release the resource or hand
// ownership to someone who will. A function that acquires one and does
// neither leaks pool capacity silently: the program stays correct (the
// GC collects the buffer) but every such call site erodes the
// steady-state zero-allocation property the benchmarks gate.
//
// The analyzer is flow-insensitive and intraprocedural: within each
// function it flags an acquire call whose result sees neither
//
//   - a release — bufpool.Put(x) or x.Release() anywhere in the
//     function, including inside deferred calls and closures — nor
//   - an ownership transfer — x returned, passed as a call argument,
//     stored into a field/index/variable, placed in a composite
//     literal, sent on a channel, or its address taken.
//
// It cannot prove a release happens on every path; it catches the
// blunter bug of a pooled value that is acquired and then only ever
// read. Acquires whose result is discarded outright (an expression
// statement or an all-blank assignment) are flagged too. Legitimate
// leak-to-GC sites — the documented "when in doubt, do not double-Put"
// escape hatch — should carry //lint:ignore poolreturn <reason>.
package poolreturn

import (
	"go/ast"
	"go/types"
	"strings"

	"corbalc/internal/analysis"
)

// Analyzer is the poolreturn analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "poolreturn",
	Doc:  "require pooled buffers/encoders/messages to be released or ownership-transferred in the acquiring function",
	Run:  run,
}

// acquirers maps {package-path suffix, function name} of each pooled
// acquire function to what its caller must do with the result; every
// pooled value releases through its Release method (bufpool.Put is a
// call argument, so an ownership transfer). Matching is by path suffix
// so fixture stand-ins loaded as "internal/giop" hit the same code path
// as corbalc/internal/giop.
var acquirers = map[[2]string]string{
	{"internal/bufpool", "Get"}:             "return it with bufpool.Put",
	{"internal/cdr", "GetEncoder"}:          "call its Release method",
	{"internal/giop", "GetBodyEncoder"}:     "call Release, or hand it to giop.MessageFromEncoder",
	{"internal/giop", "NewMessage"}:         "call its Release method",
	{"internal/giop", "MessageFromEncoder"}: "call its Release method",
	{"internal/giop", "ReadMessagePooled"}:  "call its Release method",
	// The bounded-dispatch refusal path builds a pooled TRANSIENT reply
	// and hands its Header/Body to the write coalescer; field reads are
	// not a transfer, so the caller keeps the release obligation.
	{"internal/orb", "SystemExceptionReply"}: "call its Release method",
	// The web gateway's translation buffer wraps a pooled body buffer
	// and the decoded-argument scratch: one per HTTP request, released
	// when the response is written.
	{"internal/gateway", "GetTransBuf"}: "call its Release method",
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// checkFunc applies the invariant to one function body. Closures nested
// in the body are scanned as part of it, not separately: a goroutine
// that releases the value it captured satisfies the acquiring function.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	parents := parentMap(fn)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		suffix, name, obligation, ok := acquirerOf(pass.TypesInfo, call)
		if !ok {
			return true
		}
		qualified := lastSegment(suffix) + "." + name

		switch p := parentSkippingParens(parents, call).(type) {
		case *ast.AssignStmt:
			vars, dropped := boundVars(pass, p, call)
			if dropped {
				pass.Reportf(call.Pos(),
					"result of %s is discarded; %s or hand ownership off explicitly", qualified, obligation)
				return true
			}
			for _, v := range vars {
				if !hasReleaseOrTransfer(pass, fn, parents, v) {
					pass.Reportf(call.Pos(),
						"result of %s is neither released nor transferred in this function; %s on every path, or move ownership out (return/store/pass it)", qualified, obligation)
				}
			}
		case *ast.ValueSpec:
			for _, id := range p.Names {
				v := trackableObj(pass, id)
				if v == nil {
					continue
				}
				if !hasReleaseOrTransfer(pass, fn, parents, v) {
					pass.Reportf(call.Pos(),
						"result of %s is neither released nor transferred in this function; %s on every path, or move ownership out (return/store/pass it)", qualified, obligation)
				}
			}
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(),
				"result of %s is discarded; %s or hand ownership off explicitly", qualified, obligation)
		default:
			// The acquire feeds straight into a return, call argument,
			// composite literal, or channel send: ownership transfers
			// at the acquire site itself.
		}
		return true
	})
}

// acquirerOf reports whether call invokes one of the tracked pooled
// acquire functions (never a method).
func acquirerOf(info *types.Info, call *ast.CallExpr) (suffix, name, obligation string, ok bool) {
	f := analysis.FuncOf(info, call)
	if f == nil || f.Pkg() == nil || f.Type().(*types.Signature).Recv() != nil {
		return "", "", "", false
	}
	suffix, name = pathSuffix(f.Pkg().Path()), f.Name()
	obligation, ok = acquirers[[2]string{suffix, name}]
	return suffix, name, obligation, ok
}

// boundVars resolves the variables an assignment binds the acquire call
// to. dropped reports an assignment that discards the value entirely
// (every interesting position is blank). Error-typed results of tuple
// returns are not tracked; a non-identifier LHS (field, index) is an
// ownership transfer at the acquire site and yields no tracked vars.
func boundVars(pass *analysis.Pass, as *ast.AssignStmt, call *ast.CallExpr) (vars []*types.Var, dropped bool) {
	// Which RHS position is the call? With one RHS and several LHS the
	// call's tuple spreads over all of them.
	lhs := as.Lhs
	if len(as.Rhs) == len(as.Lhs) {
		for i, r := range as.Rhs {
			if ast.Unparen(r) == call {
				lhs = as.Lhs[i : i+1]
				break
			}
		}
	}
	sawValue := false
	for _, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			return nil, false // stored through a field/index: transferred
		}
		if v := trackableObj(pass, id); v != nil {
			vars = append(vars, v)
			sawValue = true
		} else if id.Name != "_" {
			sawValue = sawValue || !isErrorIdent(pass, id)
		}
	}
	return vars, !sawValue
}

// trackableObj returns the *types.Var an identifier denotes when it is
// worth tracking: a named local whose type is not error. Blank and
// error-position identifiers return nil.
func trackableObj(pass *analysis.Pass, id *ast.Ident) *types.Var {
	if id.Name == "_" {
		return nil
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || isErrorType(v.Type()) {
		return nil
	}
	return v
}

func isErrorIdent(pass *analysis.Pass, id *ast.Ident) bool {
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	return obj != nil && isErrorType(obj.Type())
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// hasReleaseOrTransfer scans every use of v in fn (closures included)
// and reports whether any of them releases the value (calls its Release
// method) or moves its ownership out of the function.
func hasReleaseOrTransfer(pass *analysis.Pass, fn *ast.FuncDecl, parents map[ast.Node]ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != v {
			return true
		}
		if releasesOrTransfers(pass, parents, id) {
			found = true
		}
		return true
	})
	return found
}

// releasesOrTransfers classifies one use of a tracked variable by its
// syntactic position.
func releasesOrTransfers(pass *analysis.Pass, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	switch p := parentSkippingParens(parents, id).(type) {
	case *ast.SelectorExpr:
		// x.Release() is a release; x.Field and other x.Method() calls
		// are reads that neither release nor move the value.
		if call, ok := parentSkippingParens(parents, p).(*ast.CallExpr); ok &&
			ast.Unparen(call.Fun) == p && p.Sel.Name == "Release" {
			return true
		}
		return false
	case *ast.CallExpr:
		// Appearing among a call's arguments hands the value to the
		// callee (bufpool.Put is simply the releasing special case).
		for _, a := range p.Args {
			if ast.Unparen(a) == id {
				return true
			}
		}
		return false
	case *ast.ReturnStmt:
		return true
	case *ast.AssignStmt:
		for _, r := range p.Rhs {
			if ast.Unparen(r) != id {
				continue
			}
			// Aliasing or storing the value moves ownership — unless
			// every destination is blank (`_ = x` is a pure read).
			for _, l := range p.Lhs {
				if lid, ok := ast.Unparen(l).(*ast.Ident); !ok || lid.Name != "_" {
					return true
				}
			}
		}
		return false
	case *ast.ValueSpec:
		for _, val := range p.Values {
			if ast.Unparen(val) == id {
				return true
			}
		}
		return false
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	case *ast.SendStmt:
		return ast.Unparen(p.Value) == id
	case *ast.UnaryExpr:
		return p.Op.String() == "&"
	}
	return false
}

// parentMap records each node's parent within fn.
func parentMap(fn *ast.FuncDecl) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// parentSkippingParens returns n's nearest non-paren ancestor.
func parentSkippingParens(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	p := parents[n]
	for {
		pe, ok := p.(*ast.ParenExpr)
		if !ok {
			return p
		}
		p = parents[pe]
	}
}

// pathSuffix normalises a package path to its trailing internal/<pkg>
// segment so real corbalc packages and fixture stand-ins compare equal.
func pathSuffix(pkg string) string {
	if i := strings.Index(pkg, "internal/"); i >= 0 {
		return pkg[i:]
	}
	return pkg
}

// lastSegment returns the final path element ("internal/bufpool" ->
// "bufpool") for compact diagnostics.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
