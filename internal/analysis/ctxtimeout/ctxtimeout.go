// Package ctxtimeout flags network operations that can block forever.
//
// The paper's node model assumes peers fail: the Network Cohesion
// service notices a vanished node by timeout, never by waiting. A dial
// with no deadline turns one crashed peer into a wedged caller thread —
// and, combined with a held registry lock, into a wedged node. The
// analyzer flags:
//
//   - net.Dial / net.DialTCP / net.DialUDP / net.DialIP / net.DialUnix
//     (use net.DialTimeout or a net.Dialer with Timeout/Deadline);
//   - (net.Dialer).Dial on a Dialer literal with neither Timeout nor
//     Deadline set (use DialContext or set a bound);
//   - http.Get / Head / Post / PostForm, which use the deadline-free
//     http.DefaultClient.
//
// ORB invocations need no rule here: ObjectRef and dii.Object offer only
// context-taking forms, so the compiler already makes every call carry
// the caller's deadline and cancellation.
package ctxtimeout

import (
	"go/ast"
	"go/types"

	"corbalc/internal/analysis"
)

// Analyzer is the ctxtimeout analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxtimeout",
	Doc:  "flag network dials without a deadline or context",
	Run:  run,
}

// unboundedDials are the package-level net dial variants with no
// deadline parameter.
var unboundedDials = map[string]bool{
	"Dial": true, "DialIP": true, "DialTCP": true, "DialUDP": true, "DialUnix": true,
}

// defaultClientCalls are net/http helpers bound to the deadline-free
// DefaultClient.
var defaultClientCalls = map[string]bool{
	"Get": true, "Head": true, "Post": true, "PostForm": true,
}

func run(pass *analysis.Pass) error {
	analysis.InspectFiles(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := analysis.FuncOf(pass.TypesInfo, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		pkg, name := f.Pkg().Path(), f.Name()
		sig := f.Type().(*types.Signature)
		switch {
		case pkg == "net" && sig.Recv() == nil && unboundedDials[name]:
			pass.Reportf(call.Pos(),
				"net.%s has no deadline and can block forever on a dead peer; use net.DialTimeout or a net.Dialer with Timeout", name)
		case pkg == "net" && sig.Recv() != nil && name == "Dial" && isUnboundedDialerLit(call):
			pass.Reportf(call.Pos(),
				"net.Dialer literal has neither Timeout nor Deadline; set one or use DialContext")
		case pkg == "net/http" && sig.Recv() == nil && defaultClientCalls[name]:
			pass.Reportf(call.Pos(),
				"http.%s uses the deadline-free http.DefaultClient; use a Client with Timeout", name)
		}
		return true
	})
	return nil
}

// isUnboundedDialerLit reports whether the receiver of a Dialer.Dial
// call is a net.Dialer composite literal that sets neither Timeout nor
// Deadline. Dialers held in variables are assumed configured elsewhere.
func isUnboundedDialerLit(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := ast.Unparen(sel.X)
	if u, ok := recv.(*ast.UnaryExpr); ok {
		recv = ast.Unparen(u.X)
	}
	lit, ok := recv.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			// Positional Dialer literals set every field; treat as bounded.
			return false
		}
		if id, ok := kv.Key.(*ast.Ident); ok && (id.Name == "Timeout" || id.Name == "Deadline" || id.Name == "Cancel") {
			return false
		}
	}
	return true
}
