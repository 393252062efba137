// Package lockdiscipline enforces the lock hygiene the paper's
// peer-to-peer services (Network Cohesion, Distributed Registry) depend
// on for soft consistency without stalls.
//
// Two invariants are checked for every sync.Mutex / sync.RWMutex
// acquisition:
//
//  1. A critical section that can return early must release its lock
//     with defer. Manual Unlock calls threaded through multiple return
//     paths are how the registry deadlocked in every CCM implementation
//     the paper surveys; the analyzer flags a Lock whose matching manual
//     Unlock span contains a return statement, and a Lock with no
//     matching Unlock in the same function at all.
//
//  2. No blocking operation while a lock is held: time.Sleep, net
//     dials/listens/accepts, sync.WaitGroup.Wait, bare channel sends and
//     receives (selects are exempt — they are assumed to carry timeout
//     arms), and ORB remote invocations (orb.ObjectRef.InvokeContext and
//     its oneway, existence and async forms, orb.Channel.Call/Send). A
//     node that blocks inside its registry lock stalls every peer that
//     gossips with it.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"corbalc/internal/analysis"
)

// Analyzer is the lockdiscipline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "check deferred-unlock discipline and forbid blocking calls under a held lock",
	Run:  run,
}

// lockKind distinguishes writer and reader acquisitions so Lock pairs
// with Unlock and RLock with RUnlock.
type lockKind int

const (
	writer lockKind = iota
	reader
)

func (k lockKind) acquire() string {
	if k == reader {
		return "RLock"
	}
	return "Lock"
}

func (k lockKind) release() string {
	if k == reader {
		return "RUnlock"
	}
	return "Unlock"
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, body := range functionBodies(file) {
			checkFunction(pass, body)
		}
	}
	return nil
}

// functionBodies returns the body of every function in the file:
// declarations and literals alike, each analyzed independently.
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				bodies = append(bodies, fn.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, fn.Body)
		}
		return true
	})
	return bodies
}

// lockOp is one Lock/Unlock-family call found in a function body.
type lockOp struct {
	stmt     ast.Stmt // enclosing ExprStmt or DeferStmt
	call     *ast.CallExpr
	recv     string // printed receiver expression, e.g. "n.mu"
	kind     lockKind
	acquire  bool // Lock/RLock vs Unlock/RUnlock
	deferred bool
}

func checkFunction(pass *analysis.Pass, body *ast.BlockStmt) {
	ops := collectLockOps(pass, body)
	var returns []token.Pos
	inspectShallow(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, r.Pos())
		}
		return true
	})

	for _, op := range ops {
		if !op.acquire || op.deferred {
			continue
		}
		// Releases between this acquire and the next acquire of the same
		// lock belong to this critical section (a branch may release on
		// several paths).
		nextAcquire := body.End()
		for _, other := range ops {
			if other.acquire && !other.deferred && other.kind == op.kind && other.recv == op.recv &&
				other.stmt.Pos() > op.stmt.End() && other.stmt.Pos() < nextAcquire {
				nextAcquire = other.stmt.Pos()
			}
		}
		hasDefer := false
		var manual []*lockOp
		for _, rel := range ops {
			if rel.acquire || rel.kind != op.kind || rel.recv != op.recv {
				continue
			}
			if rel.deferred {
				hasDefer = true
			} else if rel.stmt.Pos() > op.stmt.End() && rel.stmt.Pos() < nextAcquire {
				manual = append(manual, rel)
			}
		}

		// Invariant 1: release discipline.
		regionEnd := body.End()
		if !hasDefer {
			if len(manual) == 0 {
				pass.Reportf(op.call.Pos(),
					"%s.%s() is never released in this function; add defer %s.%s()",
					op.recv, op.kind.acquire(), op.recv, op.kind.release())
				continue
			}
			last := manual[len(manual)-1]
			nreturns := 0
			for _, rp := range returns {
				if rp > op.stmt.End() && rp < last.stmt.Pos() {
					nreturns++
				}
			}
			if nreturns > 0 {
				pass.Reportf(op.call.Pos(),
					"%s.%s() is released manually but the critical section has %d return path(s); use defer %s.%s()",
					op.recv, op.kind.acquire(), nreturns, op.recv, op.kind.release())
			}
			regionEnd = manual[0].stmt.Pos()
		}

		// Invariant 2: no blocking operation inside the critical section.
		checkBlocking(pass, body, op, op.stmt.End(), regionEnd)
	}
}

// collectLockOps gathers the Lock/Unlock-family calls on sync mutexes in
// body, not descending into nested function literals. Deferred closures
// are scanned so that `defer func() { mu.Unlock() }()` counts as a
// deferred release.
func collectLockOps(pass *analysis.Pass, body *ast.BlockStmt) []*lockOp {
	var ops []*lockOp
	addCall := func(stmt ast.Stmt, call *ast.CallExpr, deferred bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		name := sel.Sel.Name
		var kind lockKind
		var acquire bool
		switch name {
		case "Lock":
			kind, acquire = writer, true
		case "Unlock":
			kind, acquire = writer, false
		case "RLock":
			kind, acquire = reader, true
		case "RUnlock":
			kind, acquire = reader, false
		default:
			return
		}
		if !isSyncMethod(pass.TypesInfo, sel) {
			return
		}
		ops = append(ops, &lockOp{
			stmt: stmt, call: call,
			recv: types.ExprString(sel.X),
			kind: kind, acquire: acquire, deferred: deferred,
		})
	}
	inspectShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				addCall(s, call, false)
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						addCall(s, call, true)
					}
					return true
				})
				return false
			}
			addCall(s, s.Call, true)
		}
		return true
	})
	return ops
}

// isSyncMethod reports whether sel resolves to a method declared in
// package sync (covering sync.Mutex, sync.RWMutex and sync.Locker,
// including promoted embeds).
func isSyncMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil {
		return false
	}
	return f.Pkg().Path() == "sync"
}

// checkBlocking reports blocking operations positioned inside
// (start, end) in body, skipping nested function literals, go
// statements, defers and selects.
func checkBlocking(pass *analysis.Pass, body *ast.BlockStmt, op *lockOp, start, end token.Pos) {
	held := op.recv + "." + op.kind.acquire() + "()"
	inspectShallow(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt, *ast.DeferStmt, *ast.SelectStmt:
			return false
		}
		if n == nil || n.Pos() <= start || n.End() > end {
			return true
		}
		switch v := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(v.Pos(), "channel send while holding %s; release the lock first", held)
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				pass.Reportf(v.Pos(), "channel receive while holding %s; release the lock first", held)
			}
		case *ast.CallExpr:
			if desc := blockingCall(pass.TypesInfo, v); desc != "" {
				pass.Reportf(v.Pos(), "%s while holding %s; release the lock first", desc, held)
			}
		}
		return true
	})
}

// orbBlocking names the internal/orb methods that wait on a remote peer:
// the ObjectRef invocation forms and the Channel primitives under them.
var orbBlocking = map[string]bool{
	"InvokeContext": true, "InvokeOnewayContext": true, "InvokeOnewayScoped": true,
	"ExistsContext": true, "CallAsyncContext": true, "Call": true, "Send": true,
}

// blockingCall classifies call as a known-blocking operation, returning
// a description or "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	f := analysis.FuncOf(info, call)
	if f == nil || f.Pkg() == nil {
		return ""
	}
	pkg, name := f.Pkg().Path(), f.Name()
	sig := f.Type().(*types.Signature)
	switch {
	case pkg == "time" && name == "Sleep":
		return "call to time.Sleep"
	case pkg == "net" && (strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") || name == "Accept"):
		return "call to net." + name
	case pkg == "sync" && name == "Wait" && sig.Recv() != nil && !isCondRecv(sig):
		return "call to sync.WaitGroup.Wait"
	case strings.HasSuffix(pkg, "internal/orb") && sig.Recv() != nil && orbBlocking[name]:
		return "ORB invocation " + name
	}
	return ""
}

// isCondRecv reports whether the method receiver is *sync.Cond, whose
// Wait must be called with the lock held.
func isCondRecv(sig *types.Signature) bool {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Cond"
}

// inspectShallow walks n without descending into nested function
// literals (their bodies are analyzed as functions in their own right).
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return fn(n)
	})
}
