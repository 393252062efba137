// Package locks enforces the lock hygiene the paper's peer-to-peer
// services (Network Cohesion, Distributed Registry) depend on for soft
// consistency without stalls or deadlocks.
//
// Per function (Run), for every sync.Mutex / sync.RWMutex acquisition:
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
//
// Across every package of the run (Finish):
//
//  3. The lock-acquisition graph — "B acquired while A is held",
//     directly or through a synchronous call chain — has no cycle. A
//     deadlock needs two goroutines taking two locks in opposite orders,
//     which no single function (and often no single package) exhibits.
//     A lock is identified by its defining site: "pkgpath.Type.field"
//     for a mutex struct field, "pkgpath.Var" for a package-level mutex.
//     RLock orders like Lock: reader/writer pairs deadlock through writer
//     preference just like two writers. Each strongly connected set of
//     locks is reported once, as one cycle anchored at its earliest edge.
//
// All three share one critical-section rule. Releases pair with
// acquires by printed receiver ("n.mu") and mode. A section runs from
// the acquire to the end of the function when a deferred release pairs
// with it or nothing releases it at all, and otherwise to the first
// manual release before the same lock is next taken.
//
// Limitations, by design: locks held across goroutine boundaries are
// goroutinelifetime's problem (go statements are not synchronous calls);
// calls through interfaces and function values do not propagate (the
// callee is unknown statically); local mutexes that never leave a
// function cannot take part in a cross-function cycle and stay out of
// the graph.
package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"

	"corbalc/internal/analysis"
)

// Analyzer is the locks analyzer.
var Analyzer = &analysis.Analyzer{
	Name:   "locks",
	Doc:    "check deferred-unlock discipline, forbid blocking calls under a held lock, and report lock-order cycles (potential deadlocks)",
	Run:    run,
	Finish: finish,
}

// graph is the lock-graph accumulator shared by all packages of one run.
type graph struct {
	fset  *token.FileSet
	funcs map[string]*funcFacts // keyed by types.Func.FullName (or a synthetic literal key)
}

// funcFacts is what one function body contributes to the graph.
type funcFacts struct {
	acquires map[string]token.Pos // lock id -> first direct acquisition
	calls    map[string]token.Pos // callee full name -> first synchronous call
	regions  []region
}

// region is one critical section of an identifiable lock: the locks
// acquired and the functions called while it is held.
type region struct {
	lock            string
	acquires, calls []site
}

// site is a lock id or a callee name, and where it is taken or called.
type site struct {
	name string
	pos  token.Pos
}

func run(pass *analysis.Pass) error {
	g, _ := pass.Batch.State.(*graph)
	if g == nil {
		g = &graph{funcs: map[string]*funcFacts{}}
		pass.Batch.State = g
	}
	g.fset = pass.Fset // the loader shares one FileSet across packages

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				facts := checkFunction(pass, fn.Body)
				if f, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					g.funcs[f.FullName()] = facts
				}
			case *ast.FuncLit:
				// Literals cannot be called by name, so they never gain
				// acquisitions from propagation — but their own critical
				// sections still contribute edges.
				key := fmt.Sprintf("%s.func@%v", pass.PkgPath, pass.Fset.Position(fn.Pos()))
				g.funcs[key] = checkFunction(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// lockOp is one Lock/Unlock-family call on a sync mutex.
type lockOp struct {
	stmt     ast.Stmt // enclosing ExprStmt or DeferStmt
	call     *ast.CallExpr
	recv     string // printed receiver expression, e.g. "n.mu"
	id       string // defining site, "" for mutexes the graph cannot identify
	reader   bool   // RLock/RUnlock
	acquire  bool   // Lock/RLock vs Unlock/RUnlock
	deferred bool
}

var lockMethods = map[string]struct{ reader, acquire bool }{
	"Lock": {false, true}, "Unlock": {false, false},
	"RLock": {true, true}, "RUnlock": {true, false},
}

// pairs reports whether o acts on the same lock in the same mode as op.
func (op *lockOp) pairs(o *lockOp) bool { return o.reader == op.reader && o.recv == op.recv }

// names returns the acquire and release method names of op's mode.
func (op *lockOp) names() (string, string) {
	if op.reader {
		return "RLock", "RUnlock"
	}
	return "Lock", "Unlock"
}

// checkFunction reports body's per-function findings and returns its
// contribution to the lock graph. Nested function literals are excluded
// — they are functions in their own right.
func checkFunction(pass *analysis.Pass, body *ast.BlockStmt) *funcFacts {
	facts := &funcFacts{acquires: map[string]token.Pos{}, calls: map[string]token.Pos{}}
	collectCalls(pass, body, body.Pos(), body.End(), func(s site) {
		if _, seen := facts.calls[s.name]; !seen {
			facts.calls[s.name] = s.pos
		}
	})
	ops := collectOps(pass, body)
	for _, op := range ops {
		if !op.acquire {
			continue
		}
		if _, seen := facts.acquires[op.id]; op.id != "" && !seen {
			facts.acquires[op.id] = op.call.Pos()
		}
		if op.deferred {
			continue // a deferred acquire runs at return, outside any section here
		}
		start, end := op.stmt.End(), sectionEnd(pass, body, ops, op)
		checkBlocking(pass, body, op, start, end)
		if op.id == "" {
			continue
		}
		r := region{lock: op.id}
		for _, o := range ops {
			if o.acquire && o.id != "" && o.id != op.id && o.call.Pos() > start && o.call.Pos() < end {
				r.acquires = append(r.acquires, site{o.id, o.call.Pos()})
			}
		}
		collectCalls(pass, body, start, end, func(s site) { r.calls = append(r.calls, s) })
		facts.regions = append(facts.regions, r)
	}
	return facts
}

// sectionEnd returns where op's critical section ends and reports its
// release discipline. A deferred release holds the lock to the end of
// the function. Otherwise the releases before the lock is next taken
// belong to this section (a branch may release on several paths), the
// first of them ends it, and a return before the last must have used
// defer. A lock nothing releases is held to the end of the function.
func sectionEnd(pass *analysis.Pass, body *ast.BlockStmt, ops []*lockOp, op *lockOp) token.Pos {
	next := body.End()
	for _, o := range ops {
		if o.acquire && !o.deferred && op.pairs(o) && o.stmt.Pos() > op.stmt.End() && o.stmt.Pos() < next {
			next = o.stmt.Pos()
		}
	}
	var manual []token.Pos
	for _, o := range ops {
		if o.acquire || !op.pairs(o) {
			continue
		}
		if o.deferred {
			return body.End()
		}
		if o.stmt.Pos() > op.stmt.End() && o.stmt.Pos() < next {
			manual = append(manual, o.stmt.Pos())
		}
	}
	acquire, release := op.names()
	if len(manual) == 0 {
		pass.Reportf(op.call.Pos(), "%s.%s() is never released in this function; add defer %s.%s()",
			op.recv, acquire, op.recv, release)
		return body.End()
	}
	last, returns := manual[len(manual)-1], 0
	inspectShallow(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && r.Pos() > op.stmt.End() && r.Pos() < last {
			returns++
		}
		return true
	})
	if returns > 0 {
		pass.Reportf(op.call.Pos(),
			"%s.%s() is released manually but the critical section has %d return path(s); use defer %s.%s()",
			op.recv, acquire, returns, op.recv, release)
	}
	return manual[0]
}

// collectOps gathers the Lock/Unlock-family calls on sync mutexes
// (sync.Mutex, sync.RWMutex and sync.Locker, promoted embeds included)
// in body. Deferred closures are scanned so that
// `defer func() { mu.Unlock() }()` counts as a deferred release.
func collectOps(pass *analysis.Pass, body *ast.BlockStmt) []*lockOp {
	var ops []*lockOp
	add := func(stmt ast.Stmt, call *ast.CallExpr, deferred bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		m, ok := lockMethods[sel.Sel.Name]
		if !ok {
			return
		}
		if f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !ok || f.Pkg() == nil || f.Pkg().Path() != "sync" {
			return
		}
		ops = append(ops, &lockOp{
			stmt: stmt, call: call,
			recv: types.ExprString(sel.X), id: lockID(pass.TypesInfo, sel.X),
			reader: m.reader, acquire: m.acquire, deferred: deferred,
		})
	}
	inspectShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				add(s, call, false)
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						add(s, call, true)
					}
					return true
				})
				return false
			}
			add(s, s.Call, true)
		}
		return true
	})
	return ops
}

// lockID names the mutex behind expr by its defining site, or "" for
// mutexes the graph cannot identify (locals, embedded receivers).
func lockID(info *types.Info, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && !v.IsField() &&
			v.Parent() != nil && v.Parent().Parent() == types.Universe && v.Pkg() != nil {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[x].(*types.PkgName); isPkg {
				if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
				return ""
			}
		}
		v, ok := info.Uses[e.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return ""
		}
		tv, ok := info.Types[e.X]
		if !ok {
			return ""
		}
		t := tv.Type
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + v.Name()
		}
	}
	return ""
}

// checkBlocking reports blocking operations positioned inside
// (start, end) in body. Selects are exempt.
func checkBlocking(pass *analysis.Pass, body *ast.BlockStmt, op *lockOp, start, end token.Pos) {
	acquire, _ := op.names()
	held := op.recv + "." + acquire + "()"
	walkSection(body, start, end, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SelectStmt:
			return false
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
	"Call": true, "Send": true,
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

// collectCalls calls fn for every resolvable synchronous call inside
// (start, end) in body. sync and sync/atomic callees are left out: lock
// operations are ops, not calls.
func collectCalls(pass *analysis.Pass, body *ast.BlockStmt, start, end token.Pos, fn func(site)) {
	walkSection(body, start, end, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := analysis.FuncOf(pass.TypesInfo, call); f != nil && f.Pkg() != nil &&
			f.Pkg().Path() != "sync" && f.Pkg().Path() != "sync/atomic" {
			fn(site{f.FullName(), call.Pos()})
		}
		return true
	})
}

// walkSection calls fn, which reports whether to descend, for each node
// inside (start, end) in body that runs while the lock is held: go
// statements and defers are skipped, as are nested function literals.
func walkSection(body *ast.BlockStmt, start, end token.Pos, fn func(ast.Node) bool) {
	inspectShallow(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		}
		if n.Pos() <= start || n.End() > end {
			return true
		}
		return fn(n)
	})
}

// inspectShallow walks body without descending into nested function
// literals (their bodies are analyzed as functions in their own right).
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return n == nil || fn(n)
	})
}

// edge is the earliest witness of "to acquired while from is held".
type edge struct {
	pos token.Pos
	via string // callee chain head, "" for a direct acquisition
}

func finish(batch *analysis.Batch) error {
	g, _ := batch.State.(*graph)
	if g == nil {
		return nil
	}

	// Propagate acquisitions through the synchronous call graph.
	trans := map[string]map[string]bool{}
	for name, f := range g.funcs {
		trans[name] = map[string]bool{}
		for lock := range f.acquires {
			trans[name][lock] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for name, f := range g.funcs {
			for callee := range f.calls {
				for lock := range trans[callee] {
					if !trans[name][lock] {
						trans[name][lock] = true
						changed = true
					}
				}
			}
		}
	}

	// Materialize edges, keeping the earliest witness per pair.
	edges := map[string]map[string]edge{}
	addEdge := func(from, to string, pos token.Pos, via string) {
		if from == to {
			return
		}
		if edges[from] == nil {
			edges[from] = map[string]edge{}
		}
		if cur, ok := edges[from][to]; !ok || pos < cur.pos {
			edges[from][to] = edge{pos: pos, via: via}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(g.funcs)) {
		for _, r := range g.funcs[name].regions {
			for _, acq := range r.acquires {
				addEdge(r.lock, acq.name, acq.pos, "")
			}
			for _, c := range r.calls {
				for _, lock := range slices.Sorted(maps.Keys(trans[c.name])) {
					addEdge(r.lock, lock, c.pos, c.name)
				}
			}
		}
	}

	// Report each strongly connected component once, through its
	// smallest lock: locks are visited in sorted order, and every member
	// of a reported component is marked done.
	done := map[string]bool{}
	for _, start := range slices.Sorted(maps.Keys(edges)) {
		fwd := reachable(edges, start)
		if done[start] || !fwd[start] {
			continue
		}
		for n := range fwd {
			done[n] = done[n] || reachable(edges, n)[start]
		}
		reportCycle(batch, g.fset, edges, shortestCycle(edges, start))
	}
	return nil
}

// reachable returns every lock reachable from n by one or more edges.
func reachable(edges map[string]map[string]edge, n string) map[string]bool {
	seen := map[string]bool{}
	for stack := []string{n}; len(stack) > 0; {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for m := range edges[cur] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return seen
}

// shortestCycle returns a shortest cycle through start, [start, n1, ...,
// nk] with an edge from nk back to start, breaking ties by lock name;
// nil when start is on no cycle.
func shortestCycle(edges map[string]map[string]edge, start string) []string {
	prev := map[string]string{}
	for queue := []string{start}; len(queue) > 0; queue = queue[1:] {
		n := queue[0]
		for _, m := range slices.Sorted(maps.Keys(edges[n])) {
			if m == start {
				cycle := []string{n}
				for c := n; c != start; c = prev[c] {
					cycle = append(cycle, prev[c])
				}
				slices.Reverse(cycle)
				return cycle
			}
			if _, seen := prev[m]; !seen {
				prev[m] = n
				queue = append(queue, m)
			}
		}
	}
	return nil
}

// reportCycle emits one diagnostic for the cycle, anchored at its
// earliest edge, describing every hop.
func reportCycle(batch *analysis.Batch, fset *token.FileSet, edges map[string]map[string]edge, cycle []string) {
	ring := append(slices.Clone(cycle), cycle[0])
	minPos := token.NoPos
	var hops []string
	for i := range cycle {
		from, to := ring[i], ring[i+1]
		e := edges[from][to]
		if minPos == token.NoPos || e.pos < minPos {
			minPos = e.pos
		}
		hop := fmt.Sprintf("%s is held while %s is acquired at %v", from, to, fset.Position(e.pos))
		if e.via != "" {
			hop += " via " + e.via
		}
		hops = append(hops, hop)
	}
	batch.Report(analysis.Diagnostic{
		Pos: minPos,
		Message: fmt.Sprintf("lock-order cycle: %s — %s; acquire these locks in one global order",
			strings.Join(ring, " → "), strings.Join(hops, "; ")),
	})
}
