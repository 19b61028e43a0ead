package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockOrderAnalyzer derives a lock-ordering graph over the mutexes of the
// concurrent subsystems — the storage buffer pool, the observability
// registry and tracer, the query server (its catalog lock, sessions, dedup
// window and admission), the engine's relation index, the failpoint
// registry and the driver's retry state — and reports two deadlock
// shapes: a cycle in the acquired-while-holding relation (two goroutines
// taking the same pair of locks in opposite orders can deadlock), and a
// channel operation performed while a mutex is held (the peer of that
// channel may need the same mutex to make progress; close is exempt, it
// never blocks).
//
// Each function is scanned linearly with a conservative held-set: Lock and
// RLock acquire, Unlock and RUnlock release, a deferred unlock holds to
// the end of the function, and a function literal starts a fresh context
// (it runs on its own goroutine or after the frame unwinds). Locks are
// identified structurally — package, receiver type, and field — so every
// instance of a type shares one node, which is exactly the granularity a
// lock *ordering* is declared at. Same-package calls are expanded one
// level deep through per-function acquisition summaries; cycle detection
// runs in the finish phase over edge facts from every package.
var lockOrderAnalyzer = &Analyzer{
	Name: "lock-order",
	Doc:  "mutex acquisition graph must stay acyclic; no channel ops under a held mutex",
	Run: func(pass *Pass) {
		p := pass.Pkg
		if !inScope(p, "internal/storage", "internal/obs", "internal/server", "internal/engine",
			"internal/fault", "driver") {
			return
		}
		summaries := lockSummaries(p)
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				s := &lockScan{pass: pass, p: p, summaries: summaries}
				s.block(fd.Body.List, nil)
			}
		}
	},
	Finish: lockOrderFinish,
}

// lockEdge is the exported fact "from was held when to was acquired".
type lockEdge struct {
	From, To string
	Pos      token.Pos
}

// lockID names a mutex structurally: pkg.Type.field for a mutex field,
// pkg.var for a package-level mutex, pkg.func.name for a function-local
// one.
func lockID(p *Package, expr ast.Expr) string {
	expr = ast.Unparen(expr)
	if sel, ok := expr.(*ast.SelectorExpr); ok {
		// x.mu / x.y.mu: identify by the type owning the field.
		if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			owner := s.Recv()
			for {
				ptr, ok := owner.(*types.Pointer)
				if !ok {
					break
				}
				owner = ptr.Elem()
			}
			return types.TypeString(owner, nil) + "." + sel.Sel.Name
		}
		// pkg.Var selector.
		if obj, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj, ok := p.Info.Uses[id].(*types.Var); ok && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return obj.Pkg().Path() + ".(local)." + obj.Name()
		}
	}
	return ""
}

// mutexOp classifies a call: the lock it addresses plus whether it
// acquires (Lock/RLock/TryLock) or releases (Unlock/RUnlock).
func mutexOp(p *Package, call *ast.CallExpr) (lock string, acquire, release bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return lockID(p, sel.X), true, false
	case "Unlock", "RUnlock":
		return lockID(p, sel.X), false, true
	}
	return "", false, false
}

// lockSummaries builds the one-level call expansion: for every function
// declared in the package, the set of locks its body acquires directly
// (function literals excluded — they run in their own context).
func lockSummaries(p *Package) map[types.Object][]string {
	out := map[types.Object][]string{}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := p.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			var acquired []string
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if lock, acq, _ := mutexOp(p, call); acq && lock != "" {
						acquired = append(acquired, lock)
					}
				}
				return true
			})
			out[obj] = acquired
		}
	}
	return out
}

// lockScan is the linear held-set walk over one function body.
type lockScan struct {
	pass      *Pass
	p         *Package
	summaries map[types.Object][]string
}

// heldLock is one entry of the held set; deferred unlocks pin it to the
// end of the function.
type heldLock struct {
	id       string
	deferred bool
}

// block scans a statement list in order. held is the set on entry; the
// returned set reflects acquisitions and releases at this nesting level.
// Branch bodies are scanned with a copy — locks acquired inside a branch
// are conservatively assumed released at its end (an imbalanced branch is
// a bug the scan cannot model without path analysis).
func (s *lockScan) block(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, st := range stmts {
		held = s.stmt(st, held)
	}
	return held
}

func (s *lockScan) stmt(st ast.Stmt, held []heldLock) []heldLock {
	switch st := st.(type) {
	case *ast.ExprStmt:
		return s.expr(st.X, held)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			held = s.expr(rhs, held)
		}
		return held
	case *ast.DeferStmt:
		if lock, _, rel := mutexOp(s.p, st.Call); rel && lock != "" {
			for i := range held {
				if held[i].id == lock {
					held[i].deferred = true
				}
			}
			return held
		}
		s.scanFuncLitArgs(st.Call)
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.freshContext(lit)
		}
		return held
	case *ast.GoStmt:
		s.scanFuncLitArgs(st.Call)
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.freshContext(lit)
		}
		return held
	case *ast.SendStmt:
		s.chanOp(st.Pos(), "send", held)
		return held
	case *ast.SelectStmt:
		s.chanOp(st.Pos(), "select", held)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				s.block(cc.Body, append([]heldLock{}, held...))
			}
		}
		return held
	case *ast.BlockStmt:
		return s.block(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		held = s.expr(st.Cond, held)
		s.block(st.Body.List, append([]heldLock{}, held...))
		if st.Else != nil {
			s.stmt(st.Else, append([]heldLock{}, held...))
		}
		return held
	case *ast.ForStmt:
		s.block(st.Body.List, append([]heldLock{}, held...))
		return held
	case *ast.RangeStmt:
		held = s.expr(st.X, held)
		s.block(st.Body.List, append([]heldLock{}, held...))
		return held
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		if sw, ok := st.(*ast.SwitchStmt); ok {
			body = sw.Body
		} else {
			body = st.(*ast.TypeSwitchStmt).Body
		}
		for _, cl := range body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				s.block(cc.Body, append([]heldLock{}, held...))
			}
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			held = s.expr(r, held)
		}
		return held
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt, *ast.LabeledStmt:
		if l, ok := st.(*ast.LabeledStmt); ok {
			return s.stmt(l.Stmt, held)
		}
		return held
	}
	return held
}

// expr scans one expression for mutex operations, channel receives, and
// nested function literals.
func (s *lockScan) expr(e ast.Expr, held []heldLock) []heldLock {
	if e == nil {
		return held
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if lock, acq, rel := mutexOp(s.p, e); lock != "" {
			if acq {
				for _, h := range held {
					if h.id == lock {
						continue // re-entrant RLock of the same lock: not an ordering edge
					}
					s.pass.ExportFact(lockEdge{From: h.id, To: lock, Pos: e.Pos()})
				}
				return append(held, heldLock{id: lock})
			}
			if rel {
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].id == lock && !held[i].deferred {
						return append(append([]heldLock{}, held[:i]...), held[i+1:]...)
					}
				}
				return held
			}
		}
		// close never blocks; other builtin calls carry no channel ops.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := s.p.Info.Uses[id].(*types.Builtin); isBuiltin {
				for _, arg := range e.Args {
					held = s.expr(arg, held)
				}
				return held
			}
		}
		// One-level same-package expansion: the callee's own
		// acquisitions happen while our held set is in force.
		if callee := calleeObject(s.p, e); callee != nil {
			if acq, ok := s.summaries[callee]; ok {
				for _, lock := range acq {
					for _, h := range held {
						if h.id != lock {
							s.pass.ExportFact(lockEdge{From: h.id, To: lock, Pos: e.Pos()})
						}
					}
				}
			}
		}
		for _, arg := range e.Args {
			held = s.expr(arg, held)
		}
		s.scanFuncLitArgs(e)
		return held
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			s.chanOp(e.Pos(), "receive", held)
		}
		return s.expr(e.X, held)
	case *ast.BinaryExpr:
		held = s.expr(e.X, held)
		return s.expr(e.Y, held)
	case *ast.FuncLit:
		s.freshContext(e)
		return held
	}
	return held
}

// chanOp reports a blocking channel operation under every held lock.
func (s *lockScan) chanOp(pos token.Pos, kind string, held []heldLock) {
	for _, h := range held {
		s.pass.Reportf(pos, "channel %s while holding %s; the peer may need the same lock (deadlock risk)", kind, h.id)
	}
}

// scanFuncLitArgs walks function literals passed as call arguments in a
// fresh context (callbacks typically run later or elsewhere).
func (s *lockScan) scanFuncLitArgs(call *ast.CallExpr) {
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			s.freshContext(lit)
		}
	}
}

// freshContext scans a function literal body with an empty held set.
func (s *lockScan) freshContext(lit *ast.FuncLit) {
	if lit.Body != nil {
		s.block(lit.Body.List, nil)
	}
}

// calleeObject resolves a call to a function object declared in the same
// package, or nil.
func calleeObject(p *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok && fn.Pkg() == p.Types {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() == p.Types {
			return fn
		}
	}
	return nil
}

// lockOrderFinish assembles the module-wide acquisition graph from the
// edge facts and reports every strongly connected component with a cycle.
func lockOrderFinish(pass *FinishPass) {
	type edge struct {
		to  string
		pos token.Pos
	}
	adj := map[string][]edge{}
	var nodes []string
	seen := map[string]bool{}
	note := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for _, f := range pass.Facts() {
		e, ok := f.Value.(lockEdge)
		if !ok {
			continue
		}
		note(e.From)
		note(e.To)
		adj[e.From] = append(adj[e.From], edge{to: e.To, pos: e.Pos})
	}
	sort.Strings(nodes)

	// Tarjan's SCC. Any component with more than one node — or a
	// self-edge — contains a cycle.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 1
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			if index[e.to] == 0 {
				strongconnect(e.to)
				if low[e.to] < low[v] {
					low[v] = low[e.to]
				}
			} else if onStack[e.to] && index[e.to] < low[v] {
				low[v] = index[e.to]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, n := range nodes {
		if index[n] == 0 {
			strongconnect(n)
		}
	}

	for _, comp := range sccs {
		cyclic := len(comp) > 1
		if !cyclic {
			for _, e := range adj[comp[0]] {
				if e.to == comp[0] {
					cyclic = true
					break
				}
			}
		}
		if !cyclic {
			continue
		}
		sort.Strings(comp)
		inComp := map[string]bool{}
		for _, n := range comp {
			inComp[n] = true
		}
		// Anchor the report at the earliest edge inside the component.
		pos := token.NoPos
		for _, n := range comp {
			for _, e := range adj[n] {
				if inComp[e.to] && (pos == token.NoPos || e.pos < pos) {
					pos = e.pos
				}
			}
		}
		pass.Reportf(pos, "lock-order cycle among %s: opposite acquisition orders can deadlock", strings.Join(comp, ", "))
	}
}
