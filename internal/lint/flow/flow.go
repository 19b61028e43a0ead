// Package flow is the SSA-lite intra-procedural dataflow layer beneath
// tdblint's hotpath-alloc rule. For one function body it builds
// per-variable def-use chains and a conservative escape lattice
//
//	Local ⊑ Passed ⊑ Heap
//
// over assignments, closures, channel sends, and interface conversions:
// Local means the value provably never leaves the function, Passed means
// it flows into a call whose callee is not analyzed (so it *may* be
// retained), and Heap means it is reachable after the function returns —
// returned, stored through a pointer or into a package-level variable,
// sent on a channel, captured by a closure, or boxed into an interface.
//
// The analysis is deliberately syntax-directed rather than a full
// points-to pass: it walks each function once to seed escape levels from
// the contexts a variable appears in, records value-flow edges from
// every assignment (x = y makes y at least as escaped as x), and
// propagates to a fixpoint. Everything unprovable escalates, never the
// other way, so a Local verdict is trustworthy — which is what the
// hotpath-alloc rule needs to declare an allocation stack-bound.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Escape is the lattice of escape verdicts, ordered Local < Passed < Heap.
type Escape uint8

const (
	// Local: the value provably never leaves the function.
	Local Escape = iota
	// Passed: the value flows into a call argument; the callee is not
	// analyzed, so it may be retained.
	Passed
	// Heap: the value is reachable after the function returns.
	Heap
)

// String names the verdict.
func (e Escape) String() string {
	switch e {
	case Local:
		return "local"
	case Passed:
		return "passed"
	}
	return "heap"
}

// Var is the def-use chain and escape verdict of one function-local
// variable (parameters included).
type Var struct {
	Obj *types.Var
	// Defs are the positions where the variable is declared or
	// reassigned, in source order; DefExprs holds the defining RHS
	// expression for each, or nil when the definition has no single
	// expression (tuple assignment, range clause, parameter).
	Defs     []token.Pos
	DefExprs []ast.Expr
	// Uses are the positions where the variable's value is read.
	Uses []token.Pos
	// Esc is the variable's escape verdict; Why and WhyPos document the
	// first (seeding) reason for a non-Local verdict.
	Esc    Escape
	Why    string
	WhyPos token.Pos
}

// Func is the dataflow summary of one function body.
type Func struct {
	Vars map[*types.Var]*Var

	info    *types.Info
	ftype   *ast.FuncType
	body    *ast.BlockStmt
	boxings []Boxing
}

// Boxing is one site where a concrete (non-interface) value converts to
// an interface type — an allocation on most paths, and the operation the
// hotpath-alloc rule bans from annotated loops.
type Boxing struct {
	Pos  token.Pos
	Expr ast.Expr
	From types.Type
	To   types.Type
}

// Analyze builds the dataflow summary of one function given its type and
// body (a *ast.FuncDecl's Type and Body, or a *ast.FuncLit's). info must
// cover the function's package.
func Analyze(info *types.Info, ftype *ast.FuncType, body *ast.BlockStmt) *Func {
	f := &Func{Vars: map[*types.Var]*Var{}, info: info, ftype: ftype, body: body}
	if body == nil {
		return f
	}
	a := &analysis{f: f, edges: map[*types.Var][]*types.Var{}}
	a.collectVars()
	a.walk()
	a.propagate()
	f.sortChains()
	return f
}

// Of returns the summary for obj, or nil for non-local objects.
func (f *Func) Of(obj *types.Var) *Var { return f.Vars[obj] }

// Escape returns the escape verdict for obj; unknown (non-local) objects
// conservatively report Heap.
func (f *Func) Escape(obj *types.Var) Escape {
	if v := f.Vars[obj]; v != nil {
		return v.Esc
	}
	return Heap
}

// Boxings returns every concrete-to-interface conversion site in the
// function, in source order.
func (f *Func) Boxings() []Boxing { return f.boxings }

func (f *Func) sortChains() {
	for _, v := range f.Vars {
		// Defs/DefExprs are appended in walk order, which is source
		// order already; Uses likewise. Sort anyway for determinism
		// against future walk changes.
		idx := make([]int, len(v.Defs))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool { return v.Defs[idx[i]] < v.Defs[idx[j]] })
		defs := make([]token.Pos, len(idx))
		exprs := make([]ast.Expr, len(idx))
		for i, k := range idx {
			defs[i], exprs[i] = v.Defs[k], v.DefExprs[k]
		}
		v.Defs, v.DefExprs = defs, exprs
		sort.Slice(v.Uses, func(i, j int) bool { return v.Uses[i] < v.Uses[j] })
	}
	sort.Slice(f.boxings, func(i, j int) bool { return f.boxings[i].Pos < f.boxings[j].Pos })
}

// analysis is the single-walk state.
type analysis struct {
	f *Func
	// edges records value flow dst <- srcs: when dst's verdict rises,
	// every src joins it (the value stored in dst is the value of src).
	edges map[*types.Var][]*types.Var
}

// localVar resolves an identifier to a function-local variable, or nil.
func (a *analysis) localVar(id *ast.Ident) *types.Var {
	obj := a.f.info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v == nil {
		return nil
	}
	if _, tracked := a.f.Vars[v]; tracked {
		return v
	}
	return nil
}

// collectVars registers every variable declared inside the function
// (parameters, named results, := definitions, var declarations, range
// variables), then records every read of a tracked variable as a use.
func (a *analysis) collectVars() {
	reg := func(id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		if v, ok := a.f.info.Defs[id].(*types.Var); ok && v != nil {
			if _, dup := a.f.Vars[v]; !dup {
				a.f.Vars[v] = &Var{Obj: v}
			}
		}
	}
	for _, fl := range fieldIdents(a.f.ftype) {
		reg(fl)
	}
	ast.Inspect(a.f.body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			reg(id)
		}
		return true
	})
	ast.Inspect(a.f.body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := a.f.info.Uses[id].(*types.Var); ok {
			if info := a.f.Vars[v]; info != nil {
				info.Uses = append(info.Uses, id.Pos())
			}
		}
		return true
	})
}

func fieldIdents(ft *ast.FuncType) []*ast.Ident {
	var out []*ast.Ident
	lists := []*ast.FieldList{ft.Params, ft.Results}
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			out = append(out, f.Names...)
		}
	}
	return out
}

// seed raises v's escape verdict to at least e, remembering the first
// reason.
func (a *analysis) seed(v *types.Var, e Escape, why string, pos token.Pos) {
	info := a.f.Vars[v]
	if info == nil || info.Esc >= e {
		return
	}
	info.Esc = e
	info.Why = why
	info.WhyPos = pos
}

// seedExpr seeds every local variable whose memory the value of expr may
// reference. A field or index read producing a pure value type copies the
// data out, so the base does not escape; taking an address (&x) always
// reaches the root variable.
func (a *analysis) seedExpr(expr ast.Expr, e Escape, why string, skipCallees bool) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if root := rootIdent(n.X); root != nil {
					if v := a.localVar(root); v != nil {
						a.seed(v, e, why, root.Pos())
					}
				}
			}
		case *ast.SelectorExpr:
			// A read like b.v of a non-reference type copies the value;
			// b's own memory stays put.
			if t := a.typeOf(n); t != nil && !refCarrying(t) {
				if sel, ok := a.f.info.Selections[n]; !ok || sel.Kind() == types.FieldVal {
					return false
				}
			}
		case *ast.IndexExpr:
			if t := a.typeOf(n); t != nil && !refCarrying(t) {
				// Still walk the index expression itself.
				a.seedExpr(n.Index, e, why, skipCallees)
				return false
			}
		case *ast.CallExpr:
			if skipCallees {
				// Nested calls get their own argument treatment in the
				// main walk; don't double-seed through them. Still look
				// at the callee expression (a method's receiver reads it).
				ast.Inspect(n.Fun, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if v := a.localVar(id); v != nil {
							a.seed(v, e, why, id.Pos())
						}
					}
					return true
				})
				return false
			}
		case *ast.Ident:
			if v := a.localVar(n); v != nil {
				a.seed(v, e, why, n.Pos())
			}
		}
		return true
	})
}

// edge records that the value of src flows into dst. Only
// reference-carrying flows matter: a destination of pure value type (an
// int counter, say) cannot retain any source's memory, and a pure-value
// source has no memory to retain — except through an explicit &x, which
// always aliases the root variable.
func (a *analysis) edge(dst *types.Var, srcExpr ast.Expr) {
	if srcExpr == nil || !refCarrying(dst.Type()) {
		return
	}
	add := func(src *types.Var) {
		if src != nil && src != dst {
			a.edges[dst] = append(a.edges[dst], src)
		}
	}
	ast.Inspect(srcExpr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if root := rootIdent(n.X); root != nil {
					add(a.localVar(root))
				}
			}
		case *ast.Ident:
			if src := a.localVar(n); src != nil && refCarrying(src.Type()) {
				add(src)
			}
		}
		return true
	})
}

// refCarrying reports whether values of t can reference heap memory —
// the types escape propagation cares about. Pure value types (numbers,
// booleans, structs and arrays of them) copy on assignment and carry
// nothing.
func refCarrying(t types.Type) bool { return refCarryingDepth(t, 0) }

func refCarryingDepth(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return true // unknown or deeply recursive: stay conservative
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0 || u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refCarryingDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return refCarryingDepth(u.Elem(), depth+1)
	default:
		// Pointers, slices, maps, chans, funcs, interfaces, tuples.
		return true
	}
}

// walk performs the single seeding pass over the body. Nested function
// literals are walked too (their returns resolve against their own
// signature), and any enclosing-function variable they reference is a
// closure capture — Heap.
func (a *analysis) walk() {
	a.walkBody(a.f.body, a.f.ftype)
}

func (a *analysis) walkBody(body *ast.BlockStmt, ftype *ast.FuncType) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			a.captureClosure(n)
			a.walkBody(n.Body, n.Type)
			return false // walked explicitly with the lit's signature
		case *ast.AssignStmt:
			a.assign(n)
		case *ast.GenDecl:
			a.genDecl(n)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				a.seedExpr(res, Heap, "returned", false)
			}
		case *ast.SendStmt:
			a.seedExpr(n.Value, Heap, "sent on a channel", false)
			a.noteBoxingTo(chanElem(a.typeOf(n.Chan)), n.Value)
		case *ast.GoStmt:
			a.callArgs(n.Call, Heap, "passed to a goroutine")
		case *ast.DeferStmt:
			a.callArgs(n.Call, Heap, "passed to a deferred call")
		case *ast.CallExpr:
			a.callArgs(n, Passed, "passed to a call")
		case *ast.RangeStmt:
			a.rangeDefs(n)
		case *ast.CompositeLit:
			a.compositeBoxings(n)
		}
		return true
	})
}

// captureClosure marks every variable of the enclosing function that the
// literal's body references as captured (Heap): the closure may outlive
// the frame, and a captured variable is heap-allocated by the compiler.
func (a *analysis) captureClosure(lit *ast.FuncLit) {
	own := map[types.Object]bool{}
	for _, id := range fieldIdents(lit.Type) {
		if obj := a.f.info.Defs[id]; obj != nil {
			own[obj] = true
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := a.f.info.Defs[id]; obj != nil {
			own[obj] = true // declared inside the literal
			return true
		}
		if v := a.localVar(id); v != nil && !own[v] {
			a.seed(v, Heap, "captured by a closure", id.Pos())
		}
		return true
	})
}

// assign processes one assignment statement: def-use bookkeeping, flow
// edges, sink classification of each left-hand side, and boxing checks.
func (a *analysis) assign(n *ast.AssignStmt) {
	paired := len(n.Lhs) == len(n.Rhs)
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		if paired {
			rhs = n.Rhs[i]
		}
		a.store(lhs, rhs, n.Tok == token.DEFINE)
	}
	if !paired {
		// Tuple assignment: every RHS var flows into every LHS sink.
		for _, lhs := range n.Lhs {
			for _, rhs := range n.Rhs {
				a.store(lhs, rhs, n.Tok == token.DEFINE)
			}
		}
	}
}

// store classifies one lhs ← rhs pair. define marks a := definition.
func (a *analysis) store(lhs, rhs ast.Expr, define bool) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if v := a.localVar(l); v != nil {
			info := a.f.Vars[v]
			info.Defs = append(info.Defs, l.Pos())
			info.DefExprs = append(info.DefExprs, rhs)
			a.edge(v, rhs)
			a.noteBoxingTo(a.typeOf(lhs), rhs)
			return
		}
		// Package-level variable: the stored value outlives the call.
		a.seedExpr(rhs, Heap, "assigned to a package-level variable", false)
		a.noteBoxingTo(a.typeOf(lhs), rhs)
	case *ast.SelectorExpr:
		// x.f = rhs: the value flows into x; if x is not a local
		// variable the store is to escaped memory.
		if base := rootIdent(l.X); base != nil {
			if v := a.localVar(base); v != nil {
				a.edge(v, rhs)
				a.noteBoxingTo(a.typeOf(lhs), rhs)
				return
			}
		}
		a.seedExpr(rhs, Heap, "stored into escaped memory", false)
		a.noteBoxingTo(a.typeOf(lhs), rhs)
	case *ast.IndexExpr:
		if base := rootIdent(l.X); base != nil {
			if v := a.localVar(base); v != nil {
				a.edge(v, rhs)
				a.edge(v, l.Index)
				a.noteBoxingTo(a.typeOf(lhs), rhs)
				return
			}
		}
		a.seedExpr(rhs, Heap, "stored into escaped memory", false)
		a.noteBoxingTo(a.typeOf(lhs), rhs)
	case *ast.StarExpr:
		a.seedExpr(rhs, Heap, "stored through a pointer", false)
		a.noteBoxingTo(a.typeOf(lhs), rhs)
	default:
		a.seedExpr(rhs, Heap, "stored into escaped memory", false)
	}
	_ = define
}

// genDecl handles `var x T = rhs` declarations inside the body.
func (a *analysis) genDecl(n *ast.GenDecl) {
	if n.Tok != token.VAR {
		return
	}
	for _, spec := range n.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if name.Name == "_" {
				continue
			}
			v, ok := a.f.info.Defs[name].(*types.Var)
			if !ok || a.f.Vars[v] == nil {
				continue
			}
			info := a.f.Vars[v]
			var rhs ast.Expr
			if i < len(vs.Values) && len(vs.Values) == len(vs.Names) {
				rhs = vs.Values[i]
			}
			info.Defs = append(info.Defs, name.Pos())
			info.DefExprs = append(info.DefExprs, rhs)
			if rhs != nil {
				a.edge(v, rhs)
				a.noteBoxingTo(v.Type(), rhs)
			}
		}
	}
}

// rangeDefs registers the key/value variables of a range clause.
func (a *analysis) rangeDefs(n *ast.RangeStmt) {
	for _, e := range []ast.Expr{n.Key, n.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if v := a.localVar(id); v != nil {
			info := a.f.Vars[v]
			info.Defs = append(info.Defs, id.Pos())
			info.DefExprs = append(info.DefExprs, nil)
			a.edge(v, n.X)
		}
	}
}

// callArgs seeds the arguments of a call and records boxing at interface
// parameters. Builtins that provably do not retain their operands are
// exempt; a conversion T(x) flows x onward rather than escaping it.
func (a *analysis) callArgs(call *ast.CallExpr, level Escape, why string) {
	fun := ast.Unparen(call.Fun)
	// Method value/selector bases: x.M(...) passes x too.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		a.seedExpr(sel.X, level, why, true)
	}
	tv, ok := a.f.info.Types[fun]
	if ok && tv.IsType() {
		// Conversion: the operand flows through unchanged; boxing only
		// when the target is an interface.
		for _, arg := range call.Args {
			a.noteBoxingTo(tv.Type, arg)
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := a.f.info.Uses[id].(*types.Builtin); isBuiltin {
			a.builtinArgs(id.Name, call, level, why)
			return
		}
	}
	sig, _ := a.typeOf(fun).(*types.Signature)
	for i, arg := range call.Args {
		a.seedExpr(arg, level, why, true)
		if sig != nil {
			a.noteBoxingTo(paramType(sig, i, call), arg)
		}
	}
}

// builtinArgs handles the builtins with known retention behavior.
func (a *analysis) builtinArgs(name string, call *ast.CallExpr, level Escape, why string) {
	switch name {
	case "len", "cap", "delete", "clear", "min", "max", "make", "new", "close", "real", "imag", "complex":
		// Provably no retention of the operand values.
	case "copy":
		if len(call.Args) == 2 {
			if base := rootIdent(call.Args[0]); base != nil {
				if v := a.localVar(base); v != nil {
					a.edge(v, call.Args[1])
					return
				}
			}
			a.seedExpr(call.Args[1], Heap, "copied into escaped memory", true)
		}
	case "append":
		// append(s, vs...): the values flow into the result slice; the
		// main assignment walk wires result → destination. Nothing to
		// seed here — an append whose result is discarded retains
		// nothing reachable.
	case "panic":
		a.seedExpr(call.Args[0], Heap, "passed to panic", true)
		if len(call.Args) == 1 {
			a.noteBoxingTo(types.NewInterfaceType(nil, nil), call.Args[0])
		}
	default:
		for _, arg := range call.Args {
			a.seedExpr(arg, level, why, true)
		}
	}
}

// propagate runs the worklist: a variable joins the verdict of every
// variable its value flowed into.
func (a *analysis) propagate() {
	for changed := true; changed; {
		changed = false
		for dst, srcs := range a.edges {
			dinfo := a.f.Vars[dst]
			if dinfo == nil || dinfo.Esc == Local {
				continue
			}
			for _, src := range srcs {
				sinfo := a.f.Vars[src]
				if sinfo != nil && sinfo.Esc < dinfo.Esc {
					sinfo.Esc = dinfo.Esc
					if sinfo.Why == "" {
						sinfo.Why = "flows into " + dst.Name() + " (" + dinfo.Why + ")"
						sinfo.WhyPos = dinfo.WhyPos
					}
					changed = true
				}
			}
		}
	}
}

// --- boxing detection ---

// noteBoxingTo records a boxing when expr (of concrete type) is placed
// into a destination of interface type.
func (a *analysis) noteBoxingTo(to types.Type, expr ast.Expr) {
	if to == nil || expr == nil {
		return
	}
	// A type parameter's underlying type is its constraint interface, but
	// instantiation substitutes a concrete type: no box happens at runtime
	// unless the constraint is the actual destination — which go/types
	// models as the TypeParam itself, so exclude it outright.
	if _, ok := to.(*types.TypeParam); ok {
		return
	}
	if !types.IsInterface(to.Underlying()) {
		return
	}
	from := a.typeOf(expr)
	if from == nil || types.IsInterface(from.Underlying()) {
		return
	}
	if _, ok := from.(*types.TypeParam); ok {
		return
	}
	if _, ok := from.(*types.Tuple); ok {
		return // multi-value RHS: assignment pairing, not a conversion
	}
	if b, ok := from.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 && b.Kind() != types.UntypedString && b.Kind() != types.UntypedInt && b.Kind() != types.UntypedFloat && b.Kind() != types.UntypedBool && b.Kind() != types.UntypedRune {
		return // untyped nil and friends
	}
	a.f.boxings = append(a.f.boxings, Boxing{
		Pos: expr.Pos(), Expr: expr, From: from, To: to,
	})
}

// compositeBoxings records boxings of composite-literal elements whose
// field/element type is an interface.
func (a *analysis) compositeBoxings(lit *ast.CompositeLit) {
	t := a.typeOf(lit)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		for _, el := range lit.Elts {
			a.noteBoxingTo(u.Elem(), elValue(el))
		}
	case *types.Array:
		for _, el := range lit.Elts {
			a.noteBoxingTo(u.Elem(), elValue(el))
		}
	case *types.Map:
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				a.noteBoxingTo(u.Key(), kv.Key)
				a.noteBoxingTo(u.Elem(), kv.Value)
			}
		}
	case *types.Struct:
		for i, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					if f := structField(u, id.Name); f != nil {
						a.noteBoxingTo(f.Type(), kv.Value)
					}
				}
				continue
			}
			if i < u.NumFields() {
				a.noteBoxingTo(u.Field(i).Type(), el)
			}
		}
	}
}

func elValue(el ast.Expr) ast.Expr {
	if kv, ok := el.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return el
}

func structField(s *types.Struct, name string) *types.Var {
	for i := 0; i < s.NumFields(); i++ {
		if s.Field(i).Name() == name {
			return s.Field(i)
		}
	}
	return nil
}

// --- small helpers ---

func (a *analysis) typeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	if tv, ok := a.f.info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := a.f.info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// paramType resolves the declared type of argument i of a call against
// sig, unfolding the variadic tail (f(args...) spreads excepted).
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	n := sig.Params().Len()
	if sig.Variadic() {
		if call.Ellipsis.IsValid() {
			if i < n {
				return sig.Params().At(i).Type()
			}
			return nil
		}
		if i >= n-1 {
			last := sig.Params().At(n - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				return sl.Elem()
			}
			return last
		}
		return sig.Params().At(i).Type()
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

func chanElem(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ch, ok := t.Underlying().(*types.Chan); ok {
		return ch.Elem()
	}
	return nil
}

// rootIdent returns the leftmost identifier of a selector/index/star
// chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
