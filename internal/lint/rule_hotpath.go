package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathMarker is the annotation that opts a function or loop into
// allocation auditing. It must sit on the line directly above the `func`
// or `for` keyword (the last line of a doc comment works), or trail the
// same line.
const hotpathMarker = "tdb:hotpath"

// hotpathAllocAnalyzer keeps the per-tuple kernels allocation-free:
// inside a region annotated //tdb:hotpath it reports heap allocations
// (make without capacity, new, address-taken or reference-typed composite
// literals), interface boxing, append calls that may grow their
// destination, map inserts, and function literals (whose captures
// escape). Error paths — if-bodies ending in a return — are exempt, as
// is an append whose destination is pre-sized (a variable of the
// enclosing function defined by a make with explicit capacity, or by a
// reused s[:k] slice). Both facts are read from the region's syntax and
// go/types; no escape proof is attempted, so a new or &T{} the compiler
// would keep on the stack still needs a lint:allow justification.
var hotpathAllocAnalyzer = &Analyzer{
	Name: "hotpath-alloc",
	Doc:  "//tdb:hotpath regions must not allocate, box, or grow per iteration",
	Run: func(pass *Pass) {
		p := pass.Pkg
		for _, file := range p.Files {
			hot := hotpathLines(p.Fset, file)
			if len(hot) == 0 {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for _, reg := range hotRegions(p.Fset, fd, hot) {
					checkHotRegion(pass, reg)
				}
			}
		}
	},
}

// hotpathLines returns the set of lines in file carrying a //tdb:hotpath
// marker.
func hotpathLines(fset *token.FileSet, file *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			// Directive style only (`//tdb:hotpath`, no space): a prose
			// mention of the marker inside a doc comment must not
			// annotate the declaration below it.
			if strings.HasPrefix(c.Text, "//"+hotpathMarker) {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// hotRegion is one annotated area: the statement block to audit plus the
// enclosing function (a *ast.FuncDecl or *ast.FuncLit) whose variable
// definitions decide which appends are pre-sized.
type hotRegion struct {
	fn     ast.Node
	region ast.Node
}

// hotRegions finds the annotated regions of one function declaration: the
// whole body when the declaration itself is annotated, otherwise each
// annotated for/range statement (resolved against its nearest enclosing
// function literal, if any).
func hotRegions(fset *token.FileSet, fd *ast.FuncDecl, hot map[int]bool) []hotRegion {
	marked := func(pos token.Pos) bool {
		line := fset.Position(pos).Line
		return hot[line] || hot[line-1]
	}
	if marked(fd.Pos()) {
		return []hotRegion{{fn: fd, region: fd.Body}}
	}
	var out []hotRegion
	stack := []ast.Node{fd}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			var body *ast.BlockStmt
			switch m := m.(type) {
			case *ast.FuncLit:
				stack = append(stack, m)
				walk(m.Body)
				stack = stack[:len(stack)-1]
				return false
			case *ast.ForStmt:
				body = m.Body
			case *ast.RangeStmt:
				body = m.Body
			}
			if body != nil && marked(m.Pos()) {
				out = append(out, hotRegion{fn: stack[len(stack)-1], region: body})
				return false // the annotation covers nested loops too
			}
			return true
		})
	}
	walk(fd.Body)
	return out
}

// checkHotRegion audits one annotated region.
func checkHotRegion(pass *Pass, reg hotRegion) {
	p := pass.Pkg
	region := reg.region
	// Ranges excluded from auditing: error paths (if-bodies ending in a
	// return) and nested function literal bodies (flagged as a whole at
	// their position instead).
	var skipped []ast.Node
	ast.Inspect(region, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if isErrorPathIf(n) {
				skipped = append(skipped, n.Body)
				// The condition and else branch stay audited.
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hot path allocates a function literal per iteration; hoist it outside the region")
			skipped = append(skipped, n.Body)
			return false
		}
		return true
	})
	inSkipped := func(pos token.Pos) bool {
		for _, s := range skipped {
			if pos >= s.Pos() && pos < s.End() {
				return true
			}
		}
		return false
	}
	active := func(pos token.Pos) bool {
		return pos >= region.Pos() && pos < region.End() && !inSkipped(pos)
	}
	box := func(to types.Type, e ast.Expr) {
		if from := boxing(p.Info, to, e); from != nil && active(e.Pos()) {
			q := types.RelativeTo(p.Types)
			pass.Reportf(e.Pos(), "hot path boxes %s into %s", types.TypeString(from, q), types.TypeString(to, q))
		}
	}
	sized := presized(p.Info, reg.fn)

	ast.Inspect(region, func(n ast.Node) bool {
		if n == nil || !active(n.Pos()) {
			// Still descend: a skipped if-body is contiguous, but the
			// statements after it in the same block are active again.
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, sized, n)
			callBoxings(p.Info, n, box)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "hot path heap-allocates a composite literal (address taken)")
				}
			}
		case *ast.CompositeLit:
			t := p.Info.Types[n].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "hot path allocates a slice literal per iteration")
			case *types.Map:
				pass.Reportf(n.Pos(), "hot path allocates a map literal per iteration")
			}
			compositeBoxings(t, n, box)
		case *ast.SendStmt:
			if ch, ok := underOf(p.Info, n.Chan).(*types.Chan); ok {
				box(ch.Elem(), n.Value)
			}
		case *ast.ValueSpec:
			if len(n.Values) == len(n.Names) {
				for i, name := range n.Names {
					box(typeOf(p.Info, name), n.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if len(n.Rhs) == len(n.Lhs) {
					box(typeOf(p.Info, lhs), n.Rhs[i])
				}
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				if t := p.Info.Types[ix.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(lhs.Pos(), "hot path inserts into a map (possible rehash and growth)")
					}
				}
			}
		}
		return true
	})
}

// checkHotCall audits one call expression inside a hot region: make/new
// allocations and append growth. sized holds the pre-sized variables.
func checkHotCall(pass *Pass, sized map[*types.Var]bool, call *ast.CallExpr) {
	p := pass.Pkg
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	switch id.Name {
	case "make":
		if len(call.Args) == 0 {
			return
		}
		t := p.Info.Types[call.Args[0]].Type
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			if len(call.Args) < 3 {
				pass.Reportf(call.Pos(), "hot path makes a slice without capacity; pre-size it outside the region")
			}
			// make with explicit capacity is a deliberate pre-size.
		case *types.Map:
			pass.Reportf(call.Pos(), "hot path allocates a map per iteration")
		case *types.Chan:
			pass.Reportf(call.Pos(), "hot path allocates a channel per iteration")
		}
	case "new":
		pass.Reportf(call.Pos(), "hot path heap-allocates with new")
	case "append":
		if len(call.Args) == 0 {
			return
		}
		dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			pass.Reportf(call.Pos(), "hot path append may grow its destination; pre-size it or reuse a [:0] slice")
			return
		}
		if v, _ := p.Info.ObjectOf(dst).(*types.Var); v == nil || !sized[v] {
			pass.Reportf(call.Pos(), "hot path append to %s may grow; pre-size it with make(len, cap) or reuse a [:0] slice", dst.Name)
		}
	}
}

// isErrorPathIf reports whether the if statement is an error path: its
// body's last statement is a return.
func isErrorPathIf(n *ast.IfStmt) bool {
	if n.Body == nil || len(n.Body.List) == 0 {
		return false
	}
	_, ok := n.Body.List[len(n.Body.List)-1].(*ast.ReturnStmt)
	return ok
}

// boxing returns the concrete type of e when placing e into a destination
// of type to converts it to an interface, and nil otherwise. Type
// parameters (instantiation substitutes a concrete type), tuples (a
// multi-value right-hand side), untyped nil and interface-to-interface
// moves are not boxings.
func boxing(info *types.Info, to types.Type, e ast.Expr) types.Type {
	if to == nil || !types.IsInterface(to) {
		return nil
	}
	if _, ok := to.(*types.TypeParam); ok {
		return nil
	}
	from := typeOf(info, e)
	if from == nil || types.IsInterface(from) || from == types.Typ[types.UntypedNil] {
		return nil // types.IsInterface holds for type parameters too
	}
	if _, tuple := from.(*types.Tuple); tuple {
		return nil
	}
	return from
}

// callBoxings feeds box the interface conversions of one call: each
// argument at an interface parameter (the variadic tail unfolded, an
// f(xs...) spread excepted), the operand of a conversion I(v), and the
// operand of panic.
func callBoxings(info *types.Info, call *ast.CallExpr, box func(types.Type, ast.Expr)) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			box(tv.Type, arg)
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "panic" && len(call.Args) == 1 {
				box(types.NewInterfaceType(nil, nil), call.Args[0])
			}
			return
		}
	}
	sig, ok := underOf(info, fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		switch {
		case sig.Variadic() && !call.Ellipsis.IsValid() && i >= params.Len()-1:
			box(params.At(params.Len()-1).Type().(*types.Slice).Elem(), arg)
		case i < params.Len():
			box(params.At(i).Type(), arg)
		}
	}
}

// compositeBoxings feeds box the interface conversions of a composite
// literal of type t: elements, map keys and values, and struct fields.
func compositeBoxings(t types.Type, lit *ast.CompositeLit, box func(types.Type, ast.Expr)) {
	for i, el := range lit.Elts {
		var key *ast.Ident // a struct literal's field name
		val := el
		kv, keyed := el.(*ast.KeyValueExpr)
		if keyed {
			key, _ = kv.Key.(*ast.Ident)
			val = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
			box(u.Elem(), val)
		case *types.Array:
			box(u.Elem(), val)
		case *types.Map:
			if keyed {
				box(u.Key(), kv.Key)
				box(u.Elem(), val)
			}
		case *types.Struct:
			for j := 0; j < u.NumFields(); j++ {
				if f := u.Field(j); keyed && key != nil && key.Name == f.Name() || !keyed && j == i {
					box(f.Type(), val)
				}
			}
		}
	}
}

// presized returns the variables declared in fn whose backing capacity
// some definition in fn reserves ahead of use: a make with explicit
// capacity, or a slice of an existing backing array (the s[:0] reuse
// idiom). Definitions without a value (`var s []T`) are neutral; an
// append result feeding back into the variable is too.
func presized(info *types.Info, fn ast.Node) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	def := func(id *ast.Ident, rhs ast.Expr) {
		v, _ := info.ObjectOf(id).(*types.Var)
		if v == nil || v.Pos() < fn.Pos() || v.Pos() >= fn.End() {
			return
		}
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.SliceExpr:
			out[v] = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && id.Name == "make" && len(rhs.Args) == 3 {
				out[v] = true
			}
		}
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						def(id, n.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == len(n.Names) {
				for i, name := range n.Names {
					def(name, n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// underOf returns the underlying type of e, or nil when e has none
// recorded.
func underOf(info *types.Info, e ast.Expr) types.Type {
	if t := typeOf(info, e); t != nil {
		return t.Underlying()
	}
	return nil
}

// typeOf returns the type of e, falling back to the object an identifier
// denotes (an assignment's left-hand side may be recorded only there).
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}
