package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tdb/internal/lint/flow"
)

// flowIndex memoizes one package's flow summaries by function body, so
// only the functions a hot region sits in pay for dataflow.
type flowIndex struct {
	pkg *Package
	m   map[*ast.BlockStmt]*flow.Func
}

// Of returns the (memoized) dataflow summary for the function with the
// given signature and body.
func (ix *flowIndex) Of(ftype *ast.FuncType, body *ast.BlockStmt) *flow.Func {
	if f, ok := ix.m[body]; ok {
		return f
	}
	f := flow.Analyze(ix.pkg.Info, ftype, body)
	ix.m[body] = f
	return f
}

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
// is an append whose destination is provably pre-sized (a make with
// explicit capacity, or a reused s[:0] slice).
var hotpathAllocAnalyzer = &Analyzer{
	Name: "hotpath-alloc",
	Doc:  "//tdb:hotpath regions must not allocate, box, or grow per iteration",
	Run: func(pass *Pass) {
		p := pass.Pkg
		idx := &flowIndex{pkg: p, m: map[*ast.BlockStmt]*flow.Func{}}
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
					fl := idx.Of(reg.ftype, reg.fbody)
					checkHotRegion(pass, fl, reg.region)
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
// enclosing function whose dataflow summary interprets it.
type hotRegion struct {
	ftype  *ast.FuncType
	fbody  *ast.BlockStmt
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
		return []hotRegion{{ftype: fd.Type, fbody: fd.Body, region: fd.Body}}
	}
	var out []hotRegion
	type frame struct {
		ftype *ast.FuncType
		fbody *ast.BlockStmt
	}
	stack := []frame{{fd.Type, fd.Body}}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				stack = append(stack, frame{m.Type, m.Body})
				walk(m.Body)
				stack = stack[:len(stack)-1]
				return false
			case *ast.ForStmt:
				if marked(m.Pos()) {
					top := stack[len(stack)-1]
					out = append(out, hotRegion{ftype: top.ftype, fbody: top.fbody, region: m.Body})
					return false // the annotation covers nested loops too
				}
			case *ast.RangeStmt:
				if marked(m.Pos()) {
					top := stack[len(stack)-1]
					out = append(out, hotRegion{ftype: top.ftype, fbody: top.fbody, region: m.Body})
					return false
				}
			}
			return true
		})
	}
	walk(fd.Body)
	return out
}

// checkHotRegion audits one annotated region against the function's
// dataflow summary.
func checkHotRegion(pass *Pass, fl *flow.Func, region ast.Node) {
	p := pass.Pkg
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

	for _, b := range fl.Boxings() {
		if active(b.Pos) {
			pass.Reportf(b.Pos, "hot path boxes %s into %s", types.TypeString(b.From, types.RelativeTo(p.Types)), types.TypeString(b.To, types.RelativeTo(p.Types)))
		}
	}

	ast.Inspect(region, func(n ast.Node) bool {
		if n == nil || !active(n.Pos()) {
			// Still descend: a skipped if-body is contiguous, but the
			// statements after it in the same block are active again.
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, fl, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && !stackable(fl, n) {
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
				if !stackable(fl, n) {
					pass.Reportf(n.Pos(), "hot path allocates a slice literal per iteration")
				}
			case *types.Map:
				pass.Reportf(n.Pos(), "hot path allocates a map literal per iteration")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
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
// allocations and append growth.
func checkHotCall(pass *Pass, fl *flow.Func, call *ast.CallExpr) {
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
		if !stackable(fl, call) {
			pass.Reportf(call.Pos(), "hot path heap-allocates with new")
		}
	case "append":
		if len(call.Args) == 0 {
			return
		}
		dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			pass.Reportf(call.Pos(), "hot path append may grow its destination; pre-size it or reuse a [:0] slice")
			return
		}
		v, _ := p.Info.ObjectOf(dst).(*types.Var)
		if v == nil || !presized(fl, v) {
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

// stackable reports whether the allocation expression is the defining
// value of a variable the escape lattice proves Local — the compiler can
// keep it on the stack, so the hot region need not be charged for it.
func stackable(fl *flow.Func, e ast.Expr) bool {
	for _, v := range fl.Vars {
		for _, de := range v.DefExprs {
			if de == e {
				return v.Esc == flow.Local
			}
		}
	}
	return false
}

// presized reports whether the variable has a defining expression that
// proves its backing capacity was reserved ahead of the hot region: a
// make with explicit capacity, or a slice of an existing backing array
// (the s[:0] reuse idiom). Definitions without a value (`var s []T`) are
// neutral; an append result feeding back into the variable is too.
func presized(fl *flow.Func, v *types.Var) bool {
	info := fl.Of(v)
	if info == nil {
		return false
	}
	for _, de := range info.DefExprs {
		switch de := ast.Unparen(de).(type) {
		case *ast.SliceExpr:
			return true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(de.Fun).(*ast.Ident); ok && id.Name == "make" && len(de.Args) == 3 {
				return true
			}
		}
	}
	return false
}
