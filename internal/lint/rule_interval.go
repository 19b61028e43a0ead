package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// intervalEncapsulationAnalyzer keeps Allen's relationships in one place. An
// endpoint inequality between two different lifespans — x.Start < y.Start,
// x.End <= y.Start, … — is a fragment of a Figure 2 relationship, and the
// interval package's predicates (Before, Meets, During, …) and
// comparators (CmpStart, CmpEnd, Compare) are the single ground truth the
// optimizer's predicate expansion is tested against. Outside package
// interval, such fragments must go through those functions.
//
// Comparing the endpoints of one interval with themselves (iv.Start <
// iv.End, the intra-tuple constraint) and comparing an endpoint with a
// scalar chronon are both fine: neither is an inter-lifespan relationship.
var intervalEncapsulationAnalyzer = &Analyzer{
	Name: "interval-encapsulation",
	Doc:  "no raw Start/End comparisons between two Intervals outside package interval",
	Run: func(pass *Pass) {
		p := pass.Pkg
		if p.Types.Name() == "interval" {
			return
		}
		inspect(p, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || !isComparison(bin.Op) {
				return true
			}
			lx, lok := endpointSelector(p, bin.X)
			ly, rok := endpointSelector(p, bin.Y)
			if !lok || !rok {
				return true
			}
			if types.ExprString(lx) == types.ExprString(ly) {
				return true // intra-tuple constraint on one interval
			}
			pass.Reportf(bin.Pos(), "raw Interval endpoint comparison between two lifespans; use package interval (CmpStart/CmpEnd/Compare or a Figure 2 predicate)")
			return true
		})
	},
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// endpointSelector reports whether e is a Start/End field selection on an
// expression of type interval.Interval (possibly through pointers), and
// returns the base expression.
func endpointSelector(p *Package, e ast.Expr) (base ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(e).(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Start" && sel.Sel.Name != "End") {
		return nil, false
	}
	s, found := p.Info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return nil, false
	}
	t := p.Info.Types[sel.X].Type
	for {
		ptr, isPtr := t.(*types.Pointer)
		if !isPtr {
			break
		}
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Name() != "Interval" {
		return nil, false
	}
	return sel.X, true
}
