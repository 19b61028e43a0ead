package algebra

import "fmt"

// CloneExpr returns a deep copy of the expression tree: every node,
// predicate, and output list is copied, so mutating the clone (parameter
// binding, optimizer rewrites) never aliases the original. Prepared
// statements rely on this — the cached parse tree is cloned per execution
// before placeholders are bound.
func CloneExpr(e Expr) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *Scan:
		c := *n
		return &c
	case *Select:
		return &Select{Input: CloneExpr(n.Input), Pred: clonePred(n.Pred)}
	case *Product:
		return &Product{L: CloneExpr(n.L), R: CloneExpr(n.R)}
	case *Join:
		return &Join{
			L: CloneExpr(n.L), R: CloneExpr(n.R),
			Pred: clonePred(n.Pred), Kind: n.Kind,
			LSpan: n.LSpan, RSpan: n.RSpan,
		}
	case *Semijoin:
		return &Semijoin{
			L: CloneExpr(n.L), R: CloneExpr(n.R),
			Pred: clonePred(n.Pred), Kind: n.Kind,
			LSpan: n.LSpan, RSpan: n.RSpan, Self: n.Self,
		}
	case *Project:
		return &Project{
			Input:  CloneExpr(n.Input),
			Cols:   append([]Output{}, n.Cols...),
			TSName: n.TSName, TEName: n.TEName,
			Distinct: n.Distinct,
		}
	case *Aggregate:
		return &Aggregate{
			Input:   CloneExpr(n.Input),
			GroupBy: append([]ColRef{}, n.GroupBy...),
			Terms:   append([]AggTerm{}, n.Terms...),
		}
	}
	// lint:allow panic — unreachable: Expr is a closed union, the switch is exhaustive
	panic(fmt.Sprintf("algebra: CloneExpr of unknown node %T", e))
}

// clonePred deep-copies a predicate's conjunct slices.
func clonePred(p Predicate) Predicate {
	return Predicate{
		Atoms:    append([]Atom{}, p.Atoms...),
		Temporal: append([]TemporalAtom{}, p.Temporal...),
	}
}

// RewritePredicates walks the tree applying fn to every predicate in
// place (Select, Join, Semijoin). The walk is pre-order; fn may mutate the
// predicate it is handed. Parameter binding (quel.Bind) is its user.
func RewritePredicates(e Expr, fn func(p *Predicate)) {
	switch n := e.(type) {
	case nil:
		return
	case *Select:
		fn(&n.Pred)
		RewritePredicates(n.Input, fn)
	case *Join:
		fn(&n.Pred)
		RewritePredicates(n.L, fn)
		RewritePredicates(n.R, fn)
	case *Semijoin:
		fn(&n.Pred)
		RewritePredicates(n.L, fn)
		RewritePredicates(n.R, fn)
	default:
		for _, c := range e.Children() {
			RewritePredicates(c, fn)
		}
	}
}
