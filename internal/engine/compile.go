package engine

import (
	"fmt"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// rowPred is a compiled predicate over rows of one schema.
type rowPred func(relation.Row) bool

// pairPred is a compiled predicate over (left row, right row) pairs.
type pairPred func(l, r relation.Row) bool

// operandLoader resolves an operand to a value extractor over one schema.
func operandLoader(o algebra.Operand, s *relation.Schema) (func(relation.Row) value.Value, error) {
	if o.Param > 0 {
		return nil, fmt.Errorf("engine: unbound parameter $%d reached execution; bind values first (quel.BindParams)", o.Param)
	}
	if o.IsConst {
		c := o.Const
		return func(relation.Row) value.Value { return c }, nil
	}
	idx := s.ColumnIndex(o.Col.Name())
	if idx < 0 {
		return nil, fmt.Errorf("engine: column %s not in %s", o.Col, s)
	}
	return func(r relation.Row) value.Value { return r[idx] }, nil
}

// predAtoms counts the atoms of a conjunction — comparison atoms plus any
// not-yet-expanded temporal atoms — the predicate-shape figure reported in
// trace notes.
func predAtoms(p algebra.Predicate) int {
	return len(p.Atoms) + len(p.Temporal)
}

// compilePred compiles the conjunction against one schema. Temporal atoms
// must have been expanded by the optimizer before execution.
func compilePred(p algebra.Predicate, s *relation.Schema) (rowPred, error) {
	if len(p.Temporal) > 0 {
		return nil, fmt.Errorf("engine: unexpanded temporal atoms %v reached execution", p.Temporal)
	}
	type cmp struct {
		l, r func(relation.Row) value.Value
		op   algebra.CmpOp
	}
	cmps := make([]cmp, len(p.Atoms))
	for i, a := range p.Atoms {
		l, err := operandLoader(a.L, s)
		if err != nil {
			return nil, err
		}
		r, err := operandLoader(a.R, s)
		if err != nil {
			return nil, err
		}
		cmps[i] = cmp{l: l, r: r, op: a.Op}
	}
	return func(row relation.Row) bool {
		for _, c := range cmps {
			if !c.op.Eval(c.l(row).Compare(c.r(row))) {
				return false
			}
		}
		return true
	}, nil
}

// compilePairPred compiles the conjunction against a (left, right) row
// pair, resolving each operand in whichever schema defines it.
func compilePairPred(p algebra.Predicate, ls, rs *relation.Schema) (pairPred, error) {
	if len(p.Temporal) > 0 {
		return nil, fmt.Errorf("engine: unexpanded temporal atoms %v reached execution", p.Temporal)
	}
	type side struct {
		left bool
		get  func(relation.Row) value.Value
	}
	load := func(o algebra.Operand) (side, error) {
		if o.IsConst {
			c := o.Const
			return side{left: true, get: func(relation.Row) value.Value { return c }}, nil
		}
		if ls.ColumnIndex(o.Col.Name()) >= 0 {
			g, err := operandLoader(o, ls)
			return side{left: true, get: g}, err
		}
		if rs.ColumnIndex(o.Col.Name()) >= 0 {
			g, err := operandLoader(o, rs)
			return side{left: false, get: g}, err
		}
		return side{}, fmt.Errorf("engine: column %s in neither %s nor %s", o.Col, ls, rs)
	}
	type cmp struct {
		l, r side
		op   algebra.CmpOp
	}
	cmps := make([]cmp, len(p.Atoms))
	for i, a := range p.Atoms {
		l, err := load(a.L)
		if err != nil {
			return nil, err
		}
		r, err := load(a.R)
		if err != nil {
			return nil, err
		}
		cmps[i] = cmp{l: l, r: r, op: a.Op}
	}
	pick := func(s side, l, r relation.Row) value.Value {
		if s.left {
			return s.get(l)
		}
		return s.get(r)
	}
	return func(l, r relation.Row) bool {
		for _, c := range cmps {
			if !c.op.Eval(pick(c.l, l, r).Compare(pick(c.r, l, r))) {
				return false
			}
		}
		return true
	}, nil
}

// equiKeys extracts the column-to-column equality atoms usable as hash-join
// keys, returning the key extractors and the residual conjunction.
func equiKeys(p algebra.Predicate, ls, rs *relation.Schema) (lk, rk []int, residual algebra.Predicate) {
	residual.Temporal = p.Temporal
	for _, a := range p.Atoms {
		if a.Op == algebra.EQ && !a.L.IsConst && !a.R.IsConst {
			li, ri := ls.ColumnIndex(a.L.Col.Name()), rs.ColumnIndex(a.R.Col.Name())
			if li >= 0 && ri >= 0 {
				lk, rk = append(lk, li), append(rk, ri)
				continue
			}
			// The atom may be written right-to-left.
			li, ri = ls.ColumnIndex(a.R.Col.Name()), rs.ColumnIndex(a.L.Col.Name())
			if li >= 0 && ri >= 0 {
				lk, rk = append(lk, li), append(rk, ri)
				continue
			}
		}
		residual.Atoms = append(residual.Atoms, a)
	}
	return lk, rk, residual
}

// rowSpan locates a lifespan in a row: the cells of its two endpoints.
// A point span (ts == te, the before-join case) is the degenerate
// interval [t, t).
type rowSpan struct{ ts, te int }

// of returns the row's lifespan.
func (s rowSpan) of(r relation.Row) interval.Interval {
	return interval.Interval{Start: r[s.ts].AsTime(), End: r[s.te].AsTime()}
}

// spanAccessor resolves a recognized SpanRef against a schema.
func spanAccessor(sr algebra.SpanRef, s *relation.Schema) (rowSpan, error) {
	sp := rowSpan{ts: s.ColumnIndex(sr.TS.Name()), te: s.ColumnIndex(sr.TE.Name())}
	if sp.ts < 0 || sp.te < 0 {
		return rowSpan{}, fmt.Errorf("engine: span %v not resolvable in %s", sr, s)
	}
	return sp, nil
}
