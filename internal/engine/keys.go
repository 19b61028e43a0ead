package engine

import (
	"math/bits"
	"slices"
	"strings"

	"tdb/internal/algebra"
	"tdb/internal/relation"
)

// Keys the data proves (DESIGN.md "The relation index"): a DISTINCT
// projection hashes no row when the rows it projects are distinct on its
// columns already, because those columns take a key of every base
// relation its input reads. Relations are multisets, and under snapshot
// semantics a duplicate is part of the answer, so the proof is made from
// the rows the run reads — a key fact of their current version — and is
// never assumed from a schema.

// keyProof proves a projection's input distinct on the projected columns
// by walking the plan beneath it, not its rows:
//
//   - a scan of an in-memory relation that is neither stored nor live is
//     distinct on the projected columns it supplies if they are a key of
//     its current rows (relationIndex.isKey), which is tested once the walk
//     has passed every node;
//   - a selection and a semijoin, ordinary or self, pick each of their
//     (left) input's positions at most once, so they are distinct where
//     that input is;
//   - a join and a product emit each pair of their inputs' positions at
//     most once, so they are distinct where both inputs are, each on the
//     columns it supplies; an input that supplies none is distinct only
//     with at most one row, which is what a key of no column says;
//   - anything else — an aggregate, a nested projection, a stored scan, a
//     live table — is not proven.
type keyProof struct {
	db    *DB
	cols  uint64 // the projected columns of the project's input, one bit each
	facts []keyFact
}

// keyFact is a key fact a proof needs: rel's column set cols is a key.
type keyFact struct {
	rel  *relation.Relation
	cols uint64
}

// provenKeys reports whether the rows of in, the input of a projection
// onto its columns idx, are distinct on them, and names the key facts that
// prove it. A projection of a column past the 64 a column set holds is not
// proven.
func (ex *executor) provenKeys(in algebra.Expr, idx []int) ([]string, bool) {
	p := keyProof{db: ex.db}
	for _, j := range idx {
		if j >= 64 {
			return nil, false
		}
		p.cols |= 1 << j
	}
	if _, ok := p.walk(in, 0); !ok {
		return nil, false
	}
	// The facts with the fewest columns go first: those are the likeliest
	// not to be keys, and a repeat ends a fact's pass early and the proof
	// with it, before a longer pass over a relation that is a key.
	slices.SortStableFunc(p.facts, func(a, b keyFact) int {
		return bits.OnesCount64(a.cols) - bits.OnesCount64(b.cols)
	})
	for _, f := range p.facts {
		if !ex.db.index.isKey(f.rel, f.cols) {
			return nil, false
		}
	}
	keys := make([]string, len(p.facts))
	for i, f := range p.facts {
		keys[i] = keyName(f.rel, f.cols)
	}
	return keys, true
}

// walk lists in facts what makes e's rows distinct on the projected
// columns among their own, which start at column off of the projection's
// input, and returns e's width; it reports false at a node no proof
// passes.
func (p *keyProof) walk(e algebra.Expr, off int) (int, bool) {
	switch n := e.(type) {
	case *algebra.Scan:
		rel, err := p.db.Relation(n.Relation)
		if err != nil {
			return 0, false
		}
		own := p.db.owner(n.Relation)
		_, stored := own.stored[n.Relation]
		_, live := own.live[n.Relation]
		if stored || live {
			return 0, false
		}
		w := rel.Schema.Arity()
		p.facts = append(p.facts, keyFact{rel, p.cols >> off & (1<<w - 1)})
		return w, true
	case *algebra.Select:
		return p.walk(n.Input, off)
	case *algebra.Semijoin:
		return p.walk(n.L, off)
	case *algebra.Join:
		return p.both(n.L, n.R, off)
	case *algebra.Product:
		return p.both(n.L, n.R, off)
	}
	return 0, false
}

// both walks the two inputs of a join or product, whose output is the
// left input's columns followed by the right's.
func (p *keyProof) both(l, r algebra.Expr, off int) (int, bool) {
	lw, ok := p.walk(l, off)
	if !ok {
		return 0, false
	}
	rw, ok := p.walk(r, off+lw)
	return lw + rw, ok
}

// keyName names the key fact of rel's column set cols.
func keyName(rel *relation.Relation, cols uint64) string {
	names := make([]string, 0, bits.OnesCount64(cols))
	for _, c := range colsOf(cols) {
		names = append(names, rel.Schema.Cols[c].Name)
	}
	return rel.Name + "(" + strings.Join(names, ", ") + ")"
}

// colsOf lists the columns of the set cols in ascending order.
func colsOf(cols uint64) []int {
	out := make([]int, 0, bits.OnesCount64(cols))
	for ; cols != 0; cols &= cols - 1 {
		out = append(out, bits.TrailingZeros64(cols))
	}
	return out
}
