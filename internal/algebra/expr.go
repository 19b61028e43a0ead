package algebra

import (
	"fmt"
	"strings"

	"tdb/internal/relation"
)

// Expr is a node of the relational algebra parse tree.
type Expr interface {
	// Children returns the operand subtrees.
	Children() []Expr
	// Label renders the node itself (without children) for the parse
	// tree display of Figure 3.
	Label() string
}

// Scan reads a base relation, binding it to a range variable. Multiple
// scans of the same relation with different variables express the paper's
// "several references to the same relation".
type Scan struct {
	Relation string
	As       string // range variable; empty means the bare relation name
}

// Var returns the effective range variable of the scan.
func (s *Scan) Var() string {
	if s.As != "" {
		return s.As
	}
	return s.Relation
}

// Children implements Expr.
func (s *Scan) Children() []Expr { return nil }

// Label implements Expr.
func (s *Scan) Label() string {
	if s.As == "" {
		return s.Relation
	}
	return s.Relation + " " + s.As
}

// Select filters its input by a conjunction.
type Select struct {
	Input Expr
	Pred  Predicate
}

// Children implements Expr.
func (s *Select) Children() []Expr { return []Expr{s.Input} }

// Label implements Expr.
func (s *Select) Label() string { return "σ[" + s.Pred.String() + "]" }

// Product is the Cartesian product.
type Product struct {
	L, R Expr
}

// Children implements Expr.
func (p *Product) Children() []Expr { return []Expr{p.L, p.R} }

// Label implements Expr.
func (p *Product) Label() string { return "×" }

// TemporalKind tags a join or semijoin with the temporal operator the
// optimizer recognized in its inequality conjunction, so the physical
// planner can pick the matching stream algorithm of Section 4.2.
type TemporalKind uint8

// The recognized operator flavors.
const (
	KindTheta     TemporalKind = iota // generic: fall back to nested loop
	KindContain                       // left lifespan contains a right lifespan
	KindContained                     // left lifespan contained in a right lifespan
	KindOverlap                       // lifespans share a chronon
	KindBefore                        // left lifespan wholly before a right one
)

// String names the kind.
func (k TemporalKind) String() string {
	switch k {
	case KindContain:
		return "contain"
	case KindContained:
		return "contained"
	case KindOverlap:
		return "overlap"
	case KindBefore:
		return "before"
	default:
		return "θ"
	}
}

// SpanRef names the pair of columns forming a side's lifespan in a
// recognized temporal operator. For a base temporal relation these are its
// ValidFrom/ValidTo columns; for a composite side they may be *derived* —
// the Superstar semijoin runs on the lifespan [f1.ValidTo, f2.ValidFrom),
// the period the promoted member spent as associate (Figure 8).
type SpanRef struct {
	TS, TE ColRef
}

// Valid reports whether both endpoints are set.
func (s SpanRef) Valid() bool { return s.TS.Col != "" && s.TE.Col != "" }

// String renders the span as "[a, b)".
func (s SpanRef) String() string { return "[" + s.TS.String() + ", " + s.TE.String() + ")" }

// Join is the θ-join: a product restricted by a predicate over both sides.
// Kind and the span annotations are filled by the optimizer's recognition
// pass when the predicate matches a temporal operator signature.
type Join struct {
	L, R Expr
	Pred Predicate
	Kind TemporalKind
	// LSpan/RSpan identify the lifespans the recognized operator
	// relates; meaningful when Kind != KindTheta.
	LSpan, RSpan SpanRef
}

// Children implements Expr.
func (j *Join) Children() []Expr { return []Expr{j.L, j.R} }

// Label implements Expr.
func (j *Join) Label() string {
	if j.Kind == KindTheta {
		return "⋈[" + j.Pred.String() + "]"
	}
	return fmt.Sprintf("⋈%s[%s ⟂ %s]", j.Kind, j.LSpan, j.RSpan)
}

// Semijoin keeps the left tuples that have at least one right partner under
// the predicate. Pred may retain residual atoms beyond the recognized kind.
type Semijoin struct {
	L, R Expr
	Pred Predicate
	Kind TemporalKind
	// LSpan/RSpan as for Join; meaningful when Kind != KindTheta.
	LSpan, RSpan SpanRef
	// Self marks a semijoin whose two sides are the same expression up to
	// range-variable renaming (with corresponding spans): the operand of
	// the paper's Section 4.2.3, executable by the single-scan
	// single-state-tuple algorithms of Figure 7.
	Self bool
}

// Children implements Expr.
func (s *Semijoin) Children() []Expr { return []Expr{s.L, s.R} }

// Label implements Expr.
func (s *Semijoin) Label() string {
	self := ""
	if s.Self {
		self = " self"
	}
	if s.Kind == KindTheta {
		return fmt.Sprintf("⋉%s%s[%s]", s.Kind, self, s.Pred.String())
	}
	return fmt.Sprintf("⋉%s%s[%s ⟂ %s]", s.Kind, self, s.LSpan, s.RSpan)
}

// Output is one column of a projection: a name bound to a source column.
type Output struct {
	Name string
	From ColRef
}

// Project renames and narrows columns. TSName/TEName designate which output
// columns carry the result's lifespan (both empty for a snapshot result),
// mirroring the retrieve clause of the Superstar query, which assembles the
// result lifespan from f1.ValidFrom and f2.ValidTo.
type Project struct {
	Input  Expr
	Cols   []Output
	TSName string
	TEName string
	// Distinct eliminates duplicate rows, restoring set semantics after
	// the projection. The engine may prove it redundant from the data
	// version a run reads — the projected columns take a key of every base
	// relation beneath — and then keeps every row without hashing one.
	Distinct bool
}

// Children implements Expr.
func (p *Project) Children() []Expr { return []Expr{p.Input} }

// Label implements Expr.
func (p *Project) Label() string {
	parts := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		if c.Name == c.From.String() {
			parts[i] = c.Name
		} else {
			parts[i] = c.Name + "=" + c.From.String()
		}
	}
	return "π[" + strings.Join(parts, ", ") + "]"
}

// Vars returns the range variables bound beneath the expression.
func Vars(e Expr) []string {
	switch n := e.(type) {
	case *Scan:
		return []string{n.Var()}
	case *Semijoin:
		// A semijoin's output rows come from the left side only.
		return Vars(n.L)
	case *Project, *Aggregate:
		// These rename columns; the variables beneath are hidden.
		return nil
	}
	var out []string
	for _, c := range e.Children() {
		out = append(out, Vars(c)...)
	}
	return out
}

// VarSet returns Vars as a set.
func VarSet(e Expr) map[string]bool {
	m := map[string]bool{}
	for _, v := range Vars(e) {
		m[v] = true
	}
	return m
}

// Format renders the parse tree with box-drawing indentation, the textual
// equivalent of Figure 3.
func Format(e Expr) string {
	var b strings.Builder
	var walk func(n Expr, prefix string, last bool, root bool)
	walk = func(n Expr, prefix string, last, root bool) {
		if root {
			b.WriteString(n.Label() + "\n")
		} else {
			branch := "├─ "
			if last {
				branch = "└─ "
			}
			b.WriteString(prefix + branch + n.Label() + "\n")
		}
		kids := n.Children()
		for i, c := range kids {
			childPrefix := prefix
			if !root {
				if last {
					childPrefix += "   "
				} else {
					childPrefix += "│  "
				}
			}
			walk(c, childPrefix, i == len(kids)-1, false)
		}
	}
	walk(e, "", true, true)
	return b.String()
}

// SchemaSource resolves base relation names to their schemas.
type SchemaSource interface {
	SchemaOf(relationName string) (*relation.Schema, error)
}

// OutputSchema computes the schema an expression produces, qualifying base
// columns with their range variables exactly as predicates reference them.
func OutputSchema(e Expr, src SchemaSource) (*relation.Schema, error) {
	switch n := e.(type) {
	case *Scan:
		base, err := src.SchemaOf(n.Relation)
		if err != nil {
			return nil, err
		}
		return base.Rename(n.Var()), nil
	case *Select:
		return OutputSchema(n.Input, src)
	case *Product:
		return concatSchemas(n.L, n.R, src)
	case *Join:
		return concatSchemas(n.L, n.R, src)
	case *Semijoin:
		return OutputSchema(n.L, src)
	case *Aggregate:
		in, err := OutputSchema(n.Input, src)
		if err != nil {
			return nil, err
		}
		return aggregateSchema(n, in)
	case *Project:
		in, err := OutputSchema(n.Input, src)
		if err != nil {
			return nil, err
		}
		cols := make([]relation.Column, len(n.Cols))
		ts, te := -1, -1
		for i, out := range n.Cols {
			idx := in.ColumnIndex(out.From.Name())
			if idx < 0 {
				return nil, fmt.Errorf("algebra: projection references unknown column %s in %s", out.From, in)
			}
			cols[i] = relation.Column{Name: out.Name, Kind: in.Cols[idx].Kind}
			if out.Name == n.TSName {
				ts = i
			}
			if out.Name == n.TEName {
				te = i
			}
		}
		return relation.NewSchema(cols, ts, te)
	}
	return nil, fmt.Errorf("algebra: unknown expression %T", e)
}

func concatSchemas(l, r Expr, src SchemaSource) (*relation.Schema, error) {
	ls, err := OutputSchema(l, src)
	if err != nil {
		return nil, err
	}
	rs, err := OutputSchema(r, src)
	if err != nil {
		return nil, err
	}
	return relation.Concat(ls, rs, "", ""), nil
}
