package relation

import (
	"fmt"
	"sort"
	"strings"

	"tdb/internal/interval"
)

// Relation is a named temporal relation: a schema plus a bag of rows.
// Following the paper, a temporal relation is conceptually a *set* of
// 4-tuples; we store a bag and provide Dedup because intermediate results
// of the algebra may carry duplicates until a projection eliminates them.
type Relation struct {
	Name   string
	Schema *Schema
	Rows   []Row
}

// New returns an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// FromTuples builds a relation in the canonical 4-tuple shape.
func FromTuples(name string, ts []Tuple) *Relation {
	r := New(name, TupleSchema)
	r.Rows = make([]Row, len(ts))
	for i, t := range ts {
		r.Rows[i] = TupleToRow(t)
	}
	return r
}

// Tuples converts a 4-tuple-shaped relation back to tuples.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = RowToTuple(r.Schema, row)
	}
	return out
}

// Cardinality is the number of rows.
func (r *Relation) Cardinality() int { return len(r.Rows) }

// Insert appends a row after validating its arity, the kinds of its values
// against the schema, and the intra-tuple constraint ValidFrom < ValidTo.
func (r *Relation) Insert(row Row) error {
	if err := r.Schema.CheckRow(row); err != nil {
		return fmt.Errorf("relation %s: %w", r.Name, err)
	}
	r.Rows = append(r.Rows, row)
	return nil
}

// MustInsert is Insert that panics, for test fixtures and examples.
func (r *Relation) MustInsert(row Row) {
	if err := r.Insert(row); err != nil {
		panic(err) // lint:allow panic — Must* helper for test fixtures and examples
	}
}

// Span returns the lifespan of row i.
func (r *Relation) Span(i int) interval.Interval { return r.Rows[i].Span(r.Schema) }

// Sort orders the rows by their lifespans under the given temporal order.
// It panics on snapshot relations.
func (r *Relation) Sort(o Order) {
	s := r.Schema
	SortSpans(r.Rows, func(row Row) interval.Interval { return row.Span(s) }, o)
}

// SortBy orders the rows by the listed column indexes ascending, comparing
// values with their natural order. It is the engine's generic sort for
// equi-join preparation (e.g. sort Faculty by Name).
func (r *Relation) SortBy(cols ...int) {
	sort.SliceStable(r.Rows, func(i, j int) bool {
		for _, c := range cols {
			cmp := r.Rows[i][c].Compare(r.Rows[j][c])
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

// Clone returns a deep copy (rows cloned, schema shared — schemas are
// immutable after construction).
func (r *Relation) Clone() *Relation {
	c := New(r.Name, r.Schema)
	c.Rows = make([]Row, len(r.Rows))
	for i, row := range r.Rows {
		c.Rows[i] = row.Clone()
	}
	return c
}

// Dedup removes duplicate rows in place, preserving first occurrences.
func (r *Relation) Dedup() {
	seen := make(map[string]bool, len(r.Rows))
	out := r.Rows[:0]
	for _, row := range r.Rows {
		k := row.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	r.Rows = out
}

// String renders the relation as a small table, for the shell and for
// examples. Large relations are truncated.
func (r *Relation) String() string {
	const maxRows = 24
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s  [%d rows]\n", r.Name, r.Schema, len(r.Rows))
	for i, row := range r.Rows {
		if i == maxRows {
			fmt.Fprintf(&b, "  … %d more\n", len(r.Rows)-maxRows)
			break
		}
		fmt.Fprintf(&b, "  %s\n", row)
	}
	return b.String()
}

// Check validates every row against the schema kinds and the intra-tuple
// constraint; it reports the first violation.
func (r *Relation) Check() error {
	for i, row := range r.Rows {
		if err := r.Schema.CheckRow(row); err != nil {
			return fmt.Errorf("relation %s: row %d: %w", r.Name, i, err)
		}
	}
	return nil
}
