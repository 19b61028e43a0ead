// Package relation implements temporal relations: schemas of typed, named
// columns with designated ValidFrom/ValidTo attributes, rows of values, the
// canonical 4-tuple ⟨S, V, ValidFrom, ValidTo⟩ of the paper's data model,
// sort orders over temporal attributes, and the intra-tuple integrity
// constraint ValidFrom < ValidTo.
package relation

import (
	"fmt"
	"strings"

	"tdb/internal/value"
)

// Column is one attribute of a schema.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema describes the attributes of a temporal relation. TS and TE are the
// indexes of the ValidFrom and ValidTo columns; both are -1 for a snapshot
// (non-temporal) relation such as an intermediate projection that dropped
// its timestamps.
type Schema struct {
	Cols []Column
	TS   int // index of ValidFrom, or -1
	TE   int // index of ValidTo, or -1
}

// NewSchema builds a schema and validates it: column names must be unique
// and non-empty, and the designated temporal columns must exist, be
// distinct, and have kind time.
func NewSchema(cols []Column, ts, te int) (*Schema, error) {
	seen := make(map[string]bool, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: column %d has empty name", i)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	if (ts == -1) != (te == -1) {
		return nil, fmt.Errorf("relation: ValidFrom and ValidTo must both be present or both absent")
	}
	if ts != -1 {
		if ts == te {
			return nil, fmt.Errorf("relation: ValidFrom and ValidTo designate the same column")
		}
		for _, idx := range []int{ts, te} {
			if idx < 0 || idx >= len(cols) {
				return nil, fmt.Errorf("relation: temporal column index %d out of range", idx)
			}
			if cols[idx].Kind != value.KindTime {
				return nil, fmt.Errorf("relation: temporal column %q has kind %v, want time", cols[idx].Name, cols[idx].Kind)
			}
		}
	}
	return &Schema{Cols: cols, TS: ts, TE: te}, nil
}

// MustSchema is NewSchema that panics on error, for statically known schemas.
func MustSchema(cols []Column, ts, te int) *Schema {
	s, err := NewSchema(cols, ts, te)
	if err != nil {
		panic(err) // lint:allow panic — Must* constructor for statically known schemas
	}
	return s
}

// Temporal reports whether the schema designates ValidFrom/ValidTo columns.
func (s *Schema) Temporal() bool { return s.TS != -1 }

// Arity is the number of columns.
func (s *Schema) Arity() int { return len(s.Cols) }

// CheckRow validates one row against the schema: its arity, the kind of
// every value, and, for a temporal schema, the intra-tuple constraint
// ValidFrom < ValidTo. It is the one check every write path makes before a
// row reaches a relation.
func (s *Schema) CheckRow(row Row) error {
	if len(row) != s.Arity() {
		return fmt.Errorf("row arity %d, schema %s", len(row), s)
	}
	for i, v := range row {
		if v.Kind() != s.Cols[i].Kind {
			return fmt.Errorf("column %s: value %v has kind %v, want %v", s.Cols[i].Name, v, v.Kind(), s.Cols[i].Kind)
		}
	}
	if s.Temporal() {
		return row.Span(s).Check()
	}
	return nil
}

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// String renders the schema as R(name:kind, ...), marking the temporal
// columns with a trailing *.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Kind)
		if i == s.TS || i == s.TE {
			b.WriteByte('*')
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two schemas have identical columns and temporal
// designations.
func (s *Schema) Equal(o *Schema) bool {
	if s.TS != o.TS || s.TE != o.TE || len(s.Cols) != len(o.Cols) {
		return false
	}
	for i := range s.Cols {
		if s.Cols[i] != o.Cols[i] {
			return false
		}
	}
	return true
}

// Concat returns the schema of the concatenation of two rows, prefixing
// column names with the given qualifiers to keep them unique (the usual
// range-variable qualification, e.g. "f1.Name"). The result is a snapshot
// schema: a joined row carries two lifespans, and which one (if either)
// becomes the output lifespan is the projection's decision, as in the
// Superstar query's retrieve clause.
func Concat(left, right *Schema, lq, rq string) *Schema {
	cols := make([]Column, 0, len(left.Cols)+len(right.Cols))
	for _, c := range left.Cols {
		cols = append(cols, Column{Name: qualify(lq, c.Name), Kind: c.Kind})
	}
	for _, c := range right.Cols {
		cols = append(cols, Column{Name: qualify(rq, c.Name), Kind: c.Kind})
	}
	return &Schema{Cols: cols, TS: -1, TE: -1}
}

func qualify(q, name string) string {
	if q == "" {
		return name
	}
	return q + "." + name
}

// Rename returns a copy of the schema with every column prefixed by the
// qualifier, preserving the temporal designations.
func (s *Schema) Rename(q string) *Schema {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = Column{Name: qualify(q, c.Name), Kind: c.Kind}
	}
	return &Schema{Cols: cols, TS: s.TS, TE: s.TE}
}
