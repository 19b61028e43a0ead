package relation

import (
	"encoding/binary"
	"fmt"
	"strings"

	"tdb/internal/interval"
	"tdb/internal/value"
)

// Row is one tuple of a relation: a slice of values positionally matching a
// schema.
type Row []value.Value

// Clone returns a copy of the row that shares no storage with the original.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Span extracts the lifespan of the row under the given temporal schema.
// It panics on snapshot schemas; callers guard with Schema.Temporal.
func (r Row) Span(s *Schema) interval.Interval {
	if !s.Temporal() {
		// lint:allow panic — documented contract: callers guard with Schema.Temporal
		panic("relation: Span on snapshot schema " + s.String())
	}
	return interval.Interval{Start: r[s.TS].AsTime(), End: r[s.TE].AsTime()}
}

// String renders the row as (v1, v2, ...).
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports value-wise equality of two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Key returns the row's AppendKey encoding over every cell as a map key:
// two rows have equal keys exactly when they are Equal. The key is binary,
// not display text; print rows with String.
func (r Row) Key() string { return string(AppendKey(nil, r, nil)) }

// AppendKey appends the injective key encoding of the row's cells cols
// (every cell when cols is nil) to dst and returns the extended buffer. A
// string cell is the tag 's', its uvarint length and its bytes; an Int or
// Time cell is the tag 'i' and its big-endian int64 (the two kinds share
// one order and are Equal at equal payloads, so they encode alike). Every
// cell is self-delimiting, so two encodings are equal exactly when the
// cells are pairwise value.Equal. The encoding is not order-preserving.
//
// It is the one row→key codec: duplicate elimination, grouping, the hash
// join and the live batch-mode multisets all key rows through it.
func AppendKey(dst []byte, r Row, cols []int) []byte {
	if cols == nil {
		for _, v := range r {
			dst = appendCell(dst, v)
		}
		return dst
	}
	for _, c := range cols {
		dst = appendCell(dst, r[c])
	}
	return dst
}

func appendCell(dst []byte, v value.Value) []byte {
	if v.Kind() != value.KindString {
		return binary.BigEndian.AppendUint64(append(dst, 'i'), uint64(v.AsInt()))
	}
	s := v.AsString()
	return append(binary.AppendUvarint(append(dst, 's'), uint64(len(s))), s...)
}

// ConcatRows returns the concatenation of two rows, the output of a join.
func ConcatRows(l, r Row) Row {
	out := make(Row, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// ParseRow parses one textual record (e.g. a CSV line) into a row under
// the schema's column kinds.
func ParseRow(s *Schema, rec []string) (Row, error) {
	if len(rec) != s.Arity() {
		return nil, fmt.Errorf("relation: record has %d fields, schema %s has %d", len(rec), s, s.Arity())
	}
	row := make(Row, len(rec))
	for i, field := range rec {
		v, err := value.Parse(s.Cols[i].Kind, field)
		if err != nil {
			return nil, fmt.Errorf("relation: column %s: %w", s.Cols[i].Name, err)
		}
		row[i] = v
	}
	return row, nil
}

// Tuple is the paper's canonical temporal data value ⟨S, V, ValidFrom,
// ValidTo⟩: surrogate S identifies the object, V is the time-varying
// attribute, and Span is the lifespan during which S carries the value V
// under stepwise-constant interpolation.
type Tuple struct {
	S    string
	V    value.Value
	Span interval.Interval
}

// String renders the tuple as ⟨S, V, [ts,te)⟩.
func (t Tuple) String() string {
	return fmt.Sprintf("⟨%s, %s, %s⟩", t.S, t.V, t.Span)
}

// Check validates the intra-tuple integrity constraint.
func (t Tuple) Check() error {
	if err := t.Span.Check(); err != nil {
		return fmt.Errorf("tuple %v: %w", t, err)
	}
	return nil
}

// TupleSchema is the schema of the canonical 4-tuple representation.
var TupleSchema = MustSchema([]Column{
	{Name: "S", Kind: value.KindString},
	{Name: "V", Kind: value.KindString},
	{Name: "ValidFrom", Kind: value.KindTime},
	{Name: "ValidTo", Kind: value.KindTime},
}, 2, 3)

// TupleToRow converts a canonical tuple to a row under TupleSchema. The
// time-varying attribute is rendered with its natural type; integer V is
// preserved as an int value.
func TupleToRow(t Tuple) Row {
	return Row{
		value.String_(t.S),
		t.V,
		value.TimeVal(t.Span.Start),
		value.TimeVal(t.Span.End),
	}
}

// RowToTuple converts a row of a 4-tuple-shaped relation back to a Tuple.
// The row must have arity 4 with the lifespan in the schema's temporal
// columns and the surrogate in column 0.
func RowToTuple(s *Schema, r Row) Tuple {
	var vcol int
	for i := range r {
		if i != 0 && i != s.TS && i != s.TE {
			vcol = i
			break
		}
	}
	return Tuple{S: r[0].AsString(), V: r[vcol], Span: r.Span(s)}
}
