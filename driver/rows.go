package driver

import (
	"database/sql/driver"
	"fmt"
	"io"
	"reflect"
	"strings"

	"tdb/internal/wire"
)

// Rows iterates one result set. String columns scan as string; time
// (chronon) and int columns scan as int64 — chronons up to
// interval.Forever (2^63-2) survive the wire exactly because both ends
// move them as JSON integer literals, never float64.
//
// The whole response is read and decoded before QueryContext returns: a
// malformed or truncated body, or a cell that does not fit its column's
// kind, is an error from QueryContext, never from Next. String cells
// share one copy of the response body, which stays alive while any of
// them is referenced.
type Rows struct {
	cols  []wireColumn
	cells wire.Columns
	n, i  int
}

var (
	_ driver.Rows                           = (*Rows)(nil)
	_ driver.RowsColumnTypeDatabaseTypeName = (*Rows)(nil)
	_ driver.RowsColumnTypeScanType         = (*Rows)(nil)
)

// newRows iterates a decoded response.
func newRows(resp *queryResponse) *Rows {
	return &Rows{cols: resp.Columns, cells: resp.cells, n: resp.n}
}

// Columns returns the result column names.
func (r *Rows) Columns() []string {
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.Name
	}
	return out
}

// Close releases the buffered rows.
func (r *Rows) Close() error {
	r.cells, r.n = nil, 0
	return nil
}

// Next yields the next row, or io.EOF.
func (r *Rows) Next(dest []driver.Value) error {
	if r.i >= r.n {
		return io.EOF
	}
	if len(dest) != len(r.cells) {
		return fmt.Errorf("tdb: row arity %d, expected %d", len(r.cells), len(dest))
	}
	for j := range dest {
		if c := &r.cells[j]; c.Strings != nil {
			dest[j] = c.Strings[r.i]
		} else {
			dest[j] = c.Ints[r.i]
		}
	}
	r.i++
	return nil
}

// ColumnTypeDatabaseTypeName reports STRING, INT or TIME — refined to
// TIME_START / TIME_END on the two columns the schema designates as the
// tuple lifespan interval [ValidFrom, ValidTo).
func (r *Rows) ColumnTypeDatabaseTypeName(i int) string {
	c := r.cols[i]
	if c.Kind == "time" && c.Temporal != "" {
		return "TIME_" + strings.ToUpper(c.Temporal)
	}
	return strings.ToUpper(c.Kind)
}

// ColumnTypeScanType reports string for string columns and int64 for
// time and int columns.
func (r *Rows) ColumnTypeScanType(i int) reflect.Type {
	if r.cols[i].Kind == "string" {
		return reflect.TypeOf("")
	}
	return reflect.TypeOf(int64(0))
}
