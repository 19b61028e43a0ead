package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tdb/internal/relation"
	"tdb/internal/value"
)

// FuzzAppendRequest feeds arbitrary bytes through the append decoder:
// decodeBody into an AppendRequest, then decodeRow for every row, under
// the canonical tuple schema and under a schema with an Int column. Each
// step yields a value or a typed bad-request *Error, never a panic, and a
// decoded row has one cell of the column's kind per column.
func FuzzAppendRequest(f *testing.F) {
	for _, req := range []AppendRequest{
		{Relation: "F", Rows: [][]any{{"alice", "Assistant", 1, 10}}, Flush: true},
		{Relation: "G", Rows: [][]any{{"bob", "Full", 2, 8}}, Flush: true},
		{Relation: "F", Rows: [][]any{{"zoe", "Full", 1, 5}}, Flush: true, IdemKey: "k-dup-1"},
		{Relation: "Faculty", Rows: [][]any{{"zz-wire", "Full", 5000, 6000}}, Flush: true},
		{Relation: "NoSuch", Rows: [][]any{{"x"}}},
		{Relation: "F", Flush: true},
		{Session: "s1", Tenant: "t1", Relation: "F", Rows: [][]any{{"a", "Full", 10, 20}, {"b", "Full", 10, 20}}, Slack: 5, IdemKey: "k"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, raw := range []string{
		`{"relation":"F","rows":[["a",7,1e400,-0]]}`,
		`{"relation":"F","rows":[["a","b",1.5,"2"]]}`,
		`{"relation":"F","rows":[[null,true,{},[]]]}`,
		`{"relation":"F","rows":[["a","b",9223372036854775808,1]]}`,
		`{"relation":"F","rows":"x"}`,
		`{"relation":"F","rows":[[]]`,
		``,
	} {
		f.Add([]byte(raw))
	}
	intSchema := relation.MustSchema([]relation.Column{
		{Name: "Name", Kind: value.KindString},
		{Name: "N", Kind: value.KindInt},
		{Name: "ValidFrom", Kind: value.KindTime},
		{Name: "ValidTo", Kind: value.KindTime},
	}, 2, 3)
	typed := func(t *testing.T, step string, apiErr *Error) {
		if apiErr.Code != CodeBadRequest || apiErr.HTTP != http.StatusBadRequest {
			t.Fatalf("%s: error %+v, want a typed %s", step, apiErr, CodeBadRequest)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/"+Protocol+"/append", bytes.NewReader(body))
		var req AppendRequest
		if apiErr := decodeBody(r, &req); apiErr != nil {
			typed(t, "decodeBody", apiErr)
			return
		}
		for _, sch := range []*relation.Schema{relation.TupleSchema, intSchema} {
			for _, wire := range req.Rows {
				row, apiErr := decodeRow(sch, wire)
				if apiErr != nil {
					typed(t, "decodeRow", apiErr)
					continue
				}
				if len(row) != sch.Arity() {
					t.Fatalf("row %v has %d cells under %s", row, len(row), sch)
				}
				for i, v := range row {
					if v.Kind() != sch.Cols[i].Kind {
						t.Fatalf("cell %d of %v is a %v, column %s wants a %v", i, row, v.Kind(), sch.Cols[i].Name, sch.Cols[i].Kind)
					}
				}
			}
		}
	})
}
