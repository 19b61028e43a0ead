package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// The statements server_mixed reads (bench/gen.go): a point read of the
// Faculty relation and the wide overlap join of X and Y.
const (
	benchPoint = `range of f is Faculty retrieve (f.Name, f.ValidFrom) where f.Rank = $1`
	benchWide  = `range of a is X range of b is Y retrieve (XS=a.S, XFrom=a.ValidFrom, YS=b.S, YFrom=b.ValidFrom) where (a overlap b)`
	escapeRead = `range of e is E retrieve (e.S, e.V, e.ValidFrom, e.ValidTo)`
)

// escapeStrings cover every escape encoding/json applies to a string.
var escapeStrings = []string{
	"", "plain", `quote " backslash \ slash /`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"<script>&amp;</script>", "line\xe2\x80\xa8para\xe2\x80\xa9end",
	"caf\xc3\xa9 \xf0\x9f\x98\x80", "bad \xff byte, lone \xed\xa0\x80 surrogate",
}

// The response shapes the server encoded with encoding/json before its
// row writer, rows boxed as [][]any.
type (
	oldQueryResponse struct {
		Columns       []Column `json:"columns"`
		Rows          [][]any  `json:"rows"`
		Into          string   `json:"into,omitempty"`
		Contradiction bool     `json:"contradiction,omitempty"`
		Notes         []string `json:"notes,omitempty"`
		ElapsedNS     int64    `json:"elapsed_ns"`
	}
	oldDeltas struct {
		Seq  int64   `json:"seq"`
		Rows [][]any `json:"rows"`
	}
)

// oldEncodeRows boxes rows as the server's encoder did: strings as
// strings, time and int cells as int64.
func oldEncodeRows(rows []relation.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		vals := make([]any, len(r))
		for j, v := range r {
			if v.Kind() == value.KindString {
				vals[j] = v.AsString()
			} else {
				vals[j] = v.AsInt()
			}
		}
		out[i] = vals
	}
	return out
}

// identityDB holds server_mixed's relations at a smaller scale, and E,
// whose strings cover every escape class.
func identityDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: 400, Seed: 1}))
	db.MustRegister(relation.FromTuples("X", workload.Tuples(workload.Config{N: 120, Lambda: 1, MeanDur: 25, LongFrac: 0.1, Seed: 2}, "x")))
	db.MustRegister(relation.FromTuples("Y", workload.Tuples(workload.Config{N: 120, Lambda: 1, MeanDur: 4, Seed: 3}, "y")))
	e := relation.New("E", relation.TupleSchema)
	for i, s := range escapeStrings {
		e.MustInsert(relation.Row{value.String_(s), value.String_(s + "|" + s),
			value.TimeVal(interval.Time(i)), value.TimeVal(interval.Forever)})
	}
	db.MustRegister(e)
	return db
}

// rawPost sends one request and returns the response body as sent.
func rawPost(t *testing.T, base, endpoint string, in any) []byte {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/"+Protocol+"/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, %v: %s", endpoint, resp.StatusCode, err, raw)
	}
	return raw
}

// Query, execute and delta responses are byte for byte what encoding/json
// wrote for the old [][]any shapes, on server_mixed's own statements and
// on strings of every escape class.
func TestResponsesByteIdenticalToEncodingJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: identityDB(t)})
	sid := openSession(t, ts.URL, "")
	var prep PrepareResponse
	if we := post(t, ts.URL, "prepare", PrepareRequest{Session: sid, Quel: benchPoint}, &prep); we != nil {
		t.Fatalf("prepare: %s: %s", we.Code, we.Message)
	}
	type read struct {
		name     string
		text     string
		params   []value.Value
		endpoint string
		req      any
	}
	reads := []read{
		{"wide", benchWide, nil, "query", QueryRequest{Quel: benchWide}},
		{"escapes", escapeRead, nil, "query", QueryRequest{Session: sid, Quel: escapeRead}},
	}
	for _, rank := range workload.Ranks {
		p := []value.Value{value.String_(rank)}
		reads = append(reads,
			read{"point " + rank, benchPoint, p, "query", QueryRequest{Quel: benchPoint, Params: []any{rank}}},
			read{"execute " + rank, benchPoint, p, "execute", ExecuteRequest{Session: sid, Stmt: prep.Stmt, Params: []any{rank}}},
		)
	}
	var all []relation.Row
	for _, r := range reads {
		raw := rawPost(t, ts.URL, r.endpoint, r.req)
		rows := embeddedRows(t, s.DB(), r.text, r.params)
		if len(rows) == 0 {
			t.Fatalf("%s: no rows to compare", r.name)
		}
		all = append(all, rows...)
		var elapsed struct {
			ElapsedNS int64 `json:"elapsed_ns"`
		}
		var cols struct {
			Columns []Column `json:"columns"`
		}
		if err := json.Unmarshal(raw, &elapsed); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &cols); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(oldQueryResponse{Columns: cols.Columns, Rows: oldEncodeRows(rows), ElapsedNS: elapsed.ElapsedNS})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s: %d response bytes differ from encoding/json's %d:\n%.300s\n%.300s", r.name, len(raw), len(want), raw, want)
		}
	}

	// Every envelope member, and the columns AppendJSON writes from a
	// schema, as encoding/json writes them.
	full := QueryResponse{
		Columns: encodeColumns(relation.TupleSchema), Rows: all[:40], Into: "E<&>",
		Contradiction: true, Notes: escapeStrings, ElapsedNS: -7,
	}
	want, err := json.Marshal(oldQueryResponse{Columns: full.Columns, Rows: oldEncodeRows(full.Rows), Into: full.Into,
		Contradiction: true, Notes: full.Notes, ElapsedNS: full.ElapsedNS})
	if err != nil {
		t.Fatal(err)
	}
	if got := full.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Errorf("full envelope:\n%s\nencoding/json:\n%s", got, want)
	}
	for _, empty := range []QueryResponse{{}, {Columns: []Column{}, Notes: []string{}}} {
		want, err := json.Marshal(oldQueryResponse{Columns: empty.Columns, Rows: [][]any{}, Notes: empty.Notes})
		if err != nil {
			t.Fatal(err)
		}
		if got := empty.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("empty response %+v: %s, encoding/json %s", empty, got, want)
		}
	}

	// Delta events, as the replay ring records and replays them.
	st := newSubState("r", "s", nil, 8)
	var sent [][]byte
	for i, rows := range [][]relation.Row{all, all[:1], nil} {
		want, err := json.Marshal(oldDeltas{Seq: int64(i + 1), Rows: oldEncodeRows(rows)})
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, want)
		if ev := st.appendEvent(rows); !bytes.Equal(ev.data, want) {
			t.Errorf("delta event %d: %d bytes differ from encoding/json's %d", i+1, len(ev.data), len(want))
		}
	}
	replay, apiErr := st.replaySince(0)
	if apiErr != nil || len(replay) != len(sent) {
		t.Fatalf("replay: %d events, %v", len(replay), apiErr)
	}
	for i, ev := range replay {
		if !bytes.Equal(ev.data, sent[i]) {
			t.Errorf("replayed event %d differs from the one sent", ev.seq)
		}
	}
}
