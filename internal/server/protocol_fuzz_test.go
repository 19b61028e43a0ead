package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// FuzzAppendRequest feeds arbitrary bytes through the append decoder:
// decodeBody into an AppendRequest, then decodeRows over its rows, under
// the canonical tuple schema and under a schema with an Int column. Each
// step yields a value or a typed bad-request *Error, never a panic, and a
// decoded row has one cell of the column's kind per column. The rows are
// cross-checked against the decoder decodeRows replaced, encoding/json
// into [][]any with UseNumber and then oldDecodeRow per row: both reject,
// or both accept the same rows.
func FuzzAppendRequest(f *testing.F) {
	for _, req := range []AppendRequest{
		{Relation: "F", Rows: wireRows([]any{"alice", "Assistant", 1, 10}), Flush: true},
		{Relation: "G", Rows: wireRows([]any{"bob", "Full", 2, 8}), Flush: true},
		{Relation: "F", Rows: wireRows([]any{"zoe", "Full", 1, 5}), Flush: true, IdemKey: "k-dup-1"},
		{Relation: "Faculty", Rows: wireRows([]any{"zz-wire", "Full", 5000, 6000}), Flush: true},
		{Relation: "NoSuch", Rows: wireRows([]any{"x"})},
		{Relation: "F", Flush: true},
		{Session: "s1", Tenant: "t1", Relation: "F", Rows: wireRows([]any{"a", "Full", 10, 20}, []any{"b", "Full", 10, 20}), Slack: 5, IdemKey: "k"},
		{Relation: "F", Rows: wireRows([]any{"a", 7, 10, 20}, []any{"<\u2028>", "b", -0, 9223372036854775806})},
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
		`{"relation":"F","rows":[["a","b",-0,1],null]}`,
		`{"relation":"F","rows":[["\ud800","\u00e9",1,2]]}`,
		`{"relation":"F","rows":"x"}`,
		`{"relation":"F","rows":[[]]`,
		`{"relation":"F","rows":[["a","b",1,2]],"flush":true} garbage`,
		`{"relation":"F","rows":[]}{"relation":"F","rows":[]}`,
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
			rows, apiErr := decodeRows(sch, req.Rows)
			want, oldErr := oldDecodeRows(sch, req.Rows)
			if (apiErr == nil) != (oldErr == nil) {
				t.Fatalf("%s under %s: decodeRows %v, old decoder %v", req.Rows, sch, apiErr, oldErr)
			}
			if apiErr != nil {
				typed(t, "decodeRows", apiErr)
				continue
			}
			if len(rows) != len(want) {
				t.Fatalf("%s: %d rows, old decoder %d", req.Rows, len(rows), len(want))
			}
			for i, row := range rows {
				if len(row) != sch.Arity() || !row.Equal(want[i]) {
					t.Fatalf("row %d: %v, old decoder %v", i, row, want[i])
				}
				for j, v := range row {
					if v.Kind() != sch.Cols[j].Kind {
						t.Fatalf("cell %d of %v is a %v, column %s wants a %v", j, row, v.Kind(), sch.Cols[j].Name, sch.Cols[j].Kind)
					}
				}
			}
		}
	})
}

// oldDecodeRows is the append rows decoder decodeRows replaced: the rows
// boxed as [][]any by encoding/json with UseNumber, then converted cell by
// cell under the schema and checked.
func oldDecodeRows(s *relation.Schema, raw json.RawMessage) ([]relation.Row, error) {
	var in [][]any
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		if err := dec.Decode(&in); err != nil {
			return nil, err
		}
	}
	out := make([]relation.Row, len(in))
	for i, cells := range in {
		if len(cells) != s.Arity() {
			return nil, fmt.Errorf("row %d: arity %d", i, len(cells))
		}
		row := make(relation.Row, len(cells))
		for j, cell := range cells {
			kind := s.Cols[j].Kind
			switch v := cell.(type) {
			case string:
				if kind != value.KindString {
					return nil, fmt.Errorf("row %d: string in a %v column", i, kind)
				}
				row[j] = value.String_(v)
			case json.Number:
				n, err := v.Int64()
				if err != nil || kind == value.KindString {
					return nil, fmt.Errorf("row %d: number %s in a %v column", i, v, kind)
				}
				if kind == value.KindTime {
					row[j] = value.TimeVal(interval.Time(n))
				} else {
					row[j] = value.Int(n)
				}
			default:
				return nil, fmt.Errorf("row %d: JSON %T", i, cell)
			}
		}
		if err := s.CheckRow(row); err != nil {
			return nil, err
		}
		out[i] = row
	}
	return out, nil
}

// fuzzServer is a server over a small Faculty catalog for the handler
// fuzz targets, which drive its endpoints through Handler.
func fuzzServer(f *testing.F) *Server {
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: 20, Seed: 7}))
	s := New(Config{DB: db, Registry: obs.NewRegistry()})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// serve runs one request through the server's handler and returns the
// status and body. A non-200 body must be a typed error envelope whose
// code is one of codes and travels under that code's status.
func serve(t *testing.T, s *Server, endpoint string, body []byte, codes ...string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/"+Protocol+"/"+endpoint, bytes.NewReader(body)))
	if rec.Code == http.StatusOK {
		return rec.Code, rec.Body.Bytes()
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("%s: status %d with an untyped body %q", endpoint, rec.Code, rec.Body.Bytes())
	}
	if !slices.Contains(codes, env.Error.Code) || rec.Code != httpStatus(env.Error.Code) {
		t.Fatalf("%s: status %d, error %+v; want one of %v under its status", endpoint, rec.Code, env.Error, codes)
	}
	return rec.Code, rec.Body.Bytes()
}

// FuzzSessionRequest feeds arbitrary bytes to /v1/session (open) and
// /v1/session/close through the server's handler. Open yields a session
// of a configured tenant or a typed bad_request/unknown_tenant; close
// yields {"status":"closed"} or a typed bad_request. Never a panic.
func FuzzSessionRequest(f *testing.F) {
	for _, v := range []any{
		SessionOpenRequest{}, SessionOpenRequest{Tenant: "default"}, SessionOpenRequest{Tenant: "nope"},
		SessionCloseRequest{Session: "s1"}, SessionCloseRequest{},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, false)
		f.Add(body, true)
	}
	for _, raw := range []string{`{"tenant":7}`, `{"session":null}`, `null`, `[]`, `{"tenant":"default"`, `{"tenant":"default"} garbage`, `{"session":"s1"}{}`, ``} {
		f.Add([]byte(raw), false)
		f.Add([]byte(raw), true)
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte, close bool) {
		if close {
			if code, out := serve(t, s, "session/close", body, CodeBadRequest); code == http.StatusOK && string(out) != `{"status":"closed"}` {
				t.Fatalf("close answered %s", out)
			}
			return
		}
		code, out := serve(t, s, "session", body, CodeBadRequest, CodeUnknownTenant)
		if code != http.StatusOK {
			return
		}
		var resp SessionOpenResponse
		if err := json.Unmarshal(out, &resp); err != nil || resp.Session == "" || resp.Protocol != Protocol || resp.Tenant != "default" {
			t.Fatalf("open answered %s (%v)", out, err)
		}
		s.sessions.close(resp.Session)
	})
}

// FuzzPrepareRequest feeds arbitrary bytes to /v1/prepare through the
// server's handler, once against an open session (the body's session is
// replaced by it when the body decodes) and once as sent. The answer is a
// prepared statement whose columns match its output schema, or a typed
// bad_request, unknown_session, parse_error or translate_error. Never a
// panic or a hang.
func FuzzPrepareRequest(f *testing.F) {
	for _, q := range []string{
		"range of f is Faculty\nretrieve (f.Name, f.ValidFrom) where f.Rank = $1",
		"range of f is Faculty\nretrieve (f.Name) where f.Rank = $1 and f.ValidFrom >= $2",
		"range of f is Faculty\nretrieve into E (f.Name)",
		"range of f is Faculty\nsubscribe s (f.Name)",
		"range of f is Nope\nretrieve (f.Name)",
		"range of f is Faculty",
		"retrieve (",
	} {
		body, err := json.Marshal(PrepareRequest{Session: "s1", Quel: q})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, true)
	}
	for _, raw := range []string{`{"session":"s1"}`, `{"quel":7}`, `{"session":"s1","quel":"x"`, `{"session":"s1","quel":"range of f is Faculty\nretrieve (f.Name)"} garbage`, `null`, ``} {
		f.Add([]byte(raw), false)
		f.Add([]byte(raw), true)
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte, inSession bool) {
		if inSession {
			var req PrepareRequest
			if json.Unmarshal(body, &req) == nil {
				code, out := serve(t, s, "session", []byte(`{}`))
				var open SessionOpenResponse
				if code != http.StatusOK || json.Unmarshal(out, &open) != nil {
					t.Fatalf("open session: %d %s", code, out)
				}
				defer s.sessions.close(open.Session)
				req.Session = open.Session
				var err error
				if body, err = json.Marshal(req); err != nil {
					t.Fatal(err)
				}
			}
		}
		code, out := serve(t, s, "prepare", body, CodeBadRequest, CodeUnknownSession, CodeParse, CodeTranslate)
		if code != http.StatusOK {
			return
		}
		var resp PrepareResponse
		if err := json.Unmarshal(out, &resp); err != nil || resp.Stmt == "" || resp.NumParams < 0 {
			t.Fatalf("prepare answered %s (%v)", out, err)
		}
		for _, c := range resp.Columns {
			if c.Name == "" || (c.Kind != "string" && c.Kind != "time" && c.Kind != "int") {
				t.Fatalf("prepare answered column %+v", c)
			}
		}
	})
}

// FuzzQueryRequest feeds arbitrary bytes through the parameter path of
// /v1/query (execute false) and /v1/execute (execute true): decodeBody
// into the request, decodeParams over its params, then paramKey over the
// values. decodeBody yields a request or a typed bad_request, and
// decodeParams values or a typed bind_error, never a panic; every value
// is the string a JSON string carried or the chronon a JSON integer did,
// and paramKey is empty exactly for no parameters and stable across
// decodes.
func FuzzQueryRequest(f *testing.F) {
	for _, params := range [][]any{nil, {"Full"}, {"Assistant", 7}, {int64(1) << 60, "x"}} {
		q, err := json.Marshal(QueryRequest{Quel: "range of f is Faculty\nretrieve (f.Name) where f.Rank = $1", Params: params})
		if err != nil {
			f.Fatal(err)
		}
		e, err := json.Marshal(ExecuteRequest{Session: "s1", Stmt: "p1", Params: params})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(q, false)
		f.Add(e, true)
	}
	for _, p := range []string{`1e400`, `1.5`, `-0`, `9223372036854775808`, `null`, `true`, `{}`} {
		f.Add([]byte(`{"quel":"x","params":[`+p+`]}`), false)
		f.Add([]byte(`{"session":"s","stmt":"p","params":["a",`+p+`]}`), true)
	}
	f.Add([]byte(`{"params":"x"}`), false)
	f.Add([]byte(`{"quel":"range of f is Faculty\nretrieve (f.Name)"} garbage`), false)
	f.Add([]byte(`{"session":"s","stmt":"p","params":["a"]}]`), true)
	f.Add([]byte(``), true)
	f.Fuzz(func(t *testing.T, body []byte, execute bool) {
		var qreq QueryRequest
		var ereq ExecuteRequest
		endpoint, dst := "query", any(&qreq)
		if execute {
			endpoint, dst = "execute", &ereq
		}
		r := httptest.NewRequest(http.MethodPost, "/"+Protocol+"/"+endpoint, bytes.NewReader(body))
		if apiErr := decodeBody(r, dst); apiErr != nil {
			if apiErr.Code != CodeBadRequest || apiErr.HTTP != http.StatusBadRequest {
				t.Fatalf("decodeBody: error %+v, want a typed %s", apiErr, CodeBadRequest)
			}
			return
		}
		in := qreq.Params
		if execute {
			in = ereq.Params
		}
		vals, apiErr := decodeParams(in)
		if apiErr != nil {
			if apiErr.Code != CodeBind || apiErr.HTTP != http.StatusBadRequest {
				t.Fatalf("decodeParams: error %+v, want a typed %s", apiErr, CodeBind)
			}
			return
		}
		if len(vals) != len(in) {
			t.Fatalf("%d values for %d params", len(vals), len(in))
		}
		for i, v := range vals {
			switch p := in[i].(type) {
			case string:
				if v.Kind() != value.KindString || v.AsString() != p {
					t.Fatalf("param %d: string %q decoded as %v", i, p, v)
				}
			case json.Number:
				n, err := p.Int64()
				if err != nil || v.Kind() != value.KindTime || v.AsInt() != n {
					t.Fatalf("param %d: number %s decoded as %v (%v)", i, p, v, err)
				}
			default:
				t.Fatalf("param %d: JSON %T decoded as %v", i, p, v)
			}
		}
		key := paramKey(vals)
		if (key == "") != (len(vals) == 0) {
			t.Fatalf("paramKey %q for %d values", key, len(vals))
		}
		again, _ := decodeParams(in)
		if paramKey(again) != key {
			t.Fatalf("paramKey unstable: %q then %q", key, paramKey(again))
		}
	})
}

// FuzzSubscribeRequest feeds arbitrary bytes through the subscribe
// decoder and validator, then resumes the decoded after_seq against a
// replay ring of fuzzed capacity and length. A request is a value or a
// typed bad-request *Error; a valid one's poll interval does not wrap;
// and replaySince returns exactly the events after after_seq, contiguous
// up to the head, or a typed error — bad_request for a seq outside
// [0, head], resume_horizon only when the ring evicted an event the
// resume needs. Never a panic.
func FuzzSubscribeRequest(f *testing.F) {
	for _, req := range []SubscribeRequest{
		{Session: "s1", Quel: overlapSubscribe, PollMS: 5},
		{Session: "s1", Resume: "s1.1.watch", AfterSeq: 3},
		{Session: "s1", Resume: "s1.1.watch", AfterSeq: -1},
		{Session: "s1", Resume: "s1.1.watch", Quel: "x"},
		{Session: "s1", Quel: overlapSubscribe, PollMS: maxPollMS},
		{Session: "s1", Quel: overlapSubscribe, PollMS: maxPollMS + 1},
		{Quel: overlapSubscribe},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, uint8(4), uint8(9))
	}
	for _, raw := range []string{
		`{"session":"s","resume":"r","after_seq":-9223372036854775808}`,
		`{"session":"s","resume":"r","after_seq":9223372036854775807}`,
		`{"session":"s","poll_ms":-1}`,
		`{"session":"s","after_seq":1.5}`,
		`{"session":"s","resume":"r","after_seq":2} garbage`,
		``,
	} {
		f.Add([]byte(raw), uint8(0), uint8(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, ringCap, events uint8) {
		r := httptest.NewRequest(http.MethodPost, "/"+Protocol+"/subscribe", bytes.NewReader(body))
		var req SubscribeRequest
		apiErr := decodeBody(r, &req)
		if apiErr == nil {
			apiErr = req.validate()
		}
		if apiErr != nil {
			if apiErr.Code != CodeBadRequest || apiErr.HTTP != http.StatusBadRequest {
				t.Fatalf("error %+v, want a typed %s", apiErr, CodeBadRequest)
			}
			return
		}
		if req.PollMS > 0 && time.Duration(req.PollMS)*time.Millisecond <= 0 {
			t.Fatalf("poll_ms %d passed validation but wraps to %v", req.PollMS, time.Duration(req.PollMS)*time.Millisecond)
		}

		capacity := 1 + int(ringCap)%32
		st := newSubState("r", "s", nil, capacity)
		head := int64(events)
		for i := int64(0); i < head; i++ {
			st.appendEvent(nil)
		}
		oldest := max(1, head-int64(capacity)+1)
		after := req.AfterSeq
		replay, apiErr := st.replaySince(after)
		switch {
		case after < 0 || after > head:
			if apiErr == nil || apiErr.Code != CodeBadRequest {
				t.Fatalf("after_seq %d, head %d: %+v, want %s", after, head, apiErr, CodeBadRequest)
			}
		case after+1 < oldest:
			if apiErr == nil || apiErr.Code != CodeResumeHorizon {
				t.Fatalf("after_seq %d, ring retains [%d, %d]: %+v, want %s", after, oldest, head, apiErr, CodeResumeHorizon)
			}
		default:
			if apiErr != nil {
				t.Fatalf("after_seq %d, ring retains [%d, %d]: %+v", after, oldest, head, apiErr)
			}
			if int64(len(replay)) != head-after {
				t.Fatalf("after_seq %d, head %d: replayed %d events", after, head, len(replay))
			}
			for i, ev := range replay {
				if ev.seq != after+1+int64(i) {
					t.Fatalf("replay %d has seq %d, want %d", i, ev.seq, after+1+int64(i))
				}
			}
		}
	})
}
