package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"tdb/internal/relation"
	"tdb/internal/workload"
)

// postBody sends a raw request body and returns the status with the typed
// error it carried, if any. A 200 body is read only up to the headers'
// arrival, so a subscription stream is closed, not read.
func postBody(t *testing.T, base, endpoint string, body []byte) (int, *wireError) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/"+Protocol+"/"+endpoint, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post %s: %v", endpoint, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, nil
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", endpoint, err)
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("%s: status %d with undecodable body %q", endpoint, resp.StatusCode, raw)
	}
	return resp.StatusCode, &env.Error
}

// Every request body decodeBody reads is one JSON value: anything but
// white space after it is a bad_request, and the request does nothing.
// The same body followed by white space alone is accepted.
func TestRequestBodiesRejectTrailingData(t *testing.T) {
	db := testDB(t, 40)
	db.MustRegister(relation.New("F", workload.FacultySchema))
	db.MustRegister(relation.New("G", workload.FacultySchema))
	_, ts := newTestServer(t, Config{DB: db, SubscribePoll: 5 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	var prep PrepareResponse
	if we := post(t, ts.URL, "prepare", PrepareRequest{Session: sid, Quel: "range of f is Faculty\nretrieve (f.Name) where f.Rank = $1"}, &prep); we != nil {
		t.Fatalf("prepare: %s: %s", we.Code, we.Message)
	}
	query := "range of f is Faculty\nretrieve (f.Name) where f.Rank = \"Full\""
	cases := []struct {
		endpoint string
		req      func() any // a fresh request, valid on its own
	}{
		{"session", func() any { return SessionOpenRequest{} }},
		{"session/close", func() any { return SessionCloseRequest{Session: openSession(t, ts.URL, "")} }},
		{"query", func() any { return QueryRequest{Quel: query} }},
		{"prepare", func() any { return PrepareRequest{Session: sid, Quel: query} }},
		{"execute", func() any { return ExecuteRequest{Session: sid, Stmt: prep.Stmt, Params: []any{"Full"}} }},
		{"stmt/close", func() any {
			var p PrepareResponse
			if we := post(t, ts.URL, "prepare", PrepareRequest{Session: sid, Quel: query}, &p); we != nil {
				t.Fatalf("prepare: %s: %s", we.Code, we.Message)
			}
			return CloseStmtRequest{Session: sid, Stmt: p.Stmt}
		}},
		{"append", func() any {
			return AppendRequest{Session: sid, Relation: "F", Rows: wireRows([]any{"ada", "Full", 1, 9}), Flush: true}
		}},
		{"subscribe", func() any { return SubscribeRequest{Session: openSession(t, ts.URL, ""), Quel: overlapSubscribe} }},
	}
	for _, c := range cases {
		t.Run(c.endpoint, func(t *testing.T) {
			for _, trail := range []string{" garbage", "x", "{}", `{"quel":"x"}`, "\n1", " null", "]"} {
				body, err := json.Marshal(c.req())
				if err != nil {
					t.Fatal(err)
				}
				code, we := postBody(t, ts.URL, c.endpoint, append(body, trail...))
				if code != http.StatusBadRequest || we == nil || we.Code != CodeBadRequest {
					t.Fatalf("%s followed by %q: status %d, error %+v; want %s", body, trail, code, we, CodeBadRequest)
				}
			}
			body, err := json.Marshal(c.req())
			if err != nil {
				t.Fatal(err)
			}
			if code, we := postBody(t, ts.URL, c.endpoint, append(body, " \n\t\r\n"...)); code != http.StatusOK {
				t.Fatalf("%s followed by white space: status %d, error %+v; want 200", body, code, we)
			}
		})
	}
}
