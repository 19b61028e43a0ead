package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"tdb/internal/fault"
)

// TestChaosTornWireWrite arms the wire-write failpoint in torn mode: the
// server sends a strict prefix of the response body and severs the
// connection. The client must see a hard decode/transport error — never
// a partial result that parses as complete.
func TestChaosTornWireWrite(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if err := fault.Arm("server/wire-write=torn:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	body, _ := json.Marshal(QueryRequest{Quel: facultyQuery})
	resp, err := http.Post(ts.URL+"/"+Protocol+"/query", "application/json", bytes.NewReader(body))
	if err == nil {
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			var qr QueryResponse
			if json.Unmarshal(raw, &qr) == nil {
				t.Fatalf("torn response decoded as a complete result: %.120s", raw)
			}
		}
	}

	// The failpoint fired once; the next query is whole again.
	var qr QueryResponse
	if we := post(t, ts.URL, "query", QueryRequest{Quel: facultyQuery}, &qr); we != nil {
		t.Fatalf("query after torn write: %s: %s", we.Code, we.Message)
	}
	if len(qr.Rows) == 0 {
		t.Error("recovered query returned no rows")
	}
}

// TestChaosExecuteError arms the execution failpoint in error mode and
// asserts the client gets a clean typed wire error.
func TestChaosExecuteError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if err := fault.Arm("server/execute=error:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	we := post(t, ts.URL, "query", QueryRequest{Quel: facultyQuery}, nil)
	if we == nil || we.Code != CodeExec {
		t.Fatalf("injected execute fault: %+v, want %s", we, CodeExec)
	}
	if we.Message == "" {
		t.Error("typed error carries no message")
	}
}

// TestChaosSubscribeDeliverSevers arms the per-event delivery failpoint:
// the stream dies with an abrupt EOF before the poisoned delta, so the
// client can detect the failure instead of consuming a gap.
func TestChaosSubscribeDeliverSevers(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: liveDB(t), SubscribePoll: 5 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	r, _ := startSubscribe(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})
	if ev, err := readEvent(r); err != nil || ev.name != "meta" {
		t.Fatalf("meta: %v %+v", err, ev)
	}
	if err := fault.Arm("server/subscribe-deliver=error:n=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	// alice × bob is the overlapping pair; carol and dave advance both
	// input frontiers past TS=2 so the stream operator may emit it (their
	// own pair stays below the frontier and is never released).
	for _, app := range []AppendRequest{
		{Relation: "F", Rows: wireRows([]any{"alice", "Assistant", 1, 10}), Flush: true},
		{Relation: "G", Rows: wireRows([]any{"bob", "Full", 2, 8}), Flush: true},
		{Relation: "F", Rows: wireRows([]any{"carol", "Full", 20, 25}), Flush: true},
		{Relation: "G", Rows: wireRows([]any{"dave", "Full", 21, 26}), Flush: true},
	} {
		if we := post(t, ts.URL, "append", app, nil); we != nil {
			t.Fatalf("append: %s", we.Message)
		}
	}
	_, err := readEvent(r)
	if err == nil {
		t.Fatal("stream delivered an event past the armed delivery fault")
	}
	if errors.Is(err, io.EOF) {
		return // the severed connection surfaced as EOF — detectable, not silent
	}
	// Any other transport error is equally detectable.
}
