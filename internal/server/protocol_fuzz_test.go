package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

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
