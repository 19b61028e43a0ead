package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"tdb/internal/engine"
	"tdb/internal/live"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/workload"
)

// liveDB is an empty two-relation catalog for streaming tests.
func liveDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	db.MustRegister(relation.New("F", workload.FacultySchema))
	db.MustRegister(relation.New("G", workload.FacultySchema))
	return db
}

const overlapSubscribe = `
range of f is F
range of g is G
subscribe watch (Name=f.Name) where (f overlap g)
`

type sseEvent struct {
	name string
	data []byte
}

// readEvent blocks until the next complete server-sent event.
func readEvent(r *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && ev.name != "":
			return ev, nil
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
}

// startSubscribe opens a cancelable subscription stream and returns its
// event reader.
func startSubscribe(t *testing.T, ts *httptest.Server, req SubscribeRequest) (*bufio.Reader, context.CancelFunc) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/"+Protocol+"/subscribe", bytes.NewReader(body))
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		cancel()
		t.Fatalf("subscribe: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, raw)
	}
	t.Cleanup(func() {
		cancel()
		resp.Body.Close()
	})
	return bufio.NewReader(resp.Body), cancel
}

func TestSubscribeStreamsDeltas(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: liveDB(t), SubscribePoll: 5 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	r, _ := startSubscribe(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})

	ev, err := readEvent(r)
	if err != nil {
		t.Fatalf("read meta: %v", err)
	}
	if ev.name != "meta" {
		t.Fatalf("first event %q, want meta", ev.name)
	}
	var meta SubscribeMeta
	if err := json.Unmarshal(ev.data, &meta); err != nil {
		t.Fatalf("decode meta: %v", err)
	}
	if meta.Mode != "incremental" {
		t.Errorf("mode %q, want incremental (overlap joins admit incrementally)", meta.Mode)
	}
	if len(meta.Columns) == 0 || meta.Columns[0].Name != "Name" {
		t.Errorf("meta columns = %+v", meta.Columns)
	}

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
			t.Fatalf("append %s: %s: %s", app.Relation, we.Code, we.Message)
		}
	}
	ev, err = readEvent(r)
	if err != nil {
		t.Fatalf("read deltas: %v", err)
	}
	if ev.name != "deltas" {
		t.Fatalf("event %q, want deltas", ev.name)
	}
	var deltas wireDeltas
	if err := json.Unmarshal(ev.data, &deltas); err != nil {
		t.Fatal(err)
	}
	if deltas.Seq != 1 || len(deltas.Rows) != 1 || deltas.Rows[0][0] != "alice" {
		t.Errorf("deltas = %+v, want seq 1 with alice", deltas)
	}

	// The streamed rows are exactly the standing query's recorded
	// emission prefix.
	var recorded []string
	if err := s.WithLive(func(m *live.Manager) error {
		for _, q := range m.Queries() {
			for _, row := range q.Deltas() {
				recorded = append(recorded, row[0].AsString())
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recorded) != 1 || recorded[0] != "alice" {
		t.Errorf("server-side standing query deltas = %v", recorded)
	}
}

func TestSubscribeDrainEventOnShutdown(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: liveDB(t), SubscribePoll: 5 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	r, _ := startSubscribe(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})
	if ev, err := readEvent(r); err != nil || ev.name != "meta" {
		t.Fatalf("meta: %v %+v", err, ev)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ev, err := readEvent(r)
	if err != nil {
		t.Fatalf("read drain: %v", err)
	}
	if ev.name != "drain" {
		t.Errorf("event %q, want drain", ev.name)
	}
	if _, err := readEvent(r); err == nil {
		t.Error("stream stayed open past the drain event")
	}
}

func TestSubscribeRejectsRetrieve(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: liveDB(t)})
	sid := openSession(t, ts.URL, "")
	we := post(t, ts.URL, "subscribe", SubscribeRequest{
		Session: sid, Quel: "range of f is F\nretrieve (f.Name)",
	}, nil)
	if we == nil || we.Code != CodeBadRequest {
		t.Errorf("retrieve on subscribe endpoint: %+v", we)
	}
}

// A poll_ms whose millisecond interval overflows time.Duration is a bad
// request, refused before anything registers; the longest interval that
// fits is accepted.
func TestSubscribePollMSOverflowRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: liveDB(t)})
	sid := openSession(t, ts.URL, "")
	longest := int64(math.MaxInt64 / int64(time.Millisecond))
	for _, ms := range []int64{longest + 1, math.MaxInt64} {
		we := post(t, ts.URL, "subscribe", SubscribeRequest{Session: sid, Quel: overlapSubscribe, PollMS: ms}, nil)
		if we == nil || we.Code != CodeBadRequest {
			t.Fatalf("poll_ms %d: %+v, want %s", ms, we, CodeBadRequest)
		}
	}
	s.mu.RLock()
	registered := len(s.live.Queries())
	s.mu.RUnlock()
	if registered != 0 {
		t.Fatalf("%d standing queries registered by refused subscribes", registered)
	}
	r, _ := startSubscribe(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe, PollMS: longest})
	if ev, err := readEvent(r); err != nil || ev.name != "meta" {
		t.Fatalf("poll_ms %d: first event %q, %v; want meta", longest, ev.name, err)
	}
}

// A negative after_seq is a bad request even when the ring has evicted
// nothing — not a replay-horizon error.
func TestResumeNegativeAfterSeqRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: liveDB(t), SubscribePoll: 2 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	r, cancel := startSubscribe(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})
	ev, err := readEvent(r)
	if err != nil || ev.name != "meta" {
		t.Fatalf("first event %q, %v; want meta", ev.name, err)
	}
	var meta SubscribeMeta
	if err := json.Unmarshal(ev.data, &meta); err != nil {
		t.Fatal(err)
	}
	cancel()
	we := post(t, ts.URL, "subscribe", SubscribeRequest{Session: sid, Resume: meta.Resume, AfterSeq: -1}, nil)
	if we == nil || we.Code != CodeBadRequest {
		t.Fatalf("resume after seq -1: %+v, want %s", we, CodeBadRequest)
	}
}

// promName is the Prometheus metric-name syntax.
var promName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// TestSubscriptionSeriesLegalAndDropped: a subscription's standing-query
// series carry Prometheus-legal names, although the server names the
// query <session>.<n>.<name>, and they leave the registry with the
// subscription.
func TestSubscriptionSeriesLegalAndDropped(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{DB: liveDB(t), Registry: reg, SubscribePoll: 5 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	r, _ := startSubscribe(t, ts, SubscribeRequest{Session: sid, Quel: overlapSubscribe})
	if ev, err := readEvent(r); err != nil || ev.name != "meta" {
		t.Fatalf("first event %q (%v), want meta", ev.name, err)
	}
	exposition := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := exposition()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		name := ""
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(rest, " ")
		} else if !strings.HasPrefix(line, "#") {
			name, _, _ = strings.Cut(line, " ")
			name, _, _ = strings.Cut(name, "{")
		}
		if name != "" && !promName.MatchString(name) {
			t.Errorf("illegal metric name %q in %q", name, line)
		}
	}
	series := []string{"tdb_live_backlog_", "tdb_live_workspace_hwm_", "tdb_live_deltas_total_"}
	for _, prefix := range series {
		if !strings.Contains(out, "# TYPE "+prefix) {
			t.Errorf("no %s series while subscribed:\n%s", prefix, out)
		}
	}
	if we := post(t, ts.URL, "session/close", SessionCloseRequest{Session: sid}, nil); we != nil {
		t.Fatalf("close session: %s", we.Message)
	}
	out = exposition()
	for _, prefix := range series {
		if strings.Contains(out, prefix) {
			t.Errorf("%s series left after the subscription ended:\n%s", prefix, out)
		}
	}
}
