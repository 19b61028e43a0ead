package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/wire"
	"tdb/internal/workload"
)

func testDB(t *testing.T, n int) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: n, Seed: 7}))
	return db
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = testDB(t, 40)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// post sends one protocol request and decodes the response (or wire
// error) with number preservation.
func post(t *testing.T, base, endpoint string, in, out any) *wireError {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(base+"/"+Protocol+"/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post %s: %v", endpoint, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", endpoint, err)
	}
	if resp.StatusCode != http.StatusOK {
		var env errorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: status %d with undecodable body %q", endpoint, resp.StatusCode, raw)
		}
		return &env.Error
	}
	if out != nil {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		if err := dec.Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", endpoint, err)
		}
	}
	return nil
}

func openSession(t *testing.T, base, tenant string) string {
	t.Helper()
	var resp SessionOpenResponse
	if we := post(t, base, "session", SessionOpenRequest{Tenant: tenant}, &resp); we != nil {
		t.Fatalf("open session: %s: %s", we.Code, we.Message)
	}
	if resp.Protocol != Protocol {
		t.Fatalf("protocol %q, want %q", resp.Protocol, Protocol)
	}
	return resp.Session
}

const facultyQuery = `
range of f is Faculty
retrieve (f.Name, f.Rank) where f.Rank = "Full"
`

// embeddedRows runs a statement through the embedded engine — the
// reference the wire path must reproduce byte-for-byte.
func embeddedRows(t *testing.T, db *engine.DB, text string, params []value.Value) []relation.Row {
	t.Helper()
	prog, err := quel.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	qs, err := quel.Translate(prog, db)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	tree, err := quel.BindParams(&qs[0], params)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	res, err := optimizer.Optimize(tree, db, optimizer.Options{ICs: db.ChronOrders()})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	out, _, err := engine.Run(db, res.Tree, engine.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.Rows
}

// normalize renders rows as their wire encoding, so rows compare by
// kind and value.
func normalize(t *testing.T, rows []relation.Row) string {
	t.Helper()
	return string(wire.AppendRows(nil, rows))
}

// wireRows encodes append rows as a client does.
func wireRows(rows ...[]any) json.RawMessage {
	b, err := json.Marshal(rows)
	if err != nil {
		panic(err) // lint:allow panic — test fixture of literal rows
	}
	return b
}

func TestQueryMatchesEmbedded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sid := openSession(t, ts.URL, "")

	var resp QueryResponse
	if we := post(t, ts.URL, "query", QueryRequest{Session: sid, Quel: facultyQuery}, &resp); we != nil {
		t.Fatalf("query: %s: %s", we.Code, we.Message)
	}
	want := embeddedRows(t, s.DB(), facultyQuery, nil)
	if normalize(t, resp.Rows) != normalize(t, want) {
		t.Errorf("wire rows diverge from embedded run:\n wire %s\n want %s",
			normalize(t, resp.Rows), normalize(t, want))
	}
	if len(resp.Columns) != 2 || resp.Columns[0].Name != "Name" || resp.Columns[0].Kind != "string" {
		t.Errorf("columns = %+v", resp.Columns)
	}
}

func TestSessionlessQueryAndIntoRejection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp QueryResponse
	if we := post(t, ts.URL, "query", QueryRequest{Quel: facultyQuery}, &resp); we != nil {
		t.Fatalf("sessionless query: %s: %s", we.Code, we.Message)
	}
	if len(resp.Rows) == 0 {
		t.Error("sessionless query returned no rows")
	}
	we := post(t, ts.URL, "query", QueryRequest{Quel: `
range of f is Faculty
retrieve into Snap (f.Name) where f.Rank = "Full"
`}, nil)
	if we == nil || we.Code != CodeBadRequest {
		t.Errorf("sessionless into: %+v, want %s", we, CodeBadRequest)
	}
}

func TestIntoIsSessionPrivate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	s1 := openSession(t, ts.URL, "")
	s2 := openSession(t, ts.URL, "")

	intoStmt := `
range of f is Faculty
retrieve into Snap (f.Name, f.ValidFrom, f.ValidTo) where f.Rank = "Full"
`
	var resp QueryResponse
	if we := post(t, ts.URL, "query", QueryRequest{Session: s1, Quel: intoStmt}, &resp); we != nil {
		t.Fatalf("into: %s: %s", we.Code, we.Message)
	}
	if resp.Into != "Snap" {
		t.Errorf("into = %q", resp.Into)
	}
	readBack := "range of s is Snap\nretrieve (s.Name)"
	if we := post(t, ts.URL, "query", QueryRequest{Session: s1, Quel: readBack}, &resp); we != nil {
		t.Fatalf("read back in owning session: %s: %s", we.Code, we.Message)
	}
	if we := post(t, ts.URL, "query", QueryRequest{Session: s2, Quel: readBack}, nil); we == nil || we.Code != CodeTranslate {
		t.Errorf("other session sees Snap: %+v", we)
	}
}

func TestPrepareExecuteRebind(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sid := openSession(t, ts.URL, "")

	src := "range of f is Faculty\nretrieve (f.Name, f.Rank) where f.Rank = $1"
	var prep PrepareResponse
	if we := post(t, ts.URL, "prepare", PrepareRequest{Session: sid, Quel: src}, &prep); we != nil {
		t.Fatalf("prepare: %s: %s", we.Code, we.Message)
	}
	if prep.NumParams != 1 || len(prep.Columns) != 2 {
		t.Fatalf("prepare = %+v", prep)
	}
	for _, rank := range []string{"Full", "Assistant", "Full"} {
		var resp QueryResponse
		if we := post(t, ts.URL, "execute", ExecuteRequest{
			Session: sid, Stmt: prep.Stmt, Params: []any{rank},
		}, &resp); we != nil {
			t.Fatalf("execute %s: %s: %s", rank, we.Code, we.Message)
		}
		want := embeddedRows(t, s.DB(), src, []value.Value{value.String_(rank)})
		if normalize(t, resp.Rows) != normalize(t, want) {
			t.Errorf("rank %s: wire/embedded divergence", rank)
		}
		for _, row := range resp.Rows {
			if row[1].AsString() != rank {
				t.Fatalf("rank %s: got row %v — stale binding from an earlier execute", rank, row)
			}
		}
	}
	// The repeat binding hit the plan cache: still exactly two plans.
	we := post(t, ts.URL, "stmt/close", CloseStmtRequest{Session: sid, Stmt: prep.Stmt}, nil)
	if we != nil {
		t.Fatalf("close stmt: %s", we.Code)
	}
	if we := post(t, ts.URL, "execute", ExecuteRequest{Session: sid, Stmt: prep.Stmt}, nil); we == nil || we.Code != CodeUnknownStatement {
		t.Errorf("execute after close: %+v", we)
	}
}

func TestQueryParamsOverWire(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sid := openSession(t, ts.URL, "")
	src := "range of f is Faculty\nretrieve (f.Name) where f.Rank = $1 and f.ValidFrom >= $2"
	var resp QueryResponse
	if we := post(t, ts.URL, "query", QueryRequest{
		Session: sid, Quel: src, Params: []any{"Full", 10},
	}, &resp); we != nil {
		t.Fatalf("query: %s: %s", we.Code, we.Message)
	}
	want := embeddedRows(t, s.DB(), src, []value.Value{value.String_("Full"), value.TimeVal(10)})
	if normalize(t, resp.Rows) != normalize(t, want) {
		t.Error("parameterized wire query diverges from embedded run")
	}
	// Kind mismatch is a typed bind error.
	if we := post(t, ts.URL, "query", QueryRequest{
		Session: sid, Quel: src, Params: []any{7, 10},
	}, nil); we == nil || we.Code != CodeBind {
		t.Errorf("kind mismatch: %+v", we)
	}
}

func TestTenantQuotaRejectsAndMeters(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Registry: reg,
		Tenants: []TenantConfig{
			{Name: "alpha", MaxConcurrent: 1, MaxQueue: -1, QueueTimeout: 50 * time.Millisecond},
			{Name: "beta"},
		},
	})
	// Hold alpha's only slot.
	ten, apiErr := s.adm.tenant("alpha")
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if apiErr := ten.acquire(context.Background(), s.draining); apiErr != nil {
		t.Fatal(apiErr)
	}
	we := post(t, ts.URL, "query", QueryRequest{Tenant: "alpha", Quel: facultyQuery}, nil)
	if we == nil || we.Code != CodeQuotaConcurrency {
		t.Fatalf("over-quota query: %+v, want %s", we, CodeQuotaConcurrency)
	}
	// beta is unaffected.
	var resp QueryResponse
	if we := post(t, ts.URL, "query", QueryRequest{Tenant: "beta", Quel: facultyQuery}, &resp); we != nil {
		t.Fatalf("beta query: %s", we.Code)
	}
	ten.release()
	if we := post(t, ts.URL, "query", QueryRequest{Tenant: "alpha", Quel: facultyQuery}, &resp); we != nil {
		t.Fatalf("alpha query after release: %s", we.Code)
	}
	// Per-tenant series: alpha one rejection + one success, beta no rejection.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	for _, want := range []string{
		"tdb_server_tenant_alpha_rejected_total 1",
		"tdb_server_tenant_alpha_queries_total 1",
		"tdb_server_tenant_beta_queries_total 1",
		"tdb_server_sessions_active",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if we := post(t, ts.URL, "query", QueryRequest{Tenant: "nosuch", Quel: facultyQuery}, nil); we == nil || we.Code != CodeUnknownTenant {
		t.Errorf("unknown tenant: %+v", we)
	}
}

func TestQueueTimeoutTyped(t *testing.T) {
	s, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "default", MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond}},
	})
	ten, _ := s.adm.tenant("")
	if apiErr := ten.acquire(context.Background(), s.draining); apiErr != nil {
		t.Fatal(apiErr)
	}
	defer ten.release()
	apiErr := ten.acquire(context.Background(), s.draining)
	if apiErr == nil || apiErr.Code != CodeQueueTimeout {
		t.Fatalf("queued acquire: %+v, want %s", apiErr, CodeQueueTimeout)
	}
}

func TestServerSideCancellation(t *testing.T) {
	db := testDB(t, 900)
	s, ts := newTestServer(t, Config{DB: db})
	// Project both sides under distinct names: single-side output would be
	// recognized as a fast stream semijoin, but the two-sided join runs the
	// conventional loops, which poll the interrupt hook as they go.
	slow := `
range of a is Faculty
range of b is Faculty
retrieve (NameA=a.Name, NameB=b.Name) where a.Name != b.Name and a.Rank = "Full" and b.Rank = "Full"
`
	body, _ := json.Marshal(QueryRequest{Quel: slow})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/"+Protocol+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, err = http.DefaultClient.Do(req)
	if err == nil {
		t.Fatal("slow query finished under a 25ms deadline; not exercising cancellation")
	}
	// The server observed the cancellation: the default tenant's error
	// counter moved and no query completed for it.
	ten, _ := s.adm.tenant("")
	deadline := time.Now().Add(2 * time.Second)
	for ten.cErrors.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ten.cErrors.Value() == 0 {
		t.Error("server never recorded the canceled query")
	}
	if ten.cQueries.Value() != 0 {
		t.Error("canceled query counted as completed")
	}
}

func TestIdleSessionExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{IdleTimeout: 30 * time.Millisecond})
	sid := openSession(t, ts.URL, "")
	deadline := time.Now().Add(2 * time.Second)
	for s.sessions.count() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.sessions.count(); n != 0 {
		t.Fatalf("%d sessions still open after idle timeout", n)
	}
	if we := post(t, ts.URL, "query", QueryRequest{Session: sid, Quel: facultyQuery}, nil); we == nil || we.Code != CodeUnknownSession {
		t.Errorf("query on expired session: %+v", we)
	}
}

func TestDrainRejectsAndAbortsWaiters(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "default", MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 10 * time.Second}},
	})
	ten, _ := s.adm.tenant("")
	if apiErr := ten.acquire(context.Background(), s.draining); apiErr != nil {
		t.Fatal(apiErr)
	}
	var (
		wg     sync.WaitGroup
		waited *Error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		waited = ten.acquire(context.Background(), s.draining)
	}()
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if waited == nil || waited.Code != CodeDraining {
		t.Errorf("queued waiter during drain: %+v, want %s", waited, CodeDraining)
	}
	// Ping bypasses the drain gate so readiness stays observable: 200
	// with status "draining", while every other endpoint rejects.
	resp, err := http.Post(ts.URL+"/"+Protocol+"/ping", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("ping after drain: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-drain ping status %d, want 200", resp.StatusCode)
	}
	var ping PingResponse
	if err := json.NewDecoder(resp.Body).Decode(&ping); err != nil {
		t.Fatalf("decode ping: %v", err)
	}
	if ping.Status != "draining" {
		t.Errorf("post-drain ping status %q, want \"draining\"", ping.Status)
	}
	var qe *wireError
	if we := post(t, ts.URL, "query", QueryRequest{Tenant: "", Quel: "retrieve (f.Name)"}, nil); we != nil {
		qe = we
	}
	if qe == nil || qe.Code != CodeDraining {
		t.Errorf("post-drain query error %+v, want %s", qe, CodeDraining)
	}
	ten.release()
}

func TestAppendFeedsQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sid := openSession(t, ts.URL, "")
	var before QueryResponse
	countStmt := "range of f is Faculty\nretrieve (f.Name) where f.Name = \"zz-wire\""
	if we := post(t, ts.URL, "query", QueryRequest{Session: sid, Quel: countStmt}, &before); we != nil {
		t.Fatal(we.Message)
	}
	if len(before.Rows) != 0 {
		t.Fatalf("sentinel row already present")
	}
	var app AppendResponse
	if we := post(t, ts.URL, "append", AppendRequest{
		Relation: "Faculty",
		Rows:     wireRows([]any{"zz-wire", "Full", 5000, 6000}),
		Flush:    true,
	}, &app); we != nil {
		t.Fatalf("append: %s: %s", we.Code, we.Message)
	}
	if app.Appended != 1 || app.Released == 0 {
		t.Fatalf("append = %+v", app)
	}
	var after QueryResponse
	if we := post(t, ts.URL, "query", QueryRequest{Session: sid, Quel: countStmt}, &after); we != nil {
		t.Fatal(we.Message)
	}
	if len(after.Rows) != 1 {
		t.Errorf("appended row not visible to queries: %d rows", len(after.Rows))
	}
	// A row behind the watermark is a typed late-tuple rejection.
	if we := post(t, ts.URL, "append", AppendRequest{
		Relation: "Faculty",
		Rows:     wireRows([]any{"zz-late", "Full", 1, 2}),
	}, nil); we == nil || we.Code != CodeLateTuple {
		t.Errorf("late append: %+v", we)
	}
	if we := post(t, ts.URL, "append", AppendRequest{Relation: "NoSuch", Rows: wireRows([]any{"x"})}, nil); we == nil || we.Code != CodeUnknownRelation {
		t.Errorf("append to unknown relation: %+v", we)
	}
}

// An append whose row has ValidFrom ≥ ValidTo is a bad_request that
// applies nothing: an accepted one would sit in the base relation that
// every session reads, and a later Register of its rows would reject it.
func TestInvertedLifespanAppendRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	we := post(t, ts.URL, "append", AppendRequest{
		Relation: "Faculty",
		Rows:     wireRows([]any{"zz", "Full", 9000, 8000}),
		Flush:    true,
	}, nil)
	if we == nil || we.Code != CodeBadRequest || !strings.Contains(we.Message, "ValidFrom < ValidTo") {
		t.Fatalf("inverted append: %+v, want %s naming the constraint", we, CodeBadRequest)
	}
	sid := openSession(t, ts.URL, "")
	var resp QueryResponse
	if we := post(t, ts.URL, "query", QueryRequest{Session: sid, Quel: "range of f is Faculty\nretrieve (f.Name) where f.Name = \"zz\""}, &resp); we != nil {
		t.Fatalf("query after rejected append: %s: %s", we.Code, we.Message)
	}
	if len(resp.Rows) != 0 {
		t.Errorf("rejected row is visible: %v", resp.Rows)
	}
}

// A malformed row anywhere in an append applies none of the request's
// rows, and the dedup window remembers that outcome: a retry under the
// same key replays the error (even with the row mended) and applies
// nothing either.
func TestMalformedRowAppliesNothing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := AppendRequest{
		Relation: "Faculty",
		Rows:     wireRows([]any{"zz-ok", "Full", 5000, 6000}, []any{"zz-bad", "Full", "x", 6000}),
		Flush:    true,
		IdemKey:  "k1",
	}
	count := func() int {
		var resp QueryResponse
		if we := post(t, ts.URL, "query", QueryRequest{Quel: "range of f is Faculty\nretrieve (f.Name) where f.Name = \"zz-ok\""}, &resp); we != nil {
			t.Fatalf("count: %s: %s", we.Code, we.Message)
		}
		return len(resp.Rows)
	}
	we := post(t, ts.URL, "append", req, nil)
	if we == nil || we.Code != CodeBadRequest || !strings.HasPrefix(we.Message, "row 1:") {
		t.Fatalf("malformed append: %+v, want %s at row 1", we, CodeBadRequest)
	}
	if n := count(); n != 0 {
		t.Fatalf("row 0 of a rejected request was applied (%d rows)", n)
	}
	req.Rows = wireRows([]any{"zz-ok", "Full", 5000, 6000}, []any{"zz-bad", "Full", 5000, 6000})
	retry := post(t, ts.URL, "append", req, nil)
	if retry == nil || *retry != *we {
		t.Fatalf("retry under the same key: %+v, want the recorded %+v", retry, we)
	}
	if n := count(); n != 0 {
		t.Fatalf("the retry applied rows (%d)", n)
	}
}

// A retrieve into that the optimizer proves contradictory registers its
// empty result in the session, as a non-contradictory empty query does.
func TestContradictoryIntoRegistersEmptyRelation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sid := openSession(t, ts.URL, "")
	var resp QueryResponse
	if we := post(t, ts.URL, "query", QueryRequest{Session: sid, Quel: `
range of f is Faculty
retrieve into E (f.Name, f.ValidFrom, f.ValidTo) where f.ValidTo < f.ValidFrom
`}, &resp); we != nil {
		t.Fatalf("into: %s: %s", we.Code, we.Message)
	}
	if !resp.Contradiction || resp.Into != "E" || len(resp.Rows) != 0 {
		t.Fatalf("into response: %+v, want an empty contradiction into E", resp)
	}
	if we := post(t, ts.URL, "query", QueryRequest{Session: sid, Quel: "range of e is E\nretrieve (e.Name)"}, &resp); we != nil {
		t.Fatalf("read back E: %s: %s", we.Code, we.Message)
	}
	if len(resp.Rows) != 0 || len(resp.Columns) != 1 {
		t.Errorf("E read back as %+v", resp)
	}
}

func TestForeverSurvivesTheWire(t *testing.T) {
	db := engine.NewDB()
	rel := workload.Faculty(workload.FacultyConfig{N: 10, Seed: 7})
	rel.MustInsert(relation.Row{
		value.String_("zz-current"), value.String_("Full"),
		value.TimeVal(100), value.TimeVal(interval.Forever),
	})
	db.MustRegister(rel)
	_, ts := newTestServer(t, Config{DB: db})
	var resp QueryResponse
	stmt := "range of f is Faculty\nretrieve (f.Name, f.ValidTo) where f.ValidTo >= " + fmt.Sprint(int64(1)<<60)
	if we := post(t, ts.URL, "query", QueryRequest{Quel: stmt}, &resp); we != nil {
		t.Fatalf("query: %s: %s", we.Code, we.Message)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("the Forever row did not come back")
	}
	for _, row := range resp.Rows {
		if row[1].Kind() != value.KindTime {
			t.Fatalf("ValidTo decoded as a %v", row[1].Kind())
		}
		if v := row[1].AsInt(); v < int64(1)<<60 || row[0].AsString() == "zz-current" && v != int64(interval.Forever) {
			t.Fatalf("ValidTo %d lost precision on the wire", v)
		}
	}
}

// TestFlushingAppendDrainsOnlyItsRelation: a flush: true append releases
// its own relation's reorder buffer and leaves another relation's
// watermark where that relation's slack put it.
func TestFlushingAppendDrainsOnlyItsRelation(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: liveDB(t)})
	var g AppendResponse
	if we := post(t, ts.URL, "append", AppendRequest{
		Relation: "G", Slack: 10,
		Rows: wireRows([]any{"g1", "Full", 5, 30}, []any{"g2", "Full", 20, 30}),
	}, &g); we != nil {
		t.Fatalf("append G: %s: %s", we.Code, we.Message)
	}
	if g.Watermark != 10 {
		t.Fatalf("G watermark %d, want 10 (slack 10 behind ts 20)", g.Watermark)
	}
	var f AppendResponse
	if we := post(t, ts.URL, "append", AppendRequest{
		Relation: "F", Flush: true, Rows: wireRows([]any{"f1", "Full", 1, 2}),
	}, &f); we != nil {
		t.Fatalf("flushing append F: %s: %s", we.Code, we.Message)
	}
	if f.Buffered != 0 {
		t.Errorf("F buffered %d after its flush, want 0", f.Buffered)
	}
	if we := post(t, ts.URL, "append", AppendRequest{
		Relation: "G", Rows: wireRows([]any{"g3", "Full", 15, 30}),
	}, nil); we != nil {
		t.Errorf("G row at ts 15 refused after a flush of F: %s: %s", we.Code, we.Message)
	}
}
