package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tdb/internal/engine"
	"tdb/internal/live"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/workload"
)

const (
	overlapStmt  = "range of a is LA range of b is LB retrieve (A=a.S, B=b.S) where (a overlap b)"
	fallbacksKey = "tdb_governor_fallbacks_total"
	sortedKey    = "tdb_sort_rows_total"
)

// counter reads one of the server's counters.
func counter(s *Server, name string) int64 { return s.Registry().Counter(name, "").Value() }

// query runs one statement on a session (or sessionless as tenant) and
// returns its response.
func query(t *testing.T, base, sid, tenant, text string) QueryResponse {
	t.Helper()
	var resp QueryResponse
	if we := post(t, base, "query", QueryRequest{Session: sid, Tenant: tenant, Quel: text}, &resp); we != nil {
		t.Fatalf("query %q: %s: %s", text, we.Code, we.Message)
	}
	return resp
}

// appendPoisson appends n Poisson tuples to a relation in ValidFrom order
// and flushes them, which publishes the relation's statistics.
func appendPoisson(t *testing.T, base, tenant, rel string, n int, seed int64) {
	t.Helper()
	rows := make([][]any, 0, n)
	for i, tu := range workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 40, Seed: seed}, "s") {
		rows = append(rows, []any{fmt.Sprintf("%s%03d", rel, i), "v", int64(tu.Span.Start), int64(tu.Span.End)})
	}
	if we := post(t, base, "append", AppendRequest{Tenant: tenant, Relation: rel, Rows: wireRows(rows...), Flush: true}, nil); we != nil {
		t.Fatalf("append %s: %s: %s", rel, we.Code, we.Message)
	}
}

// A session plans with the server's catalog statistics as they stand at
// each statement. LA and LB are empty when the session opens and take
// 300 rows each after: the overlap join's workspace ceiling then covers
// the join for the session as for a sessionless query, and the governor
// degrades neither. A session that planned with the statistics of its
// open would see a ceiling of the buffers alone and fall back.
func TestSessionPlansWithCurrentStatistics(t *testing.T) {
	db := engine.NewDB()
	db.MustRegister(relation.New("LA", relation.TupleSchema))
	db.MustRegister(relation.New("LB", relation.TupleSchema))
	s, ts := newTestServer(t, Config{DB: db, Tenants: []TenantConfig{{Name: "gov", Govern: true}}})
	sid := openSession(t, ts.URL, "gov")
	appendPoisson(t, ts.URL, "gov", "LA", 300, 31)
	appendPoisson(t, ts.URL, "gov", "LB", 300, 32)

	before := counter(s, fallbacksKey)
	free := query(t, ts.URL, "", "gov", overlapStmt)
	if d := counter(s, fallbacksKey) - before; d != 0 || len(free.Rows) < 1000 {
		t.Fatalf("sessionless: %d fallbacks over %d rows, want 0 over a wide join", d, len(free.Rows))
	}
	got := query(t, ts.URL, sid, "", overlapStmt)
	if d := counter(s, fallbacksKey) - before; d != 0 {
		t.Errorf("the session opened before the appends degraded %d joins", d)
	}
	for _, e := range s.Events().Events() {
		if e.Kind == obs.EventGovernor {
			t.Errorf("governor event: %+v", e)
		}
	}
	if normalize(t, got.Rows) != normalize(t, free.Rows) {
		t.Errorf("the session returned %d rows, sessionless %d", len(got.Rows), len(free.Rows))
	}
}

// A base relation registered again on the server after a session opened
// is what that session reads next.
func TestSessionReadsRelationRegisteredAfterOpen(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sid := openSession(t, ts.URL, "")
	const count = "range of f is Faculty retrieve (f.Name, f.Rank, f.ValidFrom)"
	if n := len(query(t, ts.URL, sid, "", count).Rows); n == 0 {
		t.Fatal("no Faculty rows before the register")
	}
	fresh := workload.Faculty(workload.FacultyConfig{N: 3, Seed: 8})
	if err := s.WithLive(func(*live.Manager) error { return s.DB().Register(fresh) }); err != nil {
		t.Fatal(err)
	}
	got := query(t, ts.URL, sid, "", count)
	if normalize(t, got.Rows) != normalize(t, embeddedRows(t, s.DB(), count, nil)) || len(got.Rows) != fresh.Cardinality() {
		t.Errorf("the session read %d rows after the register, want the new Faculty's %d", len(got.Rows), fresh.Cardinality())
	}
}

// openBytesBudget bounds the heap bytes one /v1/session request allocates,
// the request, its recorder and the response included, whatever the
// catalog holds: the session is a fork of the server's DB, which copies
// nothing (8 KiB measured). Building a session catalog cost about 32 B per
// base row, 290 KiB over 9 k rows. openBytesSpread bounds how far the cost
// at 90 k rows may be from that at 9 k.
const (
	openBytesBudget = 12 << 10
	openBytesSpread = 256
)

// Opening a session costs the same over 9 k and 90 k Faculty rows, within
// openBytesBudget at both sizes and openBytesSpread of each other.
func TestSessionOpenCostIndependentOfData(t *testing.T) {
	var perOpen [2]uint64
	for i, members := range []int{4000, 40000} {
		db := engine.NewDB()
		fac := workload.Faculty(workload.FacultyConfig{N: members, Seed: 7})
		db.MustRegister(fac)
		s, _ := newTestServer(t, Config{DB: db})
		h := s.Handler()
		open := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/"+Protocol+"/session", strings.NewReader("{}")))
			if rec.Code != http.StatusOK {
				t.Fatalf("open: %d %s", rec.Code, rec.Body)
			}
		}
		open()
		const opens = 16
		perOpen[i] = leastAllocated(func() {
			for range opens {
				open()
			}
		}) / opens
		t.Logf("%d Faculty rows: %d B per session open", fac.Cardinality(), perOpen[i])
		if perOpen[i] > openBytesBudget {
			t.Errorf("%d Faculty rows: %d B per session open, budget %d", fac.Cardinality(), perOpen[i], openBytesBudget)
		}
	}
	if d := int64(perOpen[1]) - int64(perOpen[0]); d > openBytesSpread || d < -openBytesSpread {
		t.Errorf("a session open costs %d B more over 90 k rows than over 9 k, spread %d", d, openBytesSpread)
	}
}

// leastAllocated returns the fewest heap bytes f allocated over five runs.
func leastAllocated(f func()) uint64 {
	var least uint64
	for i := range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < least {
			least = d
		}
	}
	return least
}

// Sessions share the server's relation index: the orders one session's
// first query sorts are index hits for another session's first query, and
// closing or expiring sessions — which drops their "into" results' entries
// — keeps the base relations' entries for the next session.
func TestSessionsShareRelationIndex(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: mixedServerDB(t)})
	first, second := openSession(t, ts.URL, ""), openSession(t, ts.URL, "")
	before := counter(s, sortedKey)
	want := query(t, ts.URL, first, "", benchWide)
	if counter(s, sortedKey) == before {
		t.Fatal("the first session's first query sorted nothing")
	}
	into := "range of a is X range of b is Y retrieve into W (S=a.S, ValidFrom=a.ValidFrom, ValidTo=a.ValidTo) where (a overlap b)"
	query(t, ts.URL, first, "", into)
	query(t, ts.URL, first, "", "range of w is W range of b is Y retrieve (w.S) where (w overlap b)")

	sorted := counter(s, sortedKey)
	if got := query(t, ts.URL, second, "", benchWide); normalize(t, got.Rows) != normalize(t, want.Rows) || counter(s, sortedKey) != sorted {
		t.Errorf("the second session's first query sorted %d rows, want 0", counter(s, sortedKey)-sorted)
	}

	if we := post(t, ts.URL, "session/close", SessionCloseRequest{Session: first}, nil); we != nil {
		t.Fatal(we.Message)
	}
	s.sessions.expire(time.Now().Add(time.Hour))
	if n := s.sessions.count(); n != 0 {
		t.Fatalf("%d sessions left open", n)
	}
	third := openSession(t, ts.URL, "")
	if query(t, ts.URL, third, "", benchWide); counter(s, sortedKey) != sorted {
		t.Errorf("after a close and an expiry a new session's first query sorted %d rows, want 0", counter(s, sortedKey)-sorted)
	}
}

// mixedServerDB holds the relations X and Y of the wide read, shuffled
// so that ordering them sorts rows.
func mixedServerDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	for i, name := range []string{"X", "Y"} {
		tu := workload.Tuples(workload.Config{N: 150, Lambda: 1, MeanDur: 6, Seed: int64(40 + i)}, strings.ToLower(name))
		rand.New(rand.NewSource(int64(50+i))).Shuffle(len(tu), func(a, b int) { tu[a], tu[b] = tu[b], tu[a] })
		db.MustRegister(relation.FromTuples(name, tu))
	}
	return db
}

// Eight sessions read the base relations through the shared relation
// index while a writer appends to X, promoting it to live on the first
// append. Every read succeeds, and once the writer is done a session reads
// what the embedded engine reads.
func TestSessionForksConcurrentWithAppends(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: mixedServerDB(t)})
	const readers, reads = 8, 6
	var wg sync.WaitGroup
	errs := make(chan string, readers*reads+1)
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sid := openSession(t, ts.URL, "")
			for range reads {
				var resp QueryResponse
				if we := post(t, ts.URL, "query", QueryRequest{Session: sid, Quel: benchWide}, &resp); we != nil {
					errs <- we.Code + ": " + we.Message
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 5 {
			row := []any{fmt.Sprintf("w%d", i), "v", 10000 + 10*i, 10005 + 10*i}
			if we := post(t, ts.URL, "append", AppendRequest{Relation: "X", Rows: wireRows(row), Flush: true}, nil); we != nil {
				errs <- we.Code + ": " + we.Message
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	got := query(t, ts.URL, openSession(t, ts.URL, ""), "", benchWide)
	if normalize(t, got.Rows) != normalize(t, embeddedRows(t, s.DB(), benchWide, nil)) {
		t.Errorf("after the appends a session read %d rows, not the embedded engine's", len(got.Rows))
	}
}
