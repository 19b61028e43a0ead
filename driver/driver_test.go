package driver_test

import (
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	tdbdriver "tdb/driver"
	"tdb/internal/engine"
	"tdb/internal/experiments"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/server"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// startServer runs a server on a real listener and returns its base URL.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = seededDB(t, 40)
	}
	s := server.New(cfg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, "http://" + addr
}

func seededDB(t *testing.T, n int) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: n, Seed: 7}))
	if err := db.DeclareChronOrder(experiments.RankOrder(false)); err != nil {
		t.Fatal(err)
	}
	return db
}

func openDB(t *testing.T, url string) *sql.DB {
	t.Helper()
	db, err := sql.Open("tdb", url)
	if err != nil {
		t.Fatalf("sql.Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// embeddedRows runs quel through the embedded pipeline exactly the way
// the server does — parse, translate, bind, optimize with catalog ICs,
// execute — and renders rows the way the wire does.
func embeddedRows(t *testing.T, db *engine.DB, text string, params []value.Value) [][]any {
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
	rows := make([][]any, 0, len(out.Rows))
	for _, r := range out.Rows {
		vals := make([]any, len(r))
		for j, v := range r {
			if v.Kind() == value.KindString {
				vals[j] = v.AsString()
			} else {
				vals[j] = v.AsInt()
			}
		}
		rows = append(rows, vals)
	}
	return rows
}

// scanAll drains a result set into wire-shaped rows using the driver's
// reported scan types.
func scanAll(t *testing.T, rows *sql.Rows) [][]any {
	t.Helper()
	cts, err := rows.ColumnTypes()
	if err != nil {
		t.Fatalf("column types: %v", err)
	}
	var out [][]any
	for rows.Next() {
		ptrs := make([]any, len(cts))
		for i, ct := range cts {
			if ct.ScanType().Kind() == reflect.String {
				ptrs[i] = new(string)
			} else {
				ptrs[i] = new(int64)
			}
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatalf("scan: %v", err)
		}
		vals := make([]any, len(ptrs))
		for i, p := range ptrs {
			switch v := p.(type) {
			case *string:
				vals[i] = *v
			case *int64:
				vals[i] = *v
			}
		}
		out = append(out, vals)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	return out
}

func asJSON(t *testing.T, rows [][]any) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConformance: every seed query returns, through sql.Open("tdb"),
// rows byte-identical to the embedded engine's.
func TestConformance(t *testing.T) {
	s, url := startServer(t, server.Config{DB: seededDB(t, 24)})
	db := openDB(t, url)
	cases := []struct {
		name   string
		quel   string
		args   []any
		params []value.Value
	}{
		{name: "selection", quel: `
			range of f is Faculty
			retrieve (f.Name, f.Rank, f.ValidFrom, f.ValidTo)
			where f.Rank = "Full"`},
		{name: "overlap-self-join", quel: `
			range of a is Faculty
			range of b is Faculty
			retrieve (Name=a.Name, Peer=b.Name, From=a.ValidFrom)
			where a.Rank = "Assistant" and b.Rank = "Full" and (a overlap b)`},
		{name: "placeholders", quel: `
			range of f is Faculty
			retrieve (f.Name, f.ValidFrom)
			where f.Rank = $1 and f.ValidFrom < $2`,
			args:   []any{"Associate", 40},
			params: []value.Value{value.String_("Associate"), value.TimeVal(40)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := db.Query(tc.quel, tc.args...)
			if err != nil {
				t.Fatalf("driver query: %v", err)
			}
			defer rows.Close()
			got := asJSON(t, scanAll(t, rows))
			want := asJSON(t, embeddedRows(t, s.DB(), tc.quel, tc.params))
			if got != want {
				t.Errorf("driver rows diverge from embedded engine\n got: %.300s\nwant: %.300s", got, want)
			}
		})
	}
}

// TestSuperstarIntoSessionScope runs the paper's running query through
// a pinned connection: the "into" result lands in that connection's
// session, matches the embedded engine, and is invisible elsewhere.
func TestSuperstarIntoSessionScope(t *testing.T) {
	s, url := startServer(t, server.Config{})
	db := openDB(t, url)
	ctx := context.Background()
	conn, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	res, err := conn.ExecContext(ctx, experiments.SuperstarQuel)
	if err != nil {
		t.Fatalf("superstar into: %v", err)
	}
	n, _ := res.RowsAffected()
	want := embeddedRows(t, s.DB(), experiments.SuperstarQuel, nil)
	if int(n) != len(want) {
		t.Fatalf("rows affected %d, embedded result has %d", n, len(want))
	}

	const stars = `
		range of s is Stars
		retrieve (s.Name, s.ValidFrom, s.ValidTo)`
	rows, err := conn.QueryContext(ctx, stars)
	if err != nil {
		t.Fatalf("query Stars on owning session: %v", err)
	}
	got := scanAll(t, rows)
	rows.Close()
	sortRows := func(rs [][]any) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = fmt.Sprint(r...)
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(sortRows(got), sortRows(want)) {
		t.Errorf("Stars contents diverge from embedded superstar result")
	}

	// A different connection is a different session: Stars is not there.
	other, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.QueryContext(ctx, stars); err == nil {
		t.Error("Stars leaked across sessions")
	} else {
		var te *tdbdriver.Error
		if !errors.As(err, &te) || te.Code != tdbdriver.CodeTranslate {
			t.Errorf("cross-session Stars error = %v, want %s", err, tdbdriver.CodeTranslate)
		}
	}
}

// TestPreparedRebind: one server-side prepare, executed under different
// bindings, each matching the embedded engine.
func TestPreparedRebind(t *testing.T) {
	s, url := startServer(t, server.Config{})
	db := openDB(t, url)
	const q = `
		range of f is Faculty
		retrieve (f.Name, f.ValidFrom)
		where f.Rank = $1`
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	defer stmt.Close()
	for _, rank := range []string{"Full", "Assistant", "Full"} {
		rows, err := stmt.Query(rank)
		if err != nil {
			t.Fatalf("execute %q: %v", rank, err)
		}
		got := asJSON(t, scanAll(t, rows))
		rows.Close()
		want := asJSON(t, embeddedRows(t, s.DB(), q, []value.Value{value.String_(rank)}))
		if got != want {
			t.Errorf("binding %q diverges from embedded engine", rank)
		}
	}
	// database/sql enforces the server-reported arity client-side.
	if _, err := stmt.Query(); err == nil || !strings.Contains(err.Error(), "expected 1") {
		t.Errorf("missing-parameter error = %v", err)
	}
}

// TestConcurrentClientsMeterEveryQuery: 1, 8 and 64 database/sql clients
// share one pool and one prepared statement, alternating ad-hoc queries
// with executions of the statement rebound on every call. No query fails,
// nothing is rejected under a quota above the load, and the tenant's
// admission counter moves by exactly the completed queries — prepared
// executions included.
func TestConcurrentClientsMeterEveryQuery(t *testing.T) {
	const (
		q         = `range of f is Faculty retrieve (f.Name, f.ValidFrom) where f.Rank = $1`
		perClient = 4
	)
	reg := obs.NewRegistry()
	_, url := startServer(t, server.Config{Registry: reg, Tenants: []server.TenantConfig{{
		Name: "default", MaxConcurrent: 16, MaxQueue: 256, QueueTimeout: 30 * time.Second}}})
	admitted := reg.Counter("tdb_server_tenant_default_queries_total", "")
	rejected := reg.Counter("tdb_server_tenant_default_rejected_total", "")
	ranks := []string{"Assistant", "Associate", "Full"}
	for _, clients := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			db := openDB(t, url)
			db.SetMaxOpenConns(clients)
			stmt, err := db.Prepare(q)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			defer stmt.Close()
			admBefore, rejBefore := admitted.Value(), rejected.Value()
			var (
				mu   sync.Mutex
				errs []error
				wg   sync.WaitGroup
			)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						rank := ranks[(c+i)%len(ranks)]
						var rows *sql.Rows
						var err error
						if i%2 == 0 {
							rows, err = db.Query(q, rank)
						} else {
							rows, err = stmt.Query(rank)
						}
						if err == nil {
							for rows.Next() {
							}
							err = rows.Err()
							rows.Close()
						}
						if err != nil {
							mu.Lock()
							errs = append(errs, err)
							mu.Unlock()
						}
					}
				}(c)
			}
			wg.Wait()
			completed := clients * perClient
			if len(errs) != 0 {
				t.Fatalf("%d of %d queries failed; first: %v", len(errs), completed, errs[0])
			}
			if got := admitted.Value() - admBefore; got != int64(completed) {
				t.Errorf("admission counter moved %d, completed queries %d", got, completed)
			}
			if got := rejected.Value() - rejBefore; got != 0 {
				t.Errorf("%d rejections under a quota above the load", got)
			}
		})
	}
}

// TestColumnTypes: interval typing travels through database/sql — the
// lifespan endpoints report TIME_START / TIME_END.
func TestColumnTypes(t *testing.T) {
	_, url := startServer(t, server.Config{})
	db := openDB(t, url)
	rows, err := db.Query(`
		range of f is Faculty
		retrieve (f.Name, f.Rank, f.ValidFrom, f.ValidTo)
		where f.Rank = "Full"`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cts, err := rows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []string{"STRING", "STRING", "TIME_START", "TIME_END"}
	wantScan := []reflect.Kind{reflect.String, reflect.String, reflect.Int64, reflect.Int64}
	for i, ct := range cts {
		if ct.DatabaseTypeName() != wantTypes[i] {
			t.Errorf("column %s type %s, want %s", ct.Name(), ct.DatabaseTypeName(), wantTypes[i])
		}
		if ct.ScanType().Kind() != wantScan[i] {
			t.Errorf("column %s scans as %s, want %s", ct.Name(), ct.ScanType(), wantScan[i])
		}
	}
}

// TestForeverRoundTrip: the open-ended chronon (2^63-2) scans exactly.
func TestForeverRoundTrip(t *testing.T) {
	db := seededDB(t, 8)
	rel, err := db.Relation("Faculty")
	if err != nil {
		t.Fatal(err)
	}
	rel.Rows = append(rel.Rows, relation.Row{
		value.String_("zz-current"), value.String_("Full"),
		value.TimeVal(100), value.TimeVal(interval.Forever),
	})
	_, url := startServer(t, server.Config{DB: db})
	sdb := openDB(t, url)
	var name string
	var to int64
	err = sdb.QueryRow(`
		range of f is Faculty
		retrieve (f.Name, f.ValidTo)
		where f.ValidFrom = $1`, 100).Scan(&name, &to)
	if err != nil {
		t.Fatal(err)
	}
	if name != "zz-current" || to != int64(interval.Forever) {
		t.Errorf("got (%s, %d), want (zz-current, %d)", name, to, int64(interval.Forever))
	}
}

// TestTypedErrors: wire error codes come back as *tdbdriver.Error.
func TestTypedErrors(t *testing.T) {
	_, url := startServer(t, server.Config{
		Tenants: []server.TenantConfig{{Name: "alpha"}},
	})

	t.Run("parse", func(t *testing.T) {
		db := openDB(t, url+"?tenant=alpha")
		_, err := db.Query("retrieve retrieve retrieve")
		var te *tdbdriver.Error
		if !errors.As(err, &te) || te.Code != tdbdriver.CodeParse {
			t.Errorf("err = %v, want code %s", err, tdbdriver.CodeParse)
		}
	})
	t.Run("unknown-tenant", func(t *testing.T) {
		db := openDB(t, url+"?tenant=beta")
		err := db.Ping()
		var te *tdbdriver.Error
		if !errors.As(err, &te) || te.Code != tdbdriver.CodeUnknownTenant {
			t.Errorf("err = %v, want code %s", err, tdbdriver.CodeUnknownTenant)
		}
	})
	t.Run("unbindable-parameter", func(t *testing.T) {
		db := openDB(t, url+"?tenant=alpha")
		_, err := db.Query(`range of f is Faculty retrieve (f.Name) where f.ValidFrom < $1`, 3.14)
		if err == nil || !strings.Contains(err.Error(), "bind") {
			t.Errorf("float parameter error = %v", err)
		}
	})
	t.Run("no-transactions", func(t *testing.T) {
		db := openDB(t, url+"?tenant=alpha")
		if _, err := db.Begin(); !errors.Is(err, tdbdriver.ErrNoTransactions) {
			t.Errorf("Begin = %v, want ErrNoTransactions", err)
		}
	})
}

// TestCodesMirrorServer pins the driver's error-code vocabulary to the
// server's: the two packages share no Go types, only the protocol.
func TestCodesMirrorServer(t *testing.T) {
	pairs := [][2]string{
		{tdbdriver.CodeBadRequest, server.CodeBadRequest},
		{tdbdriver.CodeParse, server.CodeParse},
		{tdbdriver.CodeTranslate, server.CodeTranslate},
		{tdbdriver.CodeBind, server.CodeBind},
		{tdbdriver.CodePlan, server.CodePlan},
		{tdbdriver.CodeExec, server.CodeExec},
		{tdbdriver.CodeCanceled, server.CodeCanceled},
		{tdbdriver.CodeUnknownSession, server.CodeUnknownSession},
		{tdbdriver.CodeUnknownStatement, server.CodeUnknownStatement},
		{tdbdriver.CodeUnknownTenant, server.CodeUnknownTenant},
		{tdbdriver.CodeUnknownRelation, server.CodeUnknownRelation},
		{tdbdriver.CodeQuotaConcurrency, server.CodeQuotaConcurrency},
		{tdbdriver.CodeQueueTimeout, server.CodeQueueTimeout},
		{tdbdriver.CodeDeclined, server.CodeDeclined},
		{tdbdriver.CodeBreakerOpen, server.CodeBreakerOpen},
		{tdbdriver.CodeDraining, server.CodeDraining},
		{tdbdriver.CodeLateTuple, server.CodeLateTuple},
		{tdbdriver.CodeSessionExpired, server.CodeSessionExpired},
		{tdbdriver.CodeResumeHorizon, server.CodeResumeHorizon},
		{tdbdriver.CodeUnknownResume, server.CodeUnknownResume},
	}
	for _, p := range pairs {
		if p[0] != p[1] {
			t.Errorf("driver code %q != server code %q", p[0], p[1])
		}
	}
}

// TestProtocolVersionMismatch: a server answering another protocol
// version is refused at Connect, not misparsed later.
func TestProtocolVersionMismatch(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"protocol": "v0", "session": "s1"})
	}))
	defer fake.Close()
	db := openDB(t, fake.URL)
	if err := db.Ping(); err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Errorf("version mismatch error = %v", err)
	}
}

// TestCancellationPropagates: canceling the context aborts the client
// call AND interrupts the query server-side — observed through the
// tenant error counter on /metrics — leaving the server healthy.
func TestCancellationPropagates(t *testing.T) {
	// Two-sided projection defeats the semijoin recognition, so the
	// pairwise join genuinely runs long enough to cancel.
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: 900, Seed: 7}))
	_, url := startServer(t, server.Config{DB: db})
	sdb := openDB(t, url)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := sdb.QueryContext(ctx, `
		range of a is Faculty
		range of b is Faculty
		retrieve (NameA=a.Name, NameB=b.Name)
		where a.Name != b.Name and a.Rank = "Full" and b.Rank = "Full"`)
	if err == nil {
		t.Fatal("query outlived its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}

	// The server registered the interrupt: the tenant error counter
	// moves once the aborted handler unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := scrapeCounter(t, url, "tdb_server_tenant_default_errors_total"); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the canceled query")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var count int64
	if err := sdb.QueryRow(`range of f is Faculty retrieve (f.ValidFrom) where f.Name = $1`,
		"prof0000").Scan(&count); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// scrapeCounter reads one counter from the Prometheus endpoint.
func scrapeCounter(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%d", &v); err == nil {
				return v
			}
		}
	}
	return 0
}
