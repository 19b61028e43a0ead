package driver_test

import (
	"context"
	"database/sql"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	tdbdriver "tdb/driver"
)

// craftedColumns is the column list every crafted response carries: a
// string column and a time column.
const craftedColumns = `"columns":[{"name":"Name","kind":"string"},{"name":"At","kind":"time","temporal":"start"}]`

// craftedServer answers the protocol with canned bodies: a session, a
// prepared statement, body for every /v1/query and /v1/execute, and a
// subscription whose one "deltas" event carries deltas.
func craftedServer(t *testing.T, body, deltas string) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		switch strings.TrimPrefix(r.URL.Path, "/v1/") {
		case "session":
			fmt.Fprint(w, `{"protocol":"v1","session":"s1","tenant":"default","idle_timeout_ms":300000}`)
		case "prepare":
			fmt.Fprint(w, `{"stmt":"p1","num_params":0,`+craftedColumns+`}`)
		case "query", "execute":
			fmt.Fprint(w, body)
		case "subscribe":
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprintf(w, "event: meta\ndata: {\"name\":\"w\",\"mode\":\"incremental\",%s,\"resume\":\"w\"}\n\n", craftedColumns)
			fmt.Fprintf(w, "event: deltas\ndata: %s\n\n", deltas)
		default:
			fmt.Fprint(w, `{"status":"closed"}`)
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// A malformed response fails the call that fetched it — QueryContext,
// Stmt.QueryContext or Subscription.Next — with an error, never a panic
// and never a short result; a well-formed one decodes in full.
func TestMalformedResponsesFailTheCall(t *testing.T) {
	for _, c := range []struct {
		name string
		rows string // the rows member (deltas: the whole rows array too)
		tail string // bytes after the document
		cut  bool   // the body stops before its end
	}{
		{name: "well formed", rows: `[["alice",1],["bob",9223372036854775806]]`},
		{name: "float cell", rows: `[["alice",1.5]]`},
		{name: "number beyond int64", rows: `[["alice",9223372036854775808]]`},
		{name: "string in a time column", rows: `[["alice","1"]]`},
		{name: "number in a string column", rows: `[[7,1]]`},
		{name: "short row", rows: `[["alice"]]`},
		{name: "truncated", rows: `[["alice",1],["bob",2]]`, cut: true},
		{name: "trailing garbage", rows: `[["alice",1]]`, tail: ` {"rows":[]}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := `{` + craftedColumns + `,"rows":` + c.rows + `,"elapsed_ns":1}` + c.tail
			deltas := `{"seq":1,"rows":` + c.rows + `}` + c.tail
			if c.cut {
				body, deltas = body[:len(body)-8], deltas[:len(deltas)-8]
			}
			ok := c.name == "well formed"
			url := craftedServer(t, body, deltas) + "?retry=off"
			db, err := sql.Open("tdb", url)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			ctx := context.Background()

			check := func(call string, rows *sql.Rows, err error) {
				t.Helper()
				if !ok {
					if err == nil {
						n := len(scanAllLenient(rows))
						rows.Close()
						t.Fatalf("%s returned %d rows and no error", call, n)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s: %v", call, err)
				}
				defer rows.Close()
				var got []string
				for rows.Next() {
					var name string
					var at int64
					if err := rows.Scan(&name, &at); err != nil {
						t.Fatal(err)
					}
					got = append(got, fmt.Sprintf("%s %d", name, at))
				}
				if rows.Err() != nil || strings.Join(got, ",") != "alice 1,bob 9223372036854775806" {
					t.Fatalf("%s: rows %v, %v", call, got, rows.Err())
				}
			}
			rows, err := db.QueryContext(ctx, "q")
			check("QueryContext", rows, err)
			stmt, err := db.PrepareContext(ctx, "q")
			if err != nil {
				t.Fatal(err)
			}
			rows, err = stmt.QueryContext(ctx)
			check("Stmt.QueryContext", rows, err)
			_ = stmt.Close()

			conn, err := tdbdriver.NewConnector(url)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := conn.Subscribe(ctx, "s", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			d, err := sub.Next()
			switch {
			case !ok && err == nil:
				t.Fatalf("Subscription.Next delivered %+v and no error", d)
			case ok && (err != nil || fmt.Sprint(d.Rows) != "[[alice 1] [bob 9223372036854775806]]"):
				t.Fatalf("Subscription.Next: %+v, %v", d, err)
			}
		})
	}
}
