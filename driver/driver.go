// Package driver is a database/sql driver for the tdb temporal query
// server. It speaks the versioned JSON-over-HTTP wire protocol served
// by internal/server (and `tdb -listen`):
//
//	import (
//		"database/sql"
//		_ "tdb/driver"
//	)
//
//	db, err := sql.Open("tdb", "http://127.0.0.1:7171?tenant=research")
//	rows, err := db.Query(`range of f is Faculty
//	    retrieve (f.Name, f.ValidFrom, f.ValidTo) where f.Rank = $1`, "Full")
//
// Each driver connection is one server session: prepared statements,
// "retrieve into" results and idle expiry are scoped to it. Time
// (chronon) columns scan as int64 and report TIME — or TIME_START /
// TIME_END for the two columns the schema designates as the tuple
// lifespan endpoints — via sql.ColumnType.DatabaseTypeName. Parameters
// bind quel placeholders $1…$N in order; strings bind string values,
// integers bind chronons. Query contexts propagate: canceling a context
// aborts the HTTP request AND interrupts the query server-side.
//
// Beyond database/sql, Connector exposes the streaming half of the
// protocol: Subscribe admits a standing temporal query and returns its
// incremental delta stream, and Append ingests rows into live relations.
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"net/http"
	"net/url"
	"strings"
)

func init() { sql.Register("tdb", Driver{}) }

// Driver opens connections to a tdb query server. DSNs are the server's
// base URL with an optional tenant: "http://host:port?tenant=name".
type Driver struct{}

// Open dials the server and opens one session.
func (d Driver) Open(dsn string) (driver.Conn, error) {
	c, err := NewConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once for the pool to reuse.
func (d Driver) OpenConnector(dsn string) (driver.Connector, error) {
	return NewConnector(dsn)
}

// Connector dials one tdb server under one tenant. It also carries the
// protocol extensions database/sql has no surface for: Subscribe and
// Append — and the retry policy every request runs under.
type Connector struct {
	base   string
	tenant string
	hc     *http.Client
	retry  RetryPolicy
}

// NewConnector parses a DSN of the form "http://host:port?tenant=name".
// Retry tuning rides in the query string: retry=off disables the retry
// layer (and subscription auto-resume); retry_attempts, retry_base_ms,
// retry_max_ms and retry_budget_ms reshape the backoff.
func NewConnector(dsn string) (*Connector, error) {
	u, err := url.Parse(dsn)
	if err != nil {
		return nil, fmt.Errorf("tdb: bad DSN %q: %w", dsn, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("tdb: DSN %q: scheme must be http or https", dsn)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("tdb: DSN %q has no host", dsn)
	}
	if p := strings.TrimSuffix(u.Path, "/"); p != "" {
		return nil, fmt.Errorf("tdb: DSN %q: the server lives at the URL root, not %q", dsn, u.Path)
	}
	retry, err := parseRetryDSN(u.Query(), defaultRetryPolicy())
	if err != nil {
		return nil, fmt.Errorf("tdb: DSN %q: %w", dsn, err)
	}
	return &Connector{
		base:   u.Scheme + "://" + u.Host,
		tenant: u.Query().Get("tenant"),
		hc:     &http.Client{},
		retry:  retry,
	}, nil
}

// Driver returns the shared Driver.
func (c *Connector) Driver() driver.Driver { return Driver{} }

// Connect opens one server session.
func (c *Connector) Connect(ctx context.Context) (driver.Conn, error) {
	var resp sessionOpenResponse
	if err := c.post(ctx, "session", sessionOpenRequest{Tenant: c.tenant}, &resp); err != nil {
		return nil, err
	}
	if resp.Protocol != protocolVersion {
		return nil, fmt.Errorf("tdb: server speaks protocol %q, driver speaks %q", resp.Protocol, protocolVersion)
	}
	return &Conn{c: c, session: resp.Session}, nil
}

// Append ingests rows into a live relation, promoting it to live
// ingestion (reorder slack = slack chronons) on first use. Cell values
// follow the relation's schema: strings for string columns, int/int64
// for time and int columns. flush drains the relation's reorder buffer
// afterwards, releasing its buffered rows to storage and the standing
// queries.
//
// Each call travels under a generated idempotency key, so the retry
// layer may safely replay it after an ambiguous failure: the server
// remembers the outcome and never applies the rows twice. Use
// AppendKeyed to control the key (application-level exactly-once across
// client process restarts) or to send an unkeyed, never-retried append.
// The server remembers keys in process memory only: after a server
// restart a re-sent key applies its rows again.
func (c *Connector) Append(ctx context.Context, relation string, rows [][]any, slack int64, flush bool) (AppendResult, error) {
	return c.AppendKeyed(ctx, relation, rows, slack, flush, newIdemKey())
}

// AppendKeyed is Append with an explicit idempotency key. An empty key
// sends the append unkeyed and disables retries for it — repeating an
// unkeyed append could double-apply rows.
func (c *Connector) AppendKeyed(ctx context.Context, relation string, rows [][]any, slack int64, flush bool, key string) (AppendResult, error) {
	var resp AppendResult
	req := appendRequest{
		Tenant: c.tenant, Relation: relation, Rows: rows, Slack: slack, Flush: flush, IdemKey: key,
	}
	var err error
	if key == "" {
		err = c.postOnce(ctx, "append", req, &resp)
	} else {
		err = c.post(ctx, "append", req, &resp)
	}
	return resp, err
}

// AppendResult reports one append batch: rows accepted, the relation's
// reorder watermark, rows still buffered, and total rows released to
// storage. Deduped marks a replayed outcome: the idempotency key had
// already been applied, so this call appended nothing new.
type AppendResult struct {
	Appended  int   `json:"appended"`
	Watermark int64 `json:"watermark"`
	Buffered  int   `json:"buffered"`
	Released  int64 `json:"released"`
	Deduped   bool  `json:"deduped,omitempty"`
}
