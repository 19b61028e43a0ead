package driver

import (
	"context"
	"database/sql/driver"
	"errors"
	"fmt"
)

// ErrNoTransactions is returned by Begin: temporal relations are
// append-only and queries are individually consistent, so the protocol
// has no transaction surface.
var ErrNoTransactions = errors.New("tdb: transactions are not supported (temporal relations are append-only)")

// Conn is one server session. Prepared statements and "retrieve into"
// results live in it and die with it.
type Conn struct {
	c       *Connector
	session string
	closed  bool
}

var (
	_ driver.Conn               = (*Conn)(nil)
	_ driver.ConnPrepareContext = (*Conn)(nil)
	_ driver.ConnBeginTx        = (*Conn)(nil)
	_ driver.QueryerContext     = (*Conn)(nil)
	_ driver.ExecerContext      = (*Conn)(nil)
	_ driver.Pinger             = (*Conn)(nil)
	_ driver.Validator          = (*Conn)(nil)
	_ driver.NamedValueChecker  = (*Conn)(nil)
)

// Prepare parses, translates and plans the statement server-side.
func (cn *Conn) Prepare(query string) (driver.Stmt, error) {
	return cn.PrepareContext(context.Background(), query)
}

// PrepareContext parses, translates and plans the statement server-side.
func (cn *Conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	var resp prepareResponse
	err := cn.c.post(ctx, "prepare", prepareRequest{Session: cn.session, Quel: query}, &resp)
	if err != nil {
		return nil, err
	}
	return &Stmt{conn: cn, id: resp.Stmt, numParams: resp.NumParams, cols: resp.Columns}, nil
}

// Close closes the server session, releasing its statements and
// session-private relations.
func (cn *Conn) Close() error {
	if cn.closed {
		return nil
	}
	cn.closed = true
	err := cn.c.post(context.Background(), "session/close", sessionCloseRequest{Session: cn.session}, nil)
	var te *Error
	if errors.As(err, &te) && te.Code == CodeUnknownSession {
		return nil // already idle-expired server-side
	}
	return err
}

// Begin is not supported; see ErrNoTransactions.
func (cn *Conn) Begin() (driver.Tx, error) { return nil, ErrNoTransactions }

// BeginTx is not supported; see ErrNoTransactions.
func (cn *Conn) BeginTx(context.Context, driver.TxOptions) (driver.Tx, error) {
	return nil, ErrNoTransactions
}

// QueryContext runs one retrieve statement without a server-side
// prepare round-trip. Canceling ctx aborts the request and interrupts
// the query on the server.
func (cn *Conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	resp, err := cn.query(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return newRows(resp), nil
}

// ExecContext runs a statement for its effect — usually "retrieve into",
// which stores the result as a session-private relation. RowsAffected
// reports the result cardinality.
func (cn *Conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	resp, err := cn.query(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return result{rows: int64(resp.n)}, nil
}

func (cn *Conn) query(ctx context.Context, query string, args []driver.NamedValue) (*queryResponse, error) {
	params, err := convertArgs(args)
	if err != nil {
		return nil, err
	}
	var resp queryResponse
	err = cn.c.post(ctx, "query", queryRequest{
		Session: cn.session, Quel: query, Params: params,
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ping verifies the server answers this driver's protocol version.
func (cn *Conn) Ping(ctx context.Context) error {
	var resp struct {
		Protocol string `json:"protocol"`
	}
	if err := cn.c.post(ctx, "ping", struct{}{}, &resp); err != nil {
		return err
	}
	if resp.Protocol != protocolVersion {
		return fmt.Errorf("tdb: server speaks protocol %q, driver speaks %q", resp.Protocol, protocolVersion)
	}
	return nil
}

// IsValid keeps closed conns out of the pool.
func (cn *Conn) IsValid() bool { return !cn.closed }

// CheckNamedValue admits the protocol's two parameter kinds: strings
// (bind string values) and integers (bind chronons). Named parameters
// have no quel surface — placeholders are ordinal ($1…$N).
func (cn *Conn) CheckNamedValue(nv *driver.NamedValue) error {
	if nv.Name != "" {
		return fmt.Errorf("tdb: named parameter %q not supported (placeholders are ordinal $1…$N)", nv.Name)
	}
	v, err := driver.DefaultParameterConverter.ConvertValue(nv.Value)
	if err != nil {
		return fmt.Errorf("tdb: parameter $%d: %w", nv.Ordinal, err)
	}
	switch v.(type) {
	case string, int64:
		nv.Value = v
		return nil
	default:
		return fmt.Errorf("tdb: parameter $%d: %T does not bind (strings bind string values, integers bind chronons)", nv.Ordinal, nv.Value)
	}
}

// convertArgs lays ordinal parameters out in $N order for the wire.
func convertArgs(args []driver.NamedValue) ([]any, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]any, len(args))
	for _, a := range args {
		if a.Ordinal < 1 || a.Ordinal > len(args) {
			return nil, fmt.Errorf("tdb: parameter ordinal %d out of range", a.Ordinal)
		}
		out[a.Ordinal-1] = a.Value
	}
	return out, nil
}

// Stmt is a server-side prepared statement: the parse, translation and
// optimizer plan are cached in the session and re-bound per execution.
type Stmt struct {
	conn      *Conn
	id        string
	numParams int
	cols      []wireColumn
}

var (
	_ driver.Stmt             = (*Stmt)(nil)
	_ driver.StmtQueryContext = (*Stmt)(nil)
	_ driver.StmtExecContext  = (*Stmt)(nil)
)

// NumInput reports the statement's placeholder count; database/sql
// enforces the arity client-side.
func (st *Stmt) NumInput() int { return st.numParams }

// Close releases the server-side statement.
func (st *Stmt) Close() error {
	return st.conn.c.post(context.Background(), "stmt/close",
		closeStmtRequest{Session: st.conn.session, Stmt: st.id}, nil)
}

// Query executes the statement with the given parameter binding.
func (st *Stmt) Query(args []driver.Value) (driver.Rows, error) {
	return st.QueryContext(context.Background(), namedValues(args))
}

// QueryContext executes the statement with the given parameter binding.
func (st *Stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	resp, err := st.execute(ctx, args)
	if err != nil {
		return nil, err
	}
	return newRows(resp), nil
}

// Exec executes the statement for its effect (see Conn.ExecContext).
func (st *Stmt) Exec(args []driver.Value) (driver.Result, error) {
	return st.ExecContext(context.Background(), namedValues(args))
}

// ExecContext executes the statement for its effect (see Conn.ExecContext).
func (st *Stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	resp, err := st.execute(ctx, args)
	if err != nil {
		return nil, err
	}
	return result{rows: int64(resp.n)}, nil
}

func (st *Stmt) execute(ctx context.Context, args []driver.NamedValue) (*queryResponse, error) {
	params, err := convertArgs(args)
	if err != nil {
		return nil, err
	}
	var resp queryResponse
	err = st.conn.c.post(ctx, "execute", executeRequest{
		Session: st.conn.session, Stmt: st.id, Params: params,
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

func namedValues(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, v := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return out
}

// result is the driver.Result of an Exec: the statement's cardinality.
type result struct{ rows int64 }

func (r result) LastInsertId() (int64, error) {
	return 0, errors.New("tdb: no insert ids (results are relations, not rows)")
}
func (r result) RowsAffected() (int64, error) { return r.rows, nil }
