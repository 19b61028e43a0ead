package server

import (
	"encoding/json"
	"errors"
	"strconv"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/wire"
)

// Protocol is the wire protocol version; every endpoint lives under
// "/" + Protocol + "/". A server never answers a version it does not
// speak, so drivers fail fast on mismatch instead of misparsing.
const Protocol = "v1"

// Column describes one output column on the wire.
type Column struct {
	Name string `json:"name"`
	// Kind is the value kind: "string", "time", or "int".
	Kind string `json:"kind"`
	// Temporal marks the columns the schema designates as the lifespan
	// endpoints: "start" (ValidFrom) or "end" (ValidTo); empty otherwise.
	Temporal string `json:"temporal,omitempty"`
}

// wireError is the error payload; every non-2xx response carries one.
// RetryAfterMS, when positive, is the server's backoff advice (also sent
// as a Retry-After header, rounded up to whole seconds).
type wireError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

type errorEnvelope struct {
	Error wireError `json:"error"`
}

// SessionOpenRequest opens a session. An empty tenant means "default".
type SessionOpenRequest struct {
	Tenant string `json:"tenant,omitempty"`
}

type SessionOpenResponse struct {
	Protocol      string `json:"protocol"`
	Session       string `json:"session"`
	Tenant        string `json:"tenant"`
	IdleTimeoutMS int64  `json:"idle_timeout_ms"`
}

type SessionCloseRequest struct {
	Session string `json:"session"`
}

// QueryRequest runs one retrieve statement (with any range declarations
// it needs). Session is optional: sessionless requests run read-only
// against the shared catalog under the named tenant's quota, and may not
// use "into" (it would mutate shared state).
type QueryRequest struct {
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Quel    string `json:"quel"`
	// Params bind $1…$N in order: JSON strings bind string values,
	// JSON numbers bind chronon (time) values — the same semantics as
	// literals in quel text.
	Params []any `json:"params,omitempty"`
}

// QueryResponse is the /v1/query and /v1/execute response. AppendJSON
// writes it; the json tags name its members.
type QueryResponse struct {
	Columns []Column `json:"columns"`
	// Rows travel as a JSON array of row arrays, one cell per column:
	// strings as strings, time and int cells as integer literals, so
	// chronons up to interval.Forever stay exact.
	Rows []relation.Row `json:"-"`
	// Into names the session relation the result was stored under, when
	// the statement had an "into" clause (the rows still travel back).
	Into string `json:"into,omitempty"`
	// Contradiction: the semantic pass proved the query empty from the
	// integrity constraints alone; nothing was executed.
	Contradiction bool     `json:"contradiction,omitempty"`
	Notes         []string `json:"notes,omitempty"`
	ElapsedNS     int64    `json:"elapsed_ns"`
}

type PrepareRequest struct {
	Session string `json:"session"`
	Quel    string `json:"quel"`
}

type PrepareResponse struct {
	Stmt      string   `json:"stmt"`
	NumParams int      `json:"num_params"`
	Columns   []Column `json:"columns"`
}

type ExecuteRequest struct {
	Session string `json:"session"`
	Stmt    string `json:"stmt"`
	Params  []any  `json:"params,omitempty"`
}

type CloseStmtRequest struct {
	Session string `json:"session"`
	Stmt    string `json:"stmt"`
}

// AppendRequest ingests rows into a live relation. The relation is
// promoted to live ingestion (reorder slack = Slack chronons) on first
// append. Row values follow the relation's schema: strings for string
// columns, numbers for time/int columns.
type AppendRequest struct {
	Session  string `json:"session,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Relation string `json:"relation"`
	// Rows are decoded under the relation's schema once it is resolved
	// (decodeRows), straight into engine rows.
	Rows  json.RawMessage `json:"rows"`
	Slack int64           `json:"slack,omitempty"`
	// Flush drains the relation's reorder buffer after the appends,
	// releasing its buffered rows to storage and the standing queries;
	// other relations' buffers are left as they are.
	Flush bool `json:"flush,omitempty"`
	// IdemKey makes the append idempotent: the server remembers the
	// outcome under (tenant, relation, key) for the dedup window's TTL
	// and replays it — without re-applying the rows — when the same key
	// is retried after an ambiguous failure.
	IdemKey string `json:"idem_key,omitempty"`
}

type AppendResponse struct {
	Appended  int   `json:"appended"`
	Watermark int64 `json:"watermark"`
	Buffered  int   `json:"buffered"`
	Released  int64 `json:"released"`
	// Deduped marks a replayed outcome: the idempotency key had already
	// been applied, so the rows were NOT appended a second time.
	Deduped bool `json:"deduped,omitempty"`
}

// SubscribeRequest admits a standing query and streams its deltas as
// server-sent events: one "meta" event, then "deltas" events as rows
// arrive, closed by an "error" or "drain" event (or the client
// canceling). Placeholders are not legal in subscribe statements.
type SubscribeRequest struct {
	Session string `json:"session"`
	Quel    string `json:"quel"`
	PollMS  int64  `json:"poll_ms,omitempty"`
	// Resume re-attaches to an existing subscription instead of
	// registering a new standing query: the server replays every ring
	// event with seq > AfterSeq and then continues the live stream.
	// Quel must be empty on a resume request. A seq the bounded ring
	// has already evicted is a typed resume_horizon error.
	Resume   string `json:"resume,omitempty"`
	AfterSeq int64  `json:"after_seq,omitempty"`
}

// SubscribeMeta is the payload of the leading "meta" SSE event. Resume
// is the token a disconnected client presents to re-attach; ReplayCap is
// the bounded replay ring's capacity — how many delivered delta events
// stay replayable behind the stream head.
type SubscribeMeta struct {
	Name      string   `json:"name"`
	Mode      string   `json:"mode"`
	Explain   string   `json:"explain,omitempty"`
	Columns   []Column `json:"columns"`
	Resume    string   `json:"resume,omitempty"`
	ReplayCap int      `json:"replay_cap,omitempty"`
}

// PingResponse reports the readiness state machine: "serving" while the
// server accepts protocol requests, "draining" once Shutdown began.
// Ping answers during a drain (readiness must stay observable) — every
// other endpoint rejects with a typed draining error.
type PingResponse struct {
	Protocol string `json:"protocol"`
	Status   string `json:"status"`
}

// SubscribeDeltas is the payload of each "deltas" SSE event,
// {"seq":N,"rows":[...]}, its rows encoded as in a QueryResponse. Seq
// numbers the events from 1 so a client can detect a gap.
type SubscribeDeltas struct {
	Seq  int64
	Rows []relation.Row
}

// --- value encoding -----------------------------------------------------

func kindName(k value.Kind) string {
	switch k {
	case value.KindString:
		return "string"
	case value.KindTime:
		return "time"
	default:
		return "int"
	}
}

// encodeColumns renders a schema as wire column metadata.
func encodeColumns(s *relation.Schema) []Column {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = Column{Name: c.Name, Kind: kindName(c.Kind)}
		switch i {
		case s.TS:
			cols[i].Temporal = "start"
		case s.TE:
			cols[i].Temporal = "end"
		}
	}
	return cols
}

// AppendJSON appends the response as the JSON document encoding/json
// writes for it with its rows boxed as [][]any, byte for byte, but with no
// boxing and no reflection.
func (r *QueryResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"columns":`...)
	if r.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range r.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = wire.AppendString(dst, c.Name)
			dst = append(dst, `,"kind":`...)
			dst = wire.AppendString(dst, c.Kind)
			if c.Temporal != "" {
				dst = append(dst, `,"temporal":`...)
				dst = wire.AppendString(dst, c.Temporal)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rows":`...)
	dst = wire.AppendRows(dst, r.Rows)
	if r.Into != "" {
		dst = append(dst, `,"into":`...)
		dst = wire.AppendString(dst, r.Into)
	}
	if r.Contradiction {
		dst = append(dst, `,"contradiction":true`...)
	}
	if len(r.Notes) > 0 {
		dst = append(dst, `,"notes":[`...)
		for i, n := range r.Notes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = wire.AppendString(dst, n)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"elapsed_ns":`...)
	dst = strconv.AppendInt(dst, r.ElapsedNS, 10)
	return append(dst, '}')
}

// UnmarshalJSON reads a response AppendJSON wrote, each cell typed by its
// column's kind, so an in-process client holds the rows the server sent.
func (r *QueryResponse) UnmarshalJSON(b []byte) error {
	type plain QueryResponse
	env := struct {
		*plain
		Rows json.RawMessage `json:"rows"`
	}{plain: (*plain)(r)}
	if err := json.Unmarshal(b, &env); err != nil {
		return err
	}
	kinds := make([]value.Kind, len(r.Columns))
	for i, c := range r.Columns {
		kinds[i] = kindOf(c.Kind)
	}
	var err error
	r.Rows, err = scanRows(kinds, string(env.Rows))
	return err
}

// AppendJSON appends the event payload as encoding/json writes it with
// its rows boxed as [][]any.
func (d SubscribeDeltas) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, d.Seq, 10)
	dst = append(dst, `,"rows":`...)
	dst = wire.AppendRows(dst, d.Rows)
	return append(dst, '}')
}

// kindOf is the value kind a wire column kind names.
func kindOf(name string) value.Kind {
	switch name {
	case "string":
		return value.KindString
	case "time":
		return value.KindTime
	default:
		return value.KindInt
	}
}

// rowCells collects scanned cells as engine values, kinds[j] typing
// column j, in one backing array the rows share.
type rowCells struct {
	kinds []value.Kind
	cells []value.Value
}

func (c *rowCells) Str(_ int, v string) { c.cells = append(c.cells, value.String_(v)) }

func (c *rowCells) Int(col int, v int64) {
	if c.kinds[col] == value.KindTime {
		c.cells = append(c.cells, value.TimeVal(interval.Time(v)))
	} else {
		c.cells = append(c.cells, value.Int(v))
	}
}

// scanRows decodes a JSON array of rows whose columns have the given
// kinds; empty raw (an absent member) is no rows. String cells share one
// copy of raw.
func scanRows(kinds []value.Kind, raw string) ([]relation.Row, error) {
	if raw == "" {
		return nil, nil
	}
	str := make([]bool, len(kinds))
	for i, k := range kinds {
		str[i] = k == value.KindString
	}
	sink := &rowCells{kinds: kinds}
	s := wire.NewScanner(raw)
	n, err := s.Rows(str, sink)
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return nil, err
	}
	w := len(kinds)
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = sink.cells[i*w : (i+1)*w : (i+1)*w]
	}
	return rows, nil
}

// decodeParams converts wire parameters (decoded with json.Number) to
// engine values: strings bind string values, numbers bind chronons.
func decodeParams(in []any) ([]value.Value, *Error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(in))
	for i, p := range in {
		switch v := p.(type) {
		case string:
			out[i] = value.String_(v)
		case json.Number:
			n, err := v.Int64()
			if err != nil {
				return nil, errf(CodeBind, "parameter $%d: %q is not a chronon (integer): %v", i+1, v.String(), err)
			}
			out[i] = value.TimeVal(interval.Time(n))
		default:
			return nil, errf(CodeBind, "parameter $%d: JSON %T is not bindable (use a string or an integer)", i+1, p)
		}
	}
	return out, nil
}

// decodeRows converts an append's wire rows to engine rows under the
// relation's schema, checking each one as the schema demands. String
// cells share one copy of the request's rows, which the appended rows
// keep alive.
func decodeRows(s *relation.Schema, raw json.RawMessage) ([]relation.Row, *Error) {
	kinds := make([]value.Kind, len(s.Cols))
	for i, c := range s.Cols {
		kinds[i] = c.Kind
	}
	rows, err := scanRows(kinds, string(raw))
	if err != nil {
		var ce *wire.CellError
		if errors.As(err, &ce) && ce.Col < len(s.Cols) {
			return nil, errf(CodeBadRequest, "row %d: column %s (%v): %s", ce.Row, s.Cols[ce.Col].Name, s.Cols[ce.Col].Kind, ce.Msg)
		}
		return nil, errf(CodeBadRequest, "rows: %v", err)
	}
	for i, row := range rows {
		if err := s.CheckRow(row); err != nil {
			return nil, errf(CodeBadRequest, "row %d: %v", i, err)
		}
	}
	return rows, nil
}
