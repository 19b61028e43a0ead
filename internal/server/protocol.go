package server

import (
	"encoding/json"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
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

type QueryResponse struct {
	Columns []Column `json:"columns"`
	Rows    [][]any  `json:"rows"`
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
	Session  string  `json:"session,omitempty"`
	Tenant   string  `json:"tenant,omitempty"`
	Relation string  `json:"relation"`
	Rows     [][]any `json:"rows"`
	Slack    int64   `json:"slack,omitempty"`
	// Flush drains the reorder buffer after the appends, releasing
	// every buffered row to storage and the standing queries.
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

// SubscribeDeltas is the payload of each "deltas" SSE event. Seq numbers
// the events from 1 so a client can detect a gap.
type SubscribeDeltas struct {
	Seq  int64   `json:"seq"`
	Rows [][]any `json:"rows"`
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

// encodeRows renders rows as JSON-ready values: strings as strings,
// time/int as int64 (encoding/json emits int64 exactly, so Forever
// round-trips; drivers must decode with json.Number for the same
// reason).
func encodeRows(rows []relation.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		vals := make([]any, len(r))
		for j, v := range r {
			if v.Kind() == value.KindString {
				vals[j] = v.AsString()
			} else {
				vals[j] = v.AsInt()
			}
		}
		out[i] = vals
	}
	return out
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

// decodeRow converts one wire row to engine values under a schema.
func decodeRow(s *relation.Schema, in []any) (relation.Row, *Error) {
	if len(in) != s.Arity() {
		return nil, errf(CodeBadRequest, "row arity %d does not match schema %s", len(in), s)
	}
	row := make(relation.Row, len(in))
	for i, rv := range in {
		col := s.Cols[i]
		switch v := rv.(type) {
		case string:
			if col.Kind != value.KindString {
				return nil, errf(CodeBadRequest, "column %s wants a %v, got string %q", col.Name, col.Kind, v)
			}
			row[i] = value.String_(v)
		case json.Number:
			n, err := v.Int64()
			if err != nil {
				return nil, errf(CodeBadRequest, "column %s: %q is not an integer: %v", col.Name, v.String(), err)
			}
			switch col.Kind {
			case value.KindTime:
				row[i] = value.TimeVal(interval.Time(n))
			case value.KindInt:
				row[i] = value.Int(n)
			default:
				return nil, errf(CodeBadRequest, "column %s wants a %v, got number %s", col.Name, col.Kind, v.String())
			}
		default:
			return nil, errf(CodeBadRequest, "column %s: JSON %T is not a legal cell", col.Name, rv)
		}
	}
	if err := s.CheckRow(row); err != nil {
		return nil, errf(CodeBadRequest, "%v", err)
	}
	return row, nil
}
