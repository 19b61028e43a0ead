package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"tdb/internal/wire"
)

// The driver speaks the wire protocol from its JSON shapes alone — it
// deliberately does not share Go types with internal/server, the way an
// out-of-process client could not. The conformance suite pins the two
// sides together.

// protocolVersion is the wire protocol this driver speaks; every
// endpoint lives under "/" + protocolVersion + "/".
const protocolVersion = "v1"

type wireColumn struct {
	Name string `json:"name"`
	// Kind is "string", "time", or "int".
	Kind string `json:"kind"`
	// Temporal is "start" or "end" on the two columns the schema
	// designates as the tuple lifespan endpoints; empty otherwise.
	Temporal string `json:"temporal,omitempty"`
}

type sessionOpenRequest struct {
	Tenant string `json:"tenant,omitempty"`
}

type sessionOpenResponse struct {
	Protocol      string `json:"protocol"`
	Session       string `json:"session"`
	Tenant        string `json:"tenant"`
	IdleTimeoutMS int64  `json:"idle_timeout_ms"`
}

type sessionCloseRequest struct {
	Session string `json:"session"`
}

type queryRequest struct {
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Quel    string `json:"quel"`
	Params  []any  `json:"params,omitempty"`
}

// queryResponse is a /v1/query or /v1/execute response, read by decode:
// the envelope members, and the rows as typed columns.
type queryResponse struct {
	Columns       []wireColumn
	Into          string
	Contradiction bool
	Notes         []string
	ElapsedNS     int64
	// cells holds the rows column by column: cells[j].Strings for a
	// string column, cells[j].Ints otherwise, n cells each.
	cells wire.Columns
	n     int
}

// queryMembers names queryResponse's members on the wire, in the order
// decode switches on them.
var queryMembers = []string{"columns", "rows", "into", "contradiction", "notes", "elapsed_ns"}

// decode reads a whole response body with one scan. Members may come in
// any order and unknown ones are skipped; the rows go straight into typed
// columns under the columns' kinds. The result is what encoding/json with
// UseNumber, followed by a conversion of each cell to its column's kind,
// makes of the body (duplicate members included), and a body that
// conversion would reject is an error here.
func (q *queryResponse) decode(body string) error {
	s := wire.NewScanner(body)
	var (
		rows     string // the last rows member, to scan again if the columns change after it
		rowsGen  int    // the columns generation its cells were scanned under
		gen      int    // bumped by every columns member
		misfit   error  // the last rows member's *wire.CellError
		scanRows = func(sc *wire.Scanner, rest string) error {
			// Rows are "],["-separated as the server writes them; the
			// count sizes each column once (a guess, never a limit), and
			// no more cells are reserved than the rest of the body holds,
			// at two bytes a cell at least.
			hint := min(strings.Count(rest, "],[")+1, len(rest)/(2*max(1, len(q.Columns))))
			str := make([]bool, len(q.Columns))
			q.cells = make(wire.Columns, len(q.Columns))
			for j, c := range q.Columns {
				if str[j] = c.Kind == "string"; str[j] {
					q.cells[j].Strings = make([]string, 0, hint)
				} else {
					q.cells[j].Ints = make([]int64, 0, hint)
				}
			}
			var err error
			q.n, err = sc.Rows(str, q.cells)
			return err
		}
	)
	err := s.Object(queryMembers, func(member int) error {
		switch member {
		case 0:
			gen++
			return s.Decode(&q.Columns)
		case 1:
			start := s.Offset()
			misfit = scanRows(s, body[start:])
			var ce *wire.CellError
			if misfit != nil && !errors.As(misfit, &ce) {
				return misfit
			}
			rows, rowsGen = body[start:s.Offset()], gen
			return nil
		case 2:
			return s.Decode(&q.Into)
		case 3:
			return s.Decode(&q.Contradiction)
		case 4:
			return s.Decode(&q.Notes)
		default:
			return s.Decode(&q.ElapsedNS)
		}
	})
	if err == nil {
		err = s.End()
	}
	switch {
	case err != nil:
		return err
	case rows != "" && rowsGen != gen:
		return scanRows(wire.NewScanner(rows), rows)
	}
	if q.cells == nil {
		q.cells = make(wire.Columns, len(q.Columns))
	}
	return misfit
}

type prepareRequest struct {
	Session string `json:"session"`
	Quel    string `json:"quel"`
}

type prepareResponse struct {
	Stmt      string       `json:"stmt"`
	NumParams int          `json:"num_params"`
	Columns   []wireColumn `json:"columns"`
}

type executeRequest struct {
	Session string `json:"session"`
	Stmt    string `json:"stmt"`
	Params  []any  `json:"params,omitempty"`
}

type closeStmtRequest struct {
	Session string `json:"session"`
	Stmt    string `json:"stmt"`
}

type appendRequest struct {
	Session  string  `json:"session,omitempty"`
	Tenant   string  `json:"tenant,omitempty"`
	Relation string  `json:"relation"`
	Rows     [][]any `json:"rows"`
	Slack    int64   `json:"slack,omitempty"`
	Flush    bool    `json:"flush,omitempty"`
	IdemKey  string  `json:"idem_key,omitempty"`
}

type subscribeRequest struct {
	Session  string `json:"session"`
	Quel     string `json:"quel,omitempty"`
	PollMS   int64  `json:"poll_ms,omitempty"`
	Resume   string `json:"resume,omitempty"`
	AfterSeq int64  `json:"after_seq,omitempty"`
}

type subscribeMeta struct {
	Name      string       `json:"name"`
	Mode      string       `json:"mode"`
	Explain   string       `json:"explain,omitempty"`
	Columns   []wireColumn `json:"columns"`
	Resume    string       `json:"resume,omitempty"`
	ReplayCap int          `json:"replay_cap,omitempty"`
}

type errorEnvelope struct {
	Error struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	} `json:"error"`
}

// post runs one protocol request under the retry policy: marshal, POST,
// and either decode the response into out or map the error envelope to
// a typed *Error. Every endpoint routed through post is safe to repeat
// (appends pass through only when keyed); use postOnce otherwise.
// Chronons travel as JSON numbers up to interval.Forever (2^63-2), so
// responses are decoded as integers — json.Number or the row scanner's
// int64 cells — never float64, which would corrupt them.
func (c *Connector) post(ctx context.Context, endpoint string, in, out any) error {
	return c.withRetry(ctx, endpoint, func() error {
		return c.postOnce(ctx, endpoint, in, out)
	})
}

// postOnce is one attempt with no retry — the path for requests whose
// repetition is not provably safe (unkeyed appends).
func (c *Connector) postOnce(ctx context.Context, endpoint string, in, out any) error {
	resp, err := c.roundTrip(ctx, endpoint, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if q, ok := out.(*queryResponse); ok {
		var body strings.Builder
		if resp.ContentLength > 0 {
			body.Grow(int(resp.ContentLength))
		}
		if _, err := io.Copy(&body, resp.Body); err != nil {
			return fmt.Errorf("tdb: reading %s response: %w", endpoint, err)
		}
		if err := q.decode(body.String()); err != nil {
			return fmt.Errorf("tdb: decoding %s response: %w", endpoint, err)
		}
		return nil
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("tdb: decoding %s response: %w", endpoint, err)
	}
	return nil
}

func (c *Connector) roundTrip(ctx context.Context, endpoint string, in any) (*http.Response, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("tdb: encoding %s request: %w", endpoint, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/"+protocolVersion+"/"+endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("tdb: %s: %w", endpoint, err)
	}
	return resp, nil
}

// checkStatus maps a non-2xx response to a typed *Error. The body is
// consumed only on error paths.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env errorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		return &Error{Code: env.Error.Code, Message: env.Error.Message, RetryAfterMS: env.Error.RetryAfterMS}
	}
	return fmt.Errorf("tdb: server returned %s: %.200s", resp.Status, raw)
}
