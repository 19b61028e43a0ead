package driver

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"tdb/internal/wire"
)

// ErrDrained is returned by Subscription.Next once the server announced
// shutdown: the stream ended cleanly and no deltas were lost up to the
// drain point.
var ErrDrained = errors.New("tdb: subscription drained (server shutting down)")

// Meta describes an admitted standing query: the server-scoped name,
// the evaluation mode ("incremental" or "batch"), the admission explain
// note, the delta row schema, and the resume surface (the token a
// reconnect presents, and how many events the server's replay ring
// retains behind the stream head).
type Meta struct {
	Name      string
	Mode      string
	Explain   string
	Columns   []Column
	Resume    string
	ReplayCap int
}

// Column is one delta column: its name, kind ("string", "time", "int"),
// and — on the two lifespan-endpoint columns — "start" or "end".
type Column struct {
	Name     string
	Kind     string
	Temporal string
}

// Deltas is one batch of incremental result rows. Seq numbers batches
// from 1 with no gaps, so a client can detect a lost event. Cells are
// string or int64 following the Meta column kinds.
type Deltas struct {
	Seq  int64
	Rows [][]any
}

// Stats reports a subscription's resilience counters: how many times
// the stream auto-resumed after a transport failure, and the time the
// reconnects took (wall clock from detecting the failure to the resumed
// stream's meta event).
type Stats struct {
	Resumes         int
	LastResumeTime  time.Duration
	TotalResumeTime time.Duration
}

// Subscription is a standing temporal query's delta stream — the
// protocol extension database/sql has no surface for. Obtain one from
// Connector.Subscribe; read with Next; Close cancels the server-side
// standing query.
//
// Unless the connector's retry layer is disabled, a subscription
// survives transport failures: Next re-dials with the server's resume
// token and the last delivered seq, the server replays exactly the
// missed events from its bounded ring, and delivery stays exactly-once.
// Next enforces that invariant — a duplicate, gap, or reorder from a
// misbehaving server is a typed ErrSeqViolation, never silently
// repaired. A resume that falls behind the replay ring surfaces as
// ErrResumeHorizon; a server that lost the subscription (restart)
// surfaces the typed unknown_resume error. Both are terminal: the
// caller decides whether to re-subscribe from scratch.
type Subscription struct {
	c       *Connector
	ctx     context.Context
	meta    Meta
	session string
	token   string
	lastSeq int64
	stats   Stats

	strCols []bool // per delta column: a string column, or an integer one
	br      *bufio.Reader
	body    io.ReadCloser
	cancel  context.CancelFunc
	closed  bool
}

// Subscribe admits the quel subscribe statement as a standing query on
// a dedicated session and streams its deltas. pollMS overrides the
// server's poll cadence when positive. The stream lives until Close,
// ctx cancellation, a terminal server error, or server drain; transport
// failures in between auto-resume (see Subscription).
func (c *Connector) Subscribe(ctx context.Context, quel string, pollMS int64) (*Subscription, error) {
	var sess sessionOpenResponse
	if err := c.post(ctx, "session", sessionOpenRequest{Tenant: c.tenant}, &sess); err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	sub := &Subscription{c: c, ctx: sctx, cancel: cancel, session: sess.Session}
	err := sub.dial(subscribeRequest{Session: sess.Session, Quel: quel, PollMS: pollMS})
	if err != nil {
		sub.teardown()
		return nil, err
	}
	return sub, nil
}

// dial opens one subscribe stream (fresh or resume) and consumes its
// meta event, swapping the subscription onto the new connection.
func (s *Subscription) dial(req subscribeRequest) error {
	resp, err := s.c.roundTrip(s.ctx, "subscribe", req)
	if err != nil {
		return err
	}
	if err := checkStatus(resp); err != nil {
		_ = resp.Body.Close()
		return err
	}
	br := bufio.NewReader(resp.Body)
	ev, data, err := readEvent(br)
	if err != nil {
		_ = resp.Body.Close()
		return fmt.Errorf("tdb: subscribe: reading meta event: %w", err)
	}
	if ev != "meta" {
		_ = resp.Body.Close()
		return fmt.Errorf("tdb: subscribe: first event is %q, want meta", ev)
	}
	var m subscribeMeta
	if err := json.Unmarshal([]byte(data), &m); err != nil {
		_ = resp.Body.Close()
		return fmt.Errorf("tdb: subscribe: decoding meta: %w", err)
	}
	if s.body != nil {
		_ = s.body.Close()
	}
	s.body = resp.Body
	s.br = br
	s.token = m.Resume
	s.meta = Meta{Name: m.Name, Mode: m.Mode, Explain: m.Explain, Resume: m.Resume, ReplayCap: m.ReplayCap}
	s.strCols = make([]bool, len(m.Columns))
	for j, c := range m.Columns {
		s.meta.Columns = append(s.meta.Columns, Column(c))
		s.strCols[j] = c.Kind == "string"
	}
	return nil
}

// Meta returns the standing query's admission metadata.
func (s *Subscription) Meta() Meta { return s.meta }

// Stats returns the subscription's resilience counters.
func (s *Subscription) Stats() Stats { return s.stats }

// Next blocks for the next delta batch. It returns ErrDrained after a
// server drain and a typed *Error after a server-reported terminal
// condition (the workspace breaker opening, a resume falling past the
// replay horizon). A transport failure triggers auto-resume — only when
// that fails does the transport error surface. Every delivered batch
// has seq exactly lastSeq+1; anything else is ErrSeqViolation.
func (s *Subscription) Next() (Deltas, error) {
	for {
		d, err := s.nextEvent()
		if err == nil {
			if d.Seq != s.lastSeq+1 {
				kind := "gap"
				if d.Seq <= s.lastSeq {
					kind = "duplicate or reorder"
				}
				return Deltas{}, fmt.Errorf("tdb: delta seq %d after %d (%s): %w", d.Seq, s.lastSeq, kind, ErrSeqViolation)
			}
			s.lastSeq = d.Seq
			return d, nil
		}
		var te *Error
		if errors.As(err, &te) || errors.Is(err, ErrDrained) || errors.Is(err, ErrSeqViolation) {
			return Deltas{}, err // server-reported or protocol violation: terminal
		}
		if s.closed || s.c.retry.Disabled || s.token == "" || s.ctx.Err() != nil {
			return Deltas{}, err
		}
		if rerr := s.resume(); rerr != nil {
			return Deltas{}, rerr
		}
	}
}

// nextEvent reads one stream event and maps it like the pre-resume
// protocol: deltas decode, drain is ErrDrained, error events carry the
// typed code.
func (s *Subscription) nextEvent() (Deltas, error) {
	ev, data, err := readEvent(s.br)
	if err != nil {
		return Deltas{}, fmt.Errorf("tdb: subscription stream: %w", err)
	}
	switch ev {
	case "deltas":
		d, err := decodeDeltas(data, s.strCols)
		if err != nil {
			return Deltas{}, fmt.Errorf("tdb: decoding deltas: %w", err)
		}
		return d, nil
	case "drain":
		return Deltas{}, ErrDrained
	case "error":
		var we struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		}
		if err := json.Unmarshal([]byte(data), &we); err != nil || we.Code == "" {
			return Deltas{}, fmt.Errorf("tdb: malformed stream error event: %s", data)
		}
		return Deltas{}, &Error{Code: we.Code, Message: we.Message}
	default:
		return Deltas{}, fmt.Errorf("tdb: unexpected stream event %q", ev)
	}
}

// deltaMembers names a "deltas" event payload's members on the wire.
var deltaMembers = []string{"seq", "rows"}

// decodeDeltas reads one "deltas" payload with one scan, each cell a
// string or an int64 as its column's kind says. A cell of the other JSON
// type, a row of the wrong arity or a malformed payload is an error.
func decodeDeltas(data string, strCols []bool) (Deltas, error) {
	var d Deltas
	var cells anyCells
	n := 0
	var misfit error // the last rows member's *wire.CellError: a later one replaces it
	s := wire.NewScanner(data)
	err := s.Object(deltaMembers, func(member int) error {
		if member == 0 {
			return s.Decode(&d.Seq)
		}
		cells = cells[:0]
		n, misfit = s.Rows(strCols, &cells)
		var ce *wire.CellError
		if misfit != nil && !errors.As(misfit, &ce) {
			return misfit
		}
		return nil
	})
	if err == nil {
		err = s.End()
	}
	if err == nil {
		err = misfit
	}
	if err != nil {
		return Deltas{}, err
	}
	w := len(strCols)
	d.Rows = make([][]any, n)
	for i := range d.Rows {
		d.Rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return d, nil
}

// anyCells collects scanned cells row after row as Deltas cells.
type anyCells []any

func (c *anyCells) Str(_ int, v string) { *c = append(*c, v) }
func (c *anyCells) Int(_ int, v int64)  { *c = append(*c, v) }

// resume re-dials the stream with the resume token and last delivered
// seq, under the connector's backoff policy. Typed server errors are
// terminal immediately (retrying a resume_horizon cannot help); only
// transport failures burn further attempts.
func (s *Subscription) resume() error {
	start := time.Now()
	err := s.c.withRetry(s.ctx, "resume", func() error {
		return s.dial(subscribeRequest{Session: s.session, Resume: s.token, AfterSeq: s.lastSeq})
	})
	if err != nil {
		return err
	}
	s.stats.Resumes++
	s.stats.LastResumeTime = time.Since(start)
	s.stats.TotalResumeTime += s.stats.LastResumeTime
	return nil
}

// teardown cancels the stream context, closes any open body, and closes
// the dedicated session.
func (s *Subscription) teardown() {
	s.cancel()
	if s.body != nil {
		_ = s.body.Close()
	}
	_ = s.c.post(context.Background(), "session/close", sessionCloseRequest{Session: s.session}, nil)
}

// Close cancels the stream; the server deregisters the standing query
// with the session.
func (s *Subscription) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.teardown()
	return nil
}

// readEvent parses one server-sent event (event: + data: lines up to a
// blank line).
func readEvent(br *bufio.Reader) (event, data string, err error) {
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", "", err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && event != "":
			return event, data, nil
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}
