package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/fault"
	"tdb/internal/interval"
	"tdb/internal/live"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// decodeBody decodes a JSON request body with number preservation
// (json.Number keeps chronons exact through int64, including Forever).
// The body is one JSON value: only white space may follow it.
func decodeBody(r *http.Request, v any) *Error {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return errf(CodeBadRequest, "decode request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errf(CodeBadRequest, "decode request: data after the request value")
	}
	return nil
}

func writeError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterMS > 0 {
		// Retry-After is whole seconds; round up so the header never
		// advises a shorter wait than the envelope.
		secs := (e.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(e.HTTP)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: wireError{Code: e.Code, Message: e.Message, RetryAfterMS: e.RetryAfterMS}})
}

// writeJSON serializes a success response with encoding/json and writes
// it through writeBody.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, errf(CodeExec, "encode response: %v", err))
		return
	}
	writeBody(w, b)
}

// writeBody writes a success response's JSON document through the
// server/wire-write failpoint. Torn mode sends a strict prefix of the body
// and severs the connection, so a client can never mistake an injected
// wire failure for a complete result: the truncated JSON fails to decode.
func writeBody(w http.ResponseWriter, b []byte) {
	n, ferr := fault.Torn("server/wire-write", len(b))
	if ferr != nil {
		writeError(w, errf(CodeExec, "wire write: %v", ferr))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	if n < len(b) {
		_, _ = w.Write(b[:n])
		// lint:allow panic — http.ErrAbortHandler is the stdlib idiom for severing a connection mid-response; net/http recovers it
		panic(http.ErrAbortHandler)
	}
	_, _ = w.Write(b)
}

// spareBodies keeps a few query-response buffers between requests. A
// sync.Pool would not do: it empties at every garbage collection, and a
// wide result allocates enough to start one, so its buffer would seldom
// outlive it. A buffer over spareBodyMax bytes is not kept.
var spareBodies = make(chan []byte, 2)

const spareBodyMax = 4 << 20

// writeQuery encodes a query or execute response into a spare buffer and
// writes it through writeBody.
func writeQuery(w http.ResponseWriter, resp *QueryResponse) {
	var buf []byte
	select {
	case buf = <-spareBodies:
	default:
	}
	buf = resp.AppendJSON(buf[:0])
	defer func() {
		if cap(buf) <= spareBodyMax {
			select {
			case spareBodies <- buf:
			default:
			}
		}
	}()
	writeBody(w, buf)
}

// resolve turns wire (session, tenant) fields into server state. With a
// session id the tenant is the session's; without one the request is
// sessionless: named-tenant quota over the shared catalog.
func (s *Server) resolve(sessionID, tenantName string) (*session, *tenant, *Error) {
	if sessionID != "" {
		sess, apiErr := s.sessions.get(sessionID)
		if apiErr != nil {
			return nil, nil, apiErr
		}
		return sess, sess.tenant, nil
	}
	ten, apiErr := s.adm.tenant(tenantName)
	return nil, ten, apiErr
}

// admit wraps tenant admission with the quota journal entry.
func (s *Server) admit(r *http.Request, ten *tenant) *Error {
	apiErr := ten.acquire(r.Context(), s.draining)
	if apiErr != nil && (apiErr.Code == CodeQuotaConcurrency || apiErr.Code == CodeQueueTimeout) {
		s.events.Emit(EventQuotaReject, "", map[string]string{
			"tenant": ten.cfg.Name, "code": apiErr.Code,
		})
	}
	return apiErr
}

func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	status := "serving"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, PingResponse{Protocol: Protocol, Status: status})
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req SessionOpenRequest
	if apiErr := decodeBody(r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	ten, apiErr := s.adm.tenant(req.Tenant)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	sess := s.sessions.open(ten, s.db.Fork())
	writeJSON(w, SessionOpenResponse{
		Protocol:      Protocol,
		Session:       sess.id,
		Tenant:        ten.cfg.Name,
		IdleTimeoutMS: s.cfg.IdleTimeout.Milliseconds(),
	})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	var req SessionCloseRequest
	if apiErr := decodeBody(r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	s.sessions.close(req.Session)
	writeJSON(w, map[string]string{"status": "closed"})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if apiErr := decodeBody(r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	sess, ten, apiErr := s.resolve(req.Session, req.Tenant)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if apiErr := s.admit(r, ten); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	defer ten.release()
	params, apiErr := decodeParams(req.Params)
	if apiErr == nil {
		var resp *QueryResponse
		resp, apiErr = s.runRetrieve(r, sess, ten, req.Quel, params)
		if apiErr == nil {
			ten.cQueries.Inc()
			writeQuery(w, resp)
			return
		}
	}
	ten.cErrors.Inc()
	writeError(w, apiErr)
}

// runRetrieve is the shared text-to-rows path: parse, translate, bind,
// optimize, execute, encode — under the shared catalog lock over the
// server's DB or, serialized per session, the session's fork of it (which
// may gain an "into" relation mid-request).
func (s *Server) runRetrieve(r *http.Request, sess *session, ten *tenant, text string, params []value.Value) (*QueryResponse, *Error) {
	if err := fault.Check("server/execute"); err != nil {
		return nil, errf(CodeExec, "execute: %v", err)
	}
	prog, err := quel.Parse(text)
	if err != nil {
		return nil, errf(CodeParse, "%v", err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	db := s.db
	if sess != nil {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if apiErr := sess.expired(); apiErr != nil {
			return nil, apiErr
		}
		db = sess.db
	}
	qs, err := quel.Translate(prog, db)
	if err != nil {
		return nil, errf(CodeTranslate, "%v", err)
	}
	q, apiErr := singleRetrieve(qs, sess != nil)
	if apiErr != nil {
		return nil, apiErr
	}
	tree, err := quel.BindParams(q, params)
	if err != nil {
		return nil, errf(CodeBind, "%v", err)
	}
	res, err := optimizer.Optimize(tree, db, s.optOptions())
	if err != nil {
		return nil, errf(CodePlan, "%v", err)
	}
	return s.execute(r, sess, ten, db, q, res)
}

// singleRetrieve enforces one executable statement per request and
// routes standing queries to the subscription endpoint.
func singleRetrieve(qs []quel.Query, hasSession bool) (*quel.Query, *Error) {
	if len(qs) == 0 {
		return nil, errf(CodeBadRequest, "no retrieve statement in request (range declarations alone run nothing)")
	}
	if len(qs) > 1 {
		return nil, errf(CodeBadRequest, "%d retrieve statements in one request; the protocol is one statement per call", len(qs))
	}
	q := &qs[0]
	if q.Standing != "" {
		return nil, errf(CodeBadRequest, "subscribe statements stream; use the %s/subscribe endpoint", Protocol)
	}
	if q.Into != "" && !hasSession {
		return nil, errf(CodeBadRequest, "into %q requires a session (sessionless queries are read-only)", q.Into)
	}
	return q, nil
}

// execute runs an optimized plan and encodes the response. Caller holds
// the shared catalog read lock (and the session lock when sess != nil).
func (s *Server) execute(r *http.Request, sess *session, ten *tenant, db *engine.DB, q *quel.Query, res *optimizer.Result) (*QueryResponse, *Error) {
	start := time.Now()
	resp := &QueryResponse{}
	var out *relation.Relation
	if res.Contradiction {
		sch, err := algebra.OutputSchema(res.Tree, db)
		if err != nil {
			return nil, errf(CodePlan, "output schema: %v", err)
		}
		out = relation.New("", sch)
		resp.Contradiction = true
		resp.Notes = append(resp.Notes, "semantic optimization proved the query empty; nothing was executed")
	} else {
		var err error
		if out, _, err = engine.Run(db, res.Tree, s.execOptions(r.Context(), ten)); err != nil {
			if errors.Is(err, engine.ErrInterrupted) {
				return nil, errf(CodeCanceled, "%v", err)
			}
			return nil, errf(CodeExec, "%v", err)
		}
	}
	if q.Into != "" {
		out.Name = q.Into
		if err := sess.db.Register(out); err != nil {
			return nil, errf(CodeExec, "register into %s: %v", q.Into, err)
		}
		resp.Into = q.Into
	}
	resp.Columns = encodeColumns(out.Schema)
	resp.Rows = out.Rows
	resp.ElapsedNS = time.Since(start).Nanoseconds()
	return resp, nil
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req PrepareRequest
	if apiErr := decodeBody(r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if req.Session == "" {
		writeError(w, errf(CodeBadRequest, "prepare requires a session"))
		return
	}
	sess, apiErr := s.sessions.get(req.Session)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	prog, err := quel.Parse(req.Quel)
	if err != nil {
		writeError(w, errf(CodeParse, "%v", err))
		return
	}
	s.mu.RLock()
	sess.mu.Lock()
	if apiErr := sess.expired(); apiErr != nil {
		sess.mu.Unlock()
		s.mu.RUnlock()
		writeError(w, apiErr)
		return
	}
	qs, err := quel.Translate(prog, sess.db)
	var (
		q    *quel.Query
		cols []Column
	)
	if err == nil {
		q, apiErr = singleRetrieve(qs, true)
		if apiErr == nil {
			var sch *relation.Schema
			sch, err = algebra.OutputSchema(q.Tree, sess.db)
			if err == nil {
				cols = encodeColumns(sch)
			}
		}
	}
	sess.mu.Unlock()
	s.mu.RUnlock()
	if err != nil {
		writeError(w, errf(CodeTranslate, "%v", err))
		return
	}
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	p := &prepared{src: req.Quel, q: *q, cols: cols}
	id := sess.addStmt(p)
	writeJSON(w, PrepareResponse{Stmt: id, NumParams: q.NumParams, Columns: cols})
}

// paramKey renders a parameter binding as a plan-cache key.
func paramKey(params []value.Value) string {
	if len(params) == 0 {
		return ""
	}
	var b strings.Builder
	for _, v := range params {
		b.WriteString(v.Kind().String())
		b.WriteByte(':')
		b.WriteString(v.String())
		b.WriteByte(0)
	}
	return b.String()
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req ExecuteRequest
	if apiErr := decodeBody(r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	sess, apiErr := s.sessions.get(req.Session)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	ten := sess.tenant
	p, apiErr := sess.stmt(req.Stmt)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if apiErr := s.admit(r, ten); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	defer ten.release()
	resp, apiErr := s.runPrepared(r, sess, ten, p, req.Params)
	if apiErr != nil {
		ten.cErrors.Inc()
		writeError(w, apiErr)
		return
	}
	ten.cQueries.Inc()
	writeQuery(w, resp)
}

// runPrepared executes a prepared statement: the parse and translation
// are cached in the statement; the optimized plan is cached per
// parameter binding (the semantic pass folds constants, so the plan is
// binding-dependent by construction). The cached plan runs as it is:
// engine.Run writes no field of a plan node.
func (s *Server) runPrepared(r *http.Request, sess *session, ten *tenant, p *prepared, wireParams []any) (*QueryResponse, *Error) {
	if err := fault.Check("server/execute"); err != nil {
		return nil, errf(CodeExec, "execute: %v", err)
	}
	params, apiErr := decodeParams(wireParams)
	if apiErr != nil {
		return nil, apiErr
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if apiErr := sess.expired(); apiErr != nil {
		return nil, apiErr
	}
	key := paramKey(params)
	res := p.cachedPlan(key)
	if res == nil {
		tree, err := quel.BindParams(&p.q, params)
		if err != nil {
			return nil, errf(CodeBind, "%v", err)
		}
		res, err = optimizer.Optimize(tree, sess.db, s.optOptions())
		if err != nil {
			return nil, errf(CodePlan, "%v", err)
		}
		p.storePlan(key, res)
	}
	return s.execute(r, sess, ten, sess.db, &p.q, res)
}

func (s *Server) handleCloseStmt(w http.ResponseWriter, r *http.Request) {
	var req CloseStmtRequest
	if apiErr := decodeBody(r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	sess, apiErr := s.sessions.get(req.Session)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	sess.closeStmt(req.Stmt)
	writeJSON(w, map[string]string{"status": "closed"})
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if apiErr := decodeBody(r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	_, ten, apiErr := s.resolve(req.Session, req.Tenant)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	var key string
	if req.IdemKey != "" {
		key = ten.cfg.Name + "\x00" + req.Relation + "\x00" + req.IdemKey
		e, c, apiErr := s.dedup.claim(r.Context(), key)
		if apiErr != nil {
			writeError(w, apiErr)
			return
		}
		if e != nil {
			// Replay the remembered outcome — rows are never applied twice
			// under one key, and a retried failure reports the original
			// error, not a second partial application.
			if e.err != nil {
				writeError(w, e.err)
				return
			}
			resp := e.resp
			resp.Deduped = true
			writeJSON(w, resp)
			return
		}
		// This request is the key's one applier until store records its
		// outcome; a panic before that drops the claim for a retry.
		defer s.dedup.release(c)
	}
	s.mu.Lock()
	resp, apiErr := s.applyAppend(&req)
	s.mu.Unlock()
	if key != "" {
		s.dedup.store(key, resp, apiErr)
		if err := fault.Check("server/dup-append"); err != nil {
			// The outcome is recorded but the response never leaves: the
			// client sees an ambiguous failure and must retry into the
			// dedup window.
			// lint:allow panic — http.ErrAbortHandler severs the connection; net/http recovers it
			panic(http.ErrAbortHandler)
		}
	}
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, resp)
}

// applyAppend ingests the rows under the exclusive catalog lock and
// reports the outcome. Every row is decoded and checked before any is
// applied, so a malformed row applies nothing. Partial application is
// still possible (a late tuple at row i leaves rows 0..i-1 applied) —
// which is exactly why retries must travel under an idempotency key.
func (s *Server) applyAppend(req *AppendRequest) (AppendResponse, *Error) {
	sch, err := s.db.SchemaOf(req.Relation)
	if err != nil {
		return AppendResponse{}, errf(CodeUnknownRelation, "%v", err)
	}
	rows, apiErr := decodeRows(sch, req.Rows)
	if apiErr != nil {
		return AppendResponse{}, apiErr
	}
	tbl := s.live.Table(req.Relation)
	if tbl == nil {
		if tbl, err = s.live.Live(req.Relation, interval.Time(req.Slack)); err != nil {
			return AppendResponse{}, errf(CodeExec, "promote %s to live ingestion: %v", req.Relation, err)
		}
	}
	appended := 0
	for i, row := range rows {
		if err := s.live.Append(req.Relation, row); err != nil {
			code := CodeExec
			if errors.Is(err, live.ErrLateTuple) {
				code = CodeLateTuple
			}
			return AppendResponse{}, errf(code, "row %d: %v", i, err)
		}
		appended++
	}
	if req.Flush {
		if err := tbl.Flush(); err != nil {
			return AppendResponse{}, errf(CodeExec, "flush: %v", err)
		}
	}
	return AppendResponse{
		Appended:  appended,
		Watermark: int64(tbl.Watermark()),
		Buffered:  tbl.Buffered(),
		Released:  tbl.Released(),
	}, nil
}
