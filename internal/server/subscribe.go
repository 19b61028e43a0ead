package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"tdb/internal/algebra"
	"tdb/internal/fault"
	"tdb/internal/live"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
)

// writeEvent emits one server-sent event with v's JSON as its data.
func writeEvent(w http.ResponseWriter, fl http.Flusher, event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeEventData(w, fl, event, b)
}

// writeEventData emits one server-sent event and flushes it to the client.
func writeEventData(w http.ResponseWriter, fl http.Flusher, event string, data []byte) error {
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	fl.Flush()
	return nil
}

// handleSubscribe admits a standing query and streams its deltas as
// server-sent events until the client cancels, the stream errors (the
// workspace breaker opening included), or the server drains. The
// admission slot is held only through registration; the open stream is
// tracked by the tenant's subscriptions gauge and bounded by its own
// polling — the operator runs only when the stream polls it — not the
// query quota.
//
// The subscription outlives the stream: its resume state (standing
// query, replay ring, resume token) survives a disconnect, and a
// request with Resume set re-attaches where the client left off.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req SubscribeRequest
	if apiErr := decodeBody(r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if apiErr := req.validate(); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	sess, apiErr := s.sessions.get(req.Session)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(CodeExec, "transport does not support streaming"))
		return
	}
	if req.Resume != "" {
		s.handleResume(w, fl, r, sess, &req)
		return
	}
	ten := sess.tenant
	prog, err := quel.Parse(req.Quel)
	if err != nil {
		writeError(w, errf(CodeParse, "%v", err))
		return
	}
	// Standing queries scan base relations through the shared live
	// manager, so translation runs against the shared catalog: a
	// session-private "into" relation has no ingestion front to stand on.
	s.mu.RLock()
	qs, err := quel.Translate(prog, s.db)
	s.mu.RUnlock()
	if err != nil {
		writeError(w, errf(CodeTranslate, "%v", err))
		return
	}
	if len(qs) != 1 || qs[0].Standing == "" {
		writeError(w, errf(CodeBadRequest, "subscribe takes exactly one subscribe statement"))
		return
	}
	q := qs[0]

	if apiErr := s.admit(r, ten); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	name := fmt.Sprintf("%s.%d.%s", sess.id, sess.nextSub(), q.Standing)
	s.mu.Lock()
	res, err := optimizer.Optimize(q.Tree, s.db, s.optOptions())
	var sq *live.StandingQuery
	if err == nil {
		sq, err = s.live.Register(name, res.Tree, live.RegisterOptions{
			AllowDegrade: true,
			Govern:       ten.cfg.Govern,
		})
	}
	s.mu.Unlock()
	ten.release()
	if err != nil {
		var decl *live.DeclinedError
		if errors.As(err, &decl) {
			writeError(w, errf(CodeDeclined, "%v", err))
			return
		}
		writeError(w, errf(CodePlan, "%v", err))
		return
	}

	sch := sq.Schema()
	if sch == nil {
		s.mu.RLock()
		sch, err = algebra.OutputSchema(res.Tree, s.db)
		s.mu.RUnlock()
		if err != nil {
			s.mu.Lock()
			_ = s.live.Deregister(name)
			s.mu.Unlock()
			writeError(w, errf(CodePlan, "output schema: %v", err))
			return
		}
	}
	poll := s.cfg.SubscribePoll
	if req.PollMS > 0 {
		poll = time.Duration(req.PollMS) * time.Millisecond
	}
	st := newSubState(name, sess.id, sq, s.cfg.ReplayRing)
	st.mode = sq.Mode().String()
	st.explain = sq.Explain()
	st.cols = encodeColumns(sch)
	st.poll = poll
	s.registerSub(st)
	kick := st.attach()

	writeStreamHeaders(w)
	if err := writeEvent(w, fl, "meta", SubscribeMeta{
		Name:      name,
		Mode:      st.mode,
		Explain:   st.explain,
		Columns:   st.cols,
		Resume:    name,
		ReplayCap: st.ringCap,
	}); err != nil {
		return
	}
	s.streamSub(w, fl, r, st, kick)
}

// handleResume re-attaches a disconnected client to its subscription:
// replay every retained event past the client's last seq, then continue
// the live stream. The standing query kept polling state the whole time,
// so the spliced stream is byte-identical to one that never severed.
func (s *Server) handleResume(w http.ResponseWriter, fl http.Flusher, r *http.Request, sess *session, req *SubscribeRequest) {
	if err := fault.Check("server/resume-gap"); err != nil {
		writeError(w, errf(CodeResumeHorizon, "resume after seq %d: %v", req.AfterSeq, err))
		return
	}
	st := s.lookupSub(req.Resume)
	if st == nil || st.sessID != sess.id {
		writeError(w, errf(CodeUnknownResume, "resume token %q is not registered (server restart, subscription teardown, or foreign session)", req.Resume))
		return
	}
	replay, apiErr := st.replaySince(req.AfterSeq)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	kick := st.attach()

	writeStreamHeaders(w)
	if err := writeEvent(w, fl, "meta", SubscribeMeta{
		Name:      st.token,
		Mode:      st.mode,
		Explain:   st.explain,
		Columns:   st.cols,
		Resume:    st.token,
		ReplayCap: st.ringCap,
	}); err != nil {
		return
	}
	for _, ev := range replay {
		if err := writeEventData(w, fl, "deltas", ev.data); err != nil {
			return
		}
	}
	s.streamSub(w, fl, r, st, kick)
}

// maxPollMS is the longest poll_ms whose interval fits a time.Duration.
const maxPollMS = math.MaxInt64 / int64(time.Millisecond)

// validate rejects a subscribe request the handler cannot serve, before
// anything is registered: no session, a resume that also carries quel,
// or a poll interval that overflows time.Duration (it would wrap negative
// and panic the stream's ticker).
func (req *SubscribeRequest) validate() *Error {
	switch {
	case req.Session == "":
		return errf(CodeBadRequest, "subscribe requires a session")
	case req.Resume != "" && req.Quel != "":
		return errf(CodeBadRequest, "a resume request re-attaches to an existing subscription; quel must be empty")
	case req.PollMS > maxPollMS:
		return errf(CodeBadRequest, "poll_ms %d exceeds the longest poll interval, %d ms", req.PollMS, maxPollMS)
	}
	return nil
}

func writeStreamHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
}

// streamSub is the shared live loop: poll the standing query, record
// each delta batch in the replay ring, and deliver it. The two sever
// failpoints bracket the write — subscribe-deliver fires after the ring
// recorded the event but before the wire saw it (a resume must replay
// it: the zero-loss edge), conn-sever fires after a successful write (a
// resume must NOT replay it: the zero-duplication edge).
func (s *Server) streamSub(w http.ResponseWriter, fl http.Flusher, r *http.Request, st *subState, kick chan struct{}) {
	ten := s.sessionTenant(st.sessID)
	if ten != nil {
		ten.gSubs.Add(1)
		defer ten.gSubs.Add(-1)
	}
	ticker := time.NewTicker(st.poll)
	defer ticker.Stop()
	drain := func() {
		_ = writeEvent(w, fl, "drain", map[string]string{"reason": "server shutting down"})
		s.dropSub(st.token)
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-kick:
			// A newer stream attached (or the subscription dropped); this
			// writer must stop so the subscription never has two. Shutdown
			// drops every session's subscriptions too, and a stream it
			// kicks still owes its client the drain event.
			if s.Draining() {
				drain()
			}
			return
		case <-s.draining:
			drain()
			return
		case <-ticker.C:
		}
		// The stream is the session's liveness signal: an attached
		// subscriber holds no per-request admission but must not have its
		// session idle-expire underneath the subscription.
		s.sessions.touch(st.sessID)
		s.mu.Lock()
		rows, err := st.sq.Poll()
		s.mu.Unlock()
		if err != nil && s.Draining() {
			// Shutdown dropped the query or closed the live manager
			// under this poll; the client is owed the drain, not an error.
			drain()
			return
		}
		if err != nil {
			code := CodeExec
			if errors.Is(err, live.ErrBreakerOpen) {
				code = CodeBreakerOpen
			}
			_ = writeEvent(w, fl, "error", wireError{Code: code, Message: err.Error()})
			s.dropSub(st.token)
			return
		}
		if len(rows) == 0 {
			continue
		}
		ev := st.appendEvent(rows)
		if err := fault.Check("server/subscribe-deliver"); err != nil {
			// Sever before the event reaches the wire. The ring already
			// holds it, so a resume replays exactly this event — the
			// client loses nothing.
			// lint:allow panic — http.ErrAbortHandler severs the connection; net/http recovers it
			panic(http.ErrAbortHandler)
		}
		if err := writeEventData(w, fl, "deltas", ev.data); err != nil {
			return
		}
		if err := fault.Check("server/conn-sever"); err != nil {
			// Sever after the event reached the wire. A resume with the
			// client's true last seq replays nothing — no duplicate.
			// lint:allow panic — http.ErrAbortHandler severs the connection; net/http recovers it
			panic(http.ErrAbortHandler)
		}
	}
}

// sessionTenant resolves a session's tenant for gauge accounting; nil
// when the session is already gone.
func (s *Server) sessionTenant(sessID string) *tenant {
	sess, apiErr := s.sessions.get(sessID)
	if apiErr != nil {
		return nil
	}
	return sess.tenant
}
