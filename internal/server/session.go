package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tdb/internal/engine"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
)

// Event kinds the server emits into the operational journal.
const (
	EventSessionOpen   = "session-open"
	EventSessionClose  = "session-close"
	EventSessionExpire = "session-expire"
	EventQuotaReject   = "quota-reject"
	EventDrain         = "server-drain"
	EventRestart       = "server-restart"
)

// maxCachedPlans bounds a prepared statement's per-binding plan cache.
// The semantic pass folds constants — a contradiction for one binding can
// be a live plan for another — so plans are keyed by the bound parameter
// vector rather than shared across bindings.
const maxCachedPlans = 32

// prepared is one server-side prepared statement: the cached parse and
// translation (the parameterized tree), plus optimized plans keyed by
// parameter binding.
type prepared struct {
	id   string
	src  string
	q    quel.Query
	cols []Column

	mu    sync.Mutex
	plans map[string]*optimizer.Result
}

// cachedPlan returns the optimized plan for a binding key, or nil.
func (p *prepared) cachedPlan(key string) *optimizer.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.plans[key]
}

// storePlan caches an optimized plan under a binding key, evicting an
// arbitrary entry at capacity.
func (p *prepared) storePlan(key string, res *optimizer.Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.plans == nil {
		p.plans = map[string]*optimizer.Result{}
	}
	if len(p.plans) >= maxCachedPlans {
		for k := range p.plans {
			delete(p.plans, k)
			break
		}
	}
	p.plans[key] = res
}

// session is one client connection's server-side state: a fork of the
// server's DB, which holds its "into" results and reads every other name
// from the server's DB at each statement, and its prepared statements.
type session struct {
	id     string
	tenant *tenant
	dead   atomic.Bool // set by invalidate; checked under mu before touching db

	mu      sync.Mutex
	db      *engine.DB
	stmts   map[string]*prepared
	stmtSeq int
	subSeq  int
}

// invalidate marks an expired or closed session dead and releases its
// fork, whose "into" results leave the shared relation index, and its
// statements. A request already in flight observes the flag — under
// sess.mu, so never mid-operation — and fails with a typed
// session_expired error instead of dereferencing the nil catalog.
func (s *session) invalidate() {
	s.dead.Store(true)
	s.mu.Lock()
	_ = s.db.Close() // a fork holds no heap file, so nothing to fail
	s.db = nil
	s.stmts = nil
	s.mu.Unlock()
}

// expired returns the typed error for a session that died mid-request.
// Caller holds s.mu (the flag only stabilizes under the session lock).
func (s *session) expired() *Error {
	if !s.dead.Load() {
		return nil
	}
	return errf(CodeSessionExpired, "session %s expired while the request was in flight", s.id)
}

func (s *session) addStmt(p *prepared) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stmtSeq++
	p.id = fmt.Sprintf("st%d", s.stmtSeq)
	s.stmts[p.id] = p
	return p.id
}

func (s *session) stmt(id string) (*prepared, *Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.stmts[id]
	if !ok {
		return nil, errf(CodeUnknownStatement, "statement %q is not prepared on session %s", id, s.id)
	}
	return p, nil
}

func (s *session) closeStmt(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.stmts, id)
}

func (s *session) nextSub() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subSeq++
	return s.subSeq
}

// sessionTable owns every open session and the idle-expiry sweeper.
type sessionTable struct {
	mu       sync.Mutex
	m        map[string]*session
	lastUsed map[string]time.Time
	seq      int
	idle     time.Duration

	// onDrop runs after a session leaves the table (close, expiry,
	// stop), outside st.mu — the server uses it to tear down the
	// session's subscriptions. Set once before the first session opens.
	onDrop func(sessID string)

	gActive *obs.Gauge
	cOpened *obs.Counter
	events  *obs.EventLog

	quit chan struct{}
	done chan struct{}
}

func newSessionTable(idle time.Duration, reg *obs.Registry, events *obs.EventLog) *sessionTable {
	st := &sessionTable{
		m:        map[string]*session{},
		lastUsed: map[string]time.Time{},
		idle:     idle,
		gActive:  reg.Gauge("tdb_server_sessions_active", "open client sessions"),
		cOpened:  reg.Counter("tdb_server_sessions_total", "sessions ever opened"),
		events:   events,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	tick := idle / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	go func() {
		defer close(st.done)
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		for {
			select {
			case <-st.quit:
				return
			case <-ticker.C:
				st.expire(time.Now())
			}
		}
	}()
	return st
}

// open registers a new session for a tenant.
func (st *sessionTable) open(t *tenant, db *engine.DB) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	s := &session{
		id:     fmt.Sprintf("s%d", st.seq),
		tenant: t,
		db:     db,
		stmts:  map[string]*prepared{},
	}
	st.m[s.id] = s
	st.lastUsed[s.id] = time.Now()
	st.gActive.Add(1)
	st.cOpened.Inc()
	st.events.Emit(EventSessionOpen, s.id, map[string]string{"tenant": t.cfg.Name})
	return s
}

// get resolves a session id and refreshes its idle clock.
func (st *sessionTable) get(id string) (*session, *Error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.m[id]
	if !ok {
		return nil, errf(CodeUnknownSession, "session %q is not open (closed, expired, or never opened)", id)
	}
	st.lastUsed[id] = time.Now()
	return s, nil
}

// touch refreshes a session's idle clock without resolving it — the
// keepalive edge for attached subscription streams, which hold no
// per-request admission but must not idle-expire under their session.
func (st *sessionTable) touch(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.m[id]; ok {
		st.lastUsed[id] = time.Now()
	}
}

// close removes a session; unknown ids are a no-op so close is
// idempotent under retries.
func (st *sessionTable) close(id string) {
	st.mu.Lock()
	s, ok := st.m[id]
	if ok {
		delete(st.m, id)
		delete(st.lastUsed, id)
		st.gActive.Add(-1)
		st.events.Emit(EventSessionClose, s.id, map[string]string{"tenant": s.tenant.cfg.Name})
	}
	st.mu.Unlock()
	if ok {
		st.drop(s)
	}
}

// drop invalidates a removed session and runs the drop hook — always
// outside st.mu, so the hook may take the catalog lock freely.
func (st *sessionTable) drop(s *session) {
	s.invalidate()
	if st.onDrop != nil {
		st.onDrop(s.id)
	}
}

// expire sweeps sessions idle past the timeout.
func (st *sessionTable) expire(now time.Time) {
	st.mu.Lock()
	var dropped []*session
	for id, last := range st.lastUsed {
		if now.Sub(last) <= st.idle {
			continue
		}
		s := st.m[id]
		delete(st.m, id)
		delete(st.lastUsed, id)
		st.gActive.Add(-1)
		st.events.Emit(EventSessionExpire, s.id, map[string]string{
			"tenant": s.tenant.cfg.Name,
			"idle":   now.Sub(last).String(),
		})
		dropped = append(dropped, s)
	}
	st.mu.Unlock()
	for _, s := range dropped {
		st.drop(s)
	}
}

// closeAll drops every session without stopping the sweeper — the
// simulated-restart edge (a real restart loses the table but the new
// process still sweeps).
func (st *sessionTable) closeAll() {
	st.mu.Lock()
	var dropped []*session
	for _, s := range st.m {
		dropped = append(dropped, s)
	}
	st.gActive.Add(-int64(len(st.m)))
	st.m = map[string]*session{}
	st.lastUsed = map[string]time.Time{}
	st.mu.Unlock()
	for _, s := range dropped {
		st.drop(s)
	}
}

// count returns the number of open sessions.
func (st *sessionTable) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// stop terminates the sweeper and drops every session.
func (st *sessionTable) stop() {
	close(st.quit)
	<-st.done
	st.closeAll()
}
