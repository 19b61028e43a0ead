package server

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"tdb/internal/engine"
	"tdb/internal/fault"
	"tdb/internal/live"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
)

func init() {
	fault.Declare("server/execute", "query execution entry on the wire path")
	fault.Declare("server/wire-write", "response body serialization (torn mode truncates the body and aborts the connection)")
	fault.Declare("server/subscribe-deliver", "per-event delivery on a subscription stream (severs before the event reaches the wire; the replay ring keeps it)")
	fault.Declare("server/conn-sever", "subscription stream after an event reached the wire (severs the connection post-delivery)")
	fault.Declare("server/resume-gap", "subscription resume path (forces a typed resume_horizon error)")
	fault.Declare("server/dup-append", "append response after the rows applied and the dedup outcome was recorded (severs pre-response, so the client must retry into the dedup window)")
	fault.Declare("server/restart", "protocol gate (wipes sessions, subscriptions, and the dedup window — a simulated process restart losing all in-memory state)")
}

// Config assembles a Server. DB is the only required field.
type Config struct {
	// DB is the shared base catalog every session sees.
	DB *engine.DB
	// Registry receives server and engine metrics (a fresh registry is
	// created when nil).
	Registry *obs.Registry
	// Events receives the operational journal (a fresh log when nil).
	Events *obs.EventLog
	// Exec seeds per-query execution options (tracer, profile, slow-query
	// threshold). Registry, Events and Interrupt are filled per request.
	Exec engine.Options
	// Optimizer selects optimization passes; integrity constraints are
	// always taken from the catalog.
	Optimizer optimizer.Options
	// Tenants configures admission quotas; empty means one "default"
	// tenant with the package defaults.
	Tenants []TenantConfig
	// IdleTimeout expires sessions with no request for this long
	// (default 5 minutes).
	IdleTimeout time.Duration
	// SubscribePoll is the standing-query poll cadence on subscription
	// streams (default 25ms).
	SubscribePoll time.Duration
	// ReplayRing bounds each subscription's resume ring: how many
	// delivered delta events stay replayable behind the stream head
	// (default 256). A resume past the horizon is a typed error.
	ReplayRing int
	// DedupTTL is how long append idempotency-key outcomes are
	// remembered (default 5 minutes); DedupMax bounds the window's
	// entry count (default 4096).
	DedupTTL time.Duration
	DedupMax int
}

// Server is the multi-tenant query service over one base catalog.
//
// Concurrency: srv.mu is the catalog lock. Queries (which only read
// relation rows) hold it shared; appends, flushes and standing-query
// registration/poll/deregistration (the live manager is not
// concurrency-safe) hold it exclusively. Session-private state (the
// "into" results registered in a session's catalog) is additionally
// serialized per session, so two requests on one session cannot race a
// catalog registration.
type Server struct {
	cfg      Config
	db       *engine.DB
	reg      *obs.Registry
	events   *obs.EventLog
	adm      *admission
	sessions *sessionTable

	mu   sync.RWMutex // catalog lock: see type comment
	live *live.Manager

	subsMu sync.Mutex // subscription resume registry; never held with s.mu
	subs   map[string]*subState

	dedup *dedupWindow

	mux       *http.ServeMux
	draining  chan struct{}
	drainOnce sync.Once
	stopOnce  sync.Once

	srvMu   sync.Mutex
	httpSrv *http.Server
}

// New builds a Server. Call Shutdown to release its sweeper and any
// listener Start opened.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Events == nil {
		cfg.Events = obs.NewEventLog(1024)
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.SubscribePoll <= 0 {
		cfg.SubscribePoll = 25 * time.Millisecond
	}
	if cfg.ReplayRing <= 0 {
		cfg.ReplayRing = defaultReplayRing
	}
	if cfg.DedupTTL <= 0 {
		cfg.DedupTTL = defaultDedupTTL
	}
	if cfg.DedupMax <= 0 {
		cfg.DedupMax = defaultDedupMax
	}
	if cfg.Exec.Registry == nil {
		cfg.Exec.Registry = cfg.Registry
	}
	if cfg.Exec.Events == nil {
		cfg.Exec.Events = cfg.Events
	}
	s := &Server{
		cfg:      cfg,
		db:       cfg.DB,
		reg:      cfg.Registry,
		events:   cfg.Events,
		adm:      newAdmission(cfg.Tenants, cfg.Registry),
		sessions: newSessionTable(cfg.IdleTimeout, cfg.Registry, cfg.Events),
		subs:     map[string]*subState{},
		dedup:    newDedupWindow(cfg.DedupTTL, cfg.DedupMax, cfg.Registry),
		draining: make(chan struct{}),
	}
	s.sessions.onDrop = s.dropSessionSubs
	s.live = live.NewManager(cfg.DB, cfg.Registry, s.execOptions(context.Background(), nil))

	s.mux = obs.NewMux(cfg.Registry)
	v1 := func(name string, h http.HandlerFunc) {
		s.mux.HandleFunc("/"+Protocol+"/"+name, s.gate(h))
	}
	v1("session", s.handleSessionOpen)
	v1("session/close", s.handleSessionClose)
	v1("query", s.handleQuery)
	v1("prepare", s.handlePrepare)
	v1("execute", s.handleExecute)
	v1("stmt/close", s.handleCloseStmt)
	v1("append", s.handleAppend)
	v1("subscribe", s.handleSubscribe)
	// Ping bypasses the drain gate: readiness must stay observable while
	// the server refuses everything else.
	s.mux.HandleFunc("/"+Protocol+"/ping", s.gatePing(s.handlePing))
	return s
}

// gate rejects protocol requests once draining and normalizes the method.
// It also hosts the restart failpoint: a fired server/restart wipes all
// in-memory resume state (sessions, subscriptions, dedup window) before
// the request proceeds, simulating a process that crashed and came back.
func (s *Server) gate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-s.draining:
			writeError(w, errf(CodeDraining, "server is draining"))
			return
		default:
		}
		if r.Method != http.MethodPost {
			writeError(w, errf(CodeBadRequest, "method %s not allowed (protocol endpoints are POST)", r.Method))
			return
		}
		if err := fault.Check("server/restart"); err != nil {
			s.simulateRestart()
		}
		h(w, r)
	}
}

// gatePing is the drain-exempt gate: method normalization only.
func (s *Server) gatePing(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, errf(CodeBadRequest, "method %s not allowed (protocol endpoints are POST)", r.Method))
			return
		}
		h(w, r)
	}
}

// simulateRestart drops every session, subscription, and remembered
// append outcome — the state a real process restart loses. The base
// catalog (durable state) survives, exactly as it would on disk.
func (s *Server) simulateRestart() {
	s.events.Emit(EventRestart, "", nil)
	s.subsMu.Lock()
	var tokens []string
	for token := range s.subs {
		tokens = append(tokens, token)
	}
	s.subsMu.Unlock()
	for _, token := range tokens {
		s.dropSub(token)
	}
	s.sessions.closeAll()
	s.dedup.reset()
}

// Handler returns the full HTTP surface: the /v1 protocol plus the
// observability endpoints (/metrics, /debug/vars, /debug/pprof).
func (s *Server) Handler() http.Handler { return s.mux }

// DB returns the shared base catalog.
func (s *Server) DB() *engine.DB { return s.db }

// Registry returns the metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Events returns the operational journal.
func (s *Server) Events() *obs.EventLog { return s.events }

// WithLive runs fn with the live-ingestion manager under the exclusive
// catalog lock — the only safe way for an embedding process (the shell)
// to share the manager with concurrent network clients.
func (s *Server) WithLive(fn func(*live.Manager) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn(s.live)
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Shutdown.
// It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.Handler()}
	s.srvMu.Lock()
	s.httpSrv = srv
	s.srvMu.Unlock()
	// lint:allow worker-context — Serve exits when Shutdown closes the listener; the drain path is the cancellation edge
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains the server: new protocol requests are rejected with
// CodeDraining, queued admissions abort, open subscription streams send
// a final "drain" event and close, in-flight handlers finish (bounded by
// ctx), and the session sweeper and live manager stop. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		close(s.draining)
		s.events.Emit(EventDrain, "", nil)
	})
	var err error
	s.srvMu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.srvMu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.stopOnce.Do(func() {
		s.sessions.stop()
		s.mu.Lock()
		s.live.Close()
		s.mu.Unlock()
	})
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// execOptions assembles per-request engine options: the configured base,
// this server's registry/journal, the tenant's governor arming, and the
// request context as the interrupt hook.
func (s *Server) execOptions(ctx context.Context, t *tenant) engine.Options {
	opt := s.cfg.Exec
	opt.Registry = s.reg
	opt.Events = s.events
	if t != nil && t.cfg.Govern {
		opt.GovernWorkspace = true
	}
	if ctx != nil && ctx.Done() != nil {
		opt.Interrupt = ctx.Err
	}
	return opt
}

// optOptions assembles optimizer options with the catalog's integrity
// constraints.
func (s *Server) optOptions() optimizer.Options {
	opt := s.cfg.Optimizer
	opt.ICs = s.db.ChronOrders()
	return opt
}

// sessionDB builds a session-private catalog: the base relations by
// reference (appends released into the base remain visible) plus the
// base integrity constraints. "into" results register here and are
// invisible to other sessions. Caller holds the shared catalog lock.
func (s *Server) sessionDB() (*engine.DB, error) {
	db := engine.NewDB()
	for _, name := range s.db.Names() {
		rel, err := s.db.Relation(name)
		if err != nil {
			return nil, err
		}
		if err := db.Register(rel); err != nil {
			return nil, err
		}
	}
	for _, ic := range s.db.ChronOrders() {
		if err := db.DeclareChronOrder(ic); err != nil {
			return nil, err
		}
	}
	return db, nil
}
