package server

import (
	"context"
	"sync"
	"time"

	"tdb/internal/obs"
)

// Admission defaults; a TenantConfig field left zero takes these.
const (
	DefaultMaxConcurrent = 16
	DefaultMaxQueue      = 64
	DefaultQueueTimeout  = 5 * time.Second
)

// TenantConfig is one tenant's admission quota. Queries admit through a
// counting semaphore of MaxConcurrent slots; at capacity up to MaxQueue
// requests wait (bounded by QueueTimeout and the request context), and
// beyond that the tenant is rejected immediately with a typed error —
// queue-or-reject, never unbounded buildup.
type TenantConfig struct {
	Name          string
	MaxConcurrent int
	MaxQueue      int
	QueueTimeout  time.Duration
	// Govern arms the workspace governor for this tenant's work: batch
	// queries run under GovernWorkspace (catalog-derived ceilings with
	// sort-merge fallback) and standing subscriptions are admitted with
	// the workspace circuit breaker armed.
	Govern bool
}

// tenant is the runtime admission state plus per-tenant metrics.
type tenant struct {
	cfg TenantConfig
	sem chan struct{}

	mu      sync.Mutex
	waiting int

	cQueries  *obs.Counter
	cErrors   *obs.Counter
	cRejected *obs.Counter
	cQueued   *obs.Counter
	gActive   *obs.Gauge
	gSubs     *obs.Gauge
}

type admission struct {
	tenants map[string]*tenant
}

func newAdmission(cfgs []TenantConfig, reg *obs.Registry) *admission {
	if len(cfgs) == 0 {
		cfgs = []TenantConfig{{Name: "default"}}
	}
	a := &admission{tenants: map[string]*tenant{}}
	for _, cfg := range cfgs {
		if cfg.MaxConcurrent <= 0 {
			cfg.MaxConcurrent = DefaultMaxConcurrent
		}
		if cfg.MaxQueue < 0 {
			cfg.MaxQueue = 0
		} else if cfg.MaxQueue == 0 {
			cfg.MaxQueue = DefaultMaxQueue
		}
		if cfg.QueueTimeout <= 0 {
			cfg.QueueTimeout = DefaultQueueTimeout
		}
		t := &tenant{cfg: cfg, sem: make(chan struct{}, cfg.MaxConcurrent)}
		m := obs.NameFragment(cfg.Name)
		t.cQueries = reg.Counter("tdb_server_tenant_"+m+"_queries_total", "queries admitted for tenant "+cfg.Name)
		t.cErrors = reg.Counter("tdb_server_tenant_"+m+"_errors_total", "queries failed for tenant "+cfg.Name)
		t.cRejected = reg.Counter("tdb_server_tenant_"+m+"_rejected_total", "requests rejected by quota for tenant "+cfg.Name)
		t.cQueued = reg.Counter("tdb_server_tenant_"+m+"_queued_total", "requests that waited in the admission queue for tenant "+cfg.Name)
		t.gActive = reg.Gauge("tdb_server_tenant_"+m+"_active", "queries running for tenant "+cfg.Name)
		t.gSubs = reg.Gauge("tdb_server_tenant_"+m+"_subscriptions", "standing subscriptions open for tenant "+cfg.Name)
		a.tenants[cfg.Name] = t
	}
	return a
}

// tenant resolves a wire tenant name ("" means "default").
func (a *admission) tenant(name string) (*tenant, *Error) {
	if name == "" {
		name = "default"
	}
	t, ok := a.tenants[name]
	if !ok {
		return nil, errf(CodeUnknownTenant, "tenant %q is not configured on this server", name)
	}
	return t, nil
}

// acquire admits one unit of work, waiting in the bounded queue when the
// tenant is at capacity. draining aborts waiters on shutdown.
func (t *tenant) acquire(ctx context.Context, draining <-chan struct{}) *Error {
	select {
	case t.sem <- struct{}{}:
		t.gActive.Add(1)
		return nil
	default:
	}
	t.mu.Lock()
	if t.waiting >= t.cfg.MaxQueue {
		t.mu.Unlock()
		t.cRejected.Inc()
		return errf(CodeQuotaConcurrency, "tenant %q at %d concurrent queries with %d queued; rejecting",
			t.cfg.Name, t.cfg.MaxConcurrent, t.cfg.MaxQueue)
	}
	t.waiting++
	t.mu.Unlock()
	t.cQueued.Inc()
	defer func() {
		t.mu.Lock()
		t.waiting--
		t.mu.Unlock()
	}()

	timer := time.NewTimer(t.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case t.sem <- struct{}{}:
		t.gActive.Add(1)
		return nil
	case <-ctx.Done():
		return errf(CodeCanceled, "tenant %q: canceled while queued for admission: %v", t.cfg.Name, ctx.Err())
	case <-timer.C:
		t.cRejected.Inc()
		return errf(CodeQueueTimeout, "tenant %q: queued past %s waiting for an admission slot",
			t.cfg.Name, t.cfg.QueueTimeout)
	case <-draining:
		return errf(CodeDraining, "server is draining")
	}
}

func (t *tenant) release() {
	<-t.sem
	t.gActive.Add(-1)
}
