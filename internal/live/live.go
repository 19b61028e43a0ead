// Package live turns the batch reproduction into a continuously ingesting
// system: tuples arrive in ValidFrom order at rate λ, are watermarked and
// released into storage, and standing temporal queries — registered once —
// are evaluated *incrementally* by feeding the unchanged internal/core
// single-pass operators from the live streams, emitting result deltas as
// input advances.
//
// Admission reuses the paper's state characterizations (Tables 1–3, via
// optimizer.EstimateStanding): a query is accepted for incremental
// evaluation only when its (sort-order, operator) pair has a bounded
// workspace under the catalog's λ/duration statistics; otherwise it is
// degraded to periodic batch re-execution, or declined with an explain
// note when degradation is disallowed.
//
// Each incremental query is one core.Runner: its operator is a coroutine
// on the caller's goroutine, fed released rows by ingestion and resumed
// only when the query is polled or finished (or run to its end when it is
// stopped). Ingestion never runs it, so deltas never pile up between
// polls: backpressure holds by construction.
//
// The delta contract: because the core operators are deterministic
// functions of their input sequences and suspension only time-dilates the
// same run, an incremental query's accumulated deltas are at every
// watermark a byte-identical prefix of the one batch execution of the same
// operator over the final input sequences — and equal to it once the
// streams close.
package live

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tdb/internal/algebra"
	"tdb/internal/catalog"
	"tdb/internal/engine"
	"tdb/internal/fault"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
)

func init() {
	fault.Declare("live/append", "table ingestion entry (Table.Append)")
	fault.Declare("live/deliver", "released-row delivery to a standing query")
}

// Manager owns the live tables and standing queries of one database.
// Neither it nor its tables and queries are safe for concurrent use, and
// nothing runs beneath them concurrently: every operator runs on the
// goroutine that polls it. Callers serialize all access — the protocol
// server holds its database lock around every Poll and append, and the
// shell is single-threaded.
type Manager struct {
	db      *engine.DB
	reg     *obs.Registry
	opt     engine.Options
	tables  map[string]*Table
	queries []*StandingQuery // sorted by name; changed only by Register, Deregister and Close
}

// NewManager returns a manager over the database. reg may be nil;
// otherwise per-table and per-query gauges are published. opt configures
// batch re-executions of degraded queries.
func NewManager(db *engine.DB, reg *obs.Registry, opt engine.Options) *Manager {
	return &Manager{
		db:     db,
		reg:    reg,
		opt:    opt,
		tables: map[string]*Table{},
	}
}

// DB returns the underlying database.
func (m *Manager) DB() *engine.DB { return m.db }

// Live makes a registered relation ingestible with the given reorder
// slack, returning its table (idempotent; the slack of an existing table
// is unchanged).
func (m *Manager) Live(name string, slack interval.Time) (*Table, error) {
	if t, ok := m.tables[name]; ok {
		return t, nil
	}
	rel, err := m.db.Relation(name)
	if err != nil {
		return nil, err
	}
	if !rel.Schema.Temporal() {
		return nil, fmt.Errorf("live: relation %s is not temporal", name)
	}
	t := &Table{m: m, name: name, schema: rel.Schema, slack: slack,
		watermark: interval.MinTime, maxTS: interval.MinTime}
	m.tables[name] = t
	return t, nil
}

// Table returns the live table of a relation, or nil.
func (m *Manager) Table(name string) *Table { return m.tables[name] }

// Tables returns the live tables, sorted by relation name.
func (m *Manager) Tables() []*Table {
	out := make([]*Table, 0, len(m.tables))
	for _, n := range m.tableNames() {
		out = append(out, m.tables[n])
	}
	return out
}

// rowsByValidFrom returns a copy of the relation's rows stably sorted on
// ValidFrom — the order standing operators are fed in.
func rowsByValidFrom(rel *relation.Relation) []relation.Row {
	sorted := relation.New(rel.Name, rel.Schema)
	sorted.Rows = append([]relation.Row(nil), rel.Rows...)
	sorted.Sort(relation.Order{relation.TSAsc})
	return sorted.Rows
}

// batchReference runs a standing plan's operator once over the current
// (released) relation contents — the reference sequence an incremental
// query's accumulated deltas must be a byte-identical prefix of.
func (m *Manager) batchReference(plan *engine.StandingPlan) ([]relation.Row, error) {
	run := plan.Start(nil)
	feedAll := func(name string, feed func([]relation.Row)) ([]relation.Row, error) {
		rel, err := m.db.Relation(name)
		if err != nil {
			return nil, err
		}
		rows := rowsByValidFrom(rel)
		feed(rows)
		return rows, nil
	}
	left, err := feedAll(plan.LeftRel, run.FeedLeft)
	if err != nil {
		run.Stop()
		return nil, err
	}
	if plan.RightRel == plan.LeftRel {
		run.FeedRight(left)
	} else if _, err := feedAll(plan.RightRel, run.FeedRight); err != nil {
		run.Stop()
		return nil, err
	}
	return run.Close()
}

// Append ingests one row into a relation, making it live with zero slack
// on first use.
func (m *Manager) Append(name string, row relation.Row) error {
	t, ok := m.tables[name]
	if !ok {
		var err error
		if t, err = m.Live(name, 0); err != nil {
			return err
		}
	}
	return t.Append(row)
}

// Flush force-releases every table's reorder buffer and republishes
// catalog statistics — the end-of-batch barrier. Every table is flushed
// even if one fails; the first error is returned.
func (m *Manager) Flush() error {
	var first error
	for _, name := range m.tableNames() {
		if err := m.tables[name].Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m *Manager) tableNames() []string {
	out := make([]string, 0, len(m.tables))
	for n := range m.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Register admits a standing query. The optimized tree is compiled to a
// standing plan and characterized under the paper's Tables 1–3; bounded
// characterizations run incrementally, unbounded ones degrade to periodic
// batch re-execution (opts.AllowDegrade) or are declined with the
// characterization as explain note.
func (m *Manager) Register(name string, tree algebra.Expr, opts RegisterOptions) (*StandingQuery, error) {
	i, ok := m.find(name)
	if ok {
		return nil, fmt.Errorf("live: standing query %q already registered", name)
	}
	q, err := m.admit(name, tree, opts)
	if err != nil {
		return nil, err
	}
	m.queries = slices.Insert(m.queries, i, q)
	return q, nil
}

func (m *Manager) admit(name string, tree algebra.Expr, opts RegisterOptions) (*StandingQuery, error) {
	plan, err := engine.BuildStanding(m.db, tree)
	if err != nil {
		if ue, ok := err.(*engine.ErrUnsupportedStanding); ok {
			return m.degradeOrDecline(name, tree, opts, ue.Reason)
		}
		return nil, err
	}
	sx, sy := m.statsOf(plan.LeftRel), m.statsOf(plan.RightRel)
	est := optimizer.EstimateStanding(plan.Kind, plan.Semijoin, sx, sy)
	if !est.Bounded {
		return m.degradeOrDecline(name, tree, opts, est.String())
	}
	q := newIncremental(m, name, tree, plan, est, opts)
	return q, nil
}

func (m *Manager) degradeOrDecline(name string, tree algebra.Expr, opts RegisterOptions, reason string) (*StandingQuery, error) {
	if !opts.AllowDegrade {
		return nil, &DeclinedError{Query: name, Reason: reason}
	}
	return newBatch(m, name, tree, reason), nil
}

// statsOf returns the catalog statistics of a relation, or empty stats for
// a name the catalog does not track.
func (m *Manager) statsOf(name string) *catalog.Stats {
	if s := m.db.Stats(name); s != nil {
		return s
	}
	return &catalog.Stats{}
}

// find returns the position of the named query in m.queries, or where
// it would be inserted, and whether it is registered.
func (m *Manager) find(name string) (int, bool) {
	return slices.BinarySearchFunc(m.queries, name, func(q *StandingQuery, name string) int {
		return strings.Compare(q.name, name)
	})
}

// Query returns a registered standing query, or nil.
func (m *Manager) Query(name string) *StandingQuery {
	if i, ok := m.find(name); ok {
		return m.queries[i]
	}
	return nil
}

// Queries returns the registered standing queries, sorted by name.
func (m *Manager) Queries() []*StandingQuery { return slices.Clone(m.queries) }

// Deregister stops and removes a standing query.
func (m *Manager) Deregister(name string) error {
	i, ok := m.find(name)
	if !ok {
		return fmt.Errorf("live: unknown standing query %q", name)
	}
	m.queries[i].stop()
	m.queries = slices.Delete(m.queries, i, i+1)
	return nil
}

// Close stops every standing query (tables need no teardown).
func (m *Manager) Close() {
	for _, q := range m.queries {
		q.stop()
	}
	m.queries = nil
}

// feedReleased distributes rows released by a table to every incremental
// query reading that relation (on whichever sides scan it). Queries are
// visited in name order so injected delivery faults land deterministically;
// a failing delivery does not starve the remaining queries, and the first
// error is returned (wrapped, so errors.Is sees the cause through the
// table boundary).
func (m *Manager) feedReleased(rel string, rows []relation.Row) error {
	var first error
	for _, q := range m.queries {
		if err := q.observeRelease(rel, rows); err != nil && first == nil {
			first = fmt.Errorf("live: deliver to %s: %w", q.name, err)
		}
	}
	return first
}

func (m *Manager) gauge(name, help string) *obs.Gauge {
	if m.reg == nil {
		return nil
	}
	return m.reg.Gauge(name, help)
}

func (m *Manager) counter(name, help string) *obs.Counter {
	if m.reg == nil {
		return nil
	}
	return m.reg.Counter(name, help)
}
