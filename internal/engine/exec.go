package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"tdb/internal/algebra"
	"tdb/internal/core"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/storage"
	"tdb/internal/stream"
	"tdb/internal/value"
)

// Options configures execution.
type Options struct {
	// ForceNestedLoop disables the stream algorithms: every join and
	// semijoin runs as a conventional nested loop (with hash joins still
	// used for pure equi-joins), the Section 3 baseline.
	ForceNestedLoop bool
	// ForceNoHash additionally disables hash equi-joins, leaving the
	// pure conventional nested-loop executor.
	ForceNoHash bool
	// SortMemRows, when positive, bounds the in-memory sort workspace for
	// establishing stream orderings, counted in sort records — one (key,
	// row index) pair per input row: larger inputs are sorted externally
	// through run files of such records in SpillDir, paying the extra
	// read/write passes of Section 4.1's third tradeoff (accounted in
	// the node's obs.Node). The rows themselves are never spilled. It
	// bounds a sort that runs, not an order the relation index keeps: a stored
	// relation's key scan whose order the index holds sorts nothing
	// whatever its size, and the first one keeps the order it sorted,
	// within the index's own budget. An in-memory base relation within the
	// workspace is served the same way; a larger one bypasses the index
	// and sorts every time.
	SortMemRows int
	// SpillDir receives external-sort run files; required when
	// SortMemRows is set. Concurrent runs may share it: every run file gets
	// a name of its own and is deleted before the sort returns.
	SpillDir string
	// RowExec forces the row-at-a-time reference implementation of the
	// stream operators. By default eligible stream joins and semijoins
	// sweep columnar batches (flat endpoint columns, pooled active-list
	// arenas, deferred row materialization — see DESIGN.md "Columnar batch
	// execution"); output is byte-identical either way, and the
	// equivalence property tests hold the two paths to it. The
	// before-join, the before-semijoin and the self semijoins run
	// row-at-a-time regardless.
	RowExec bool
	// Deprecated: Parallelism has no effect. Every plan node runs on the
	// calling goroutine whatever its value.
	Parallelism int
	// Deprecated: ForceParallel has no effect.
	ForceParallel bool
	// VerifyOrder makes every stream algorithm check its input ordering.
	VerifyOrder bool
	// GovernWorkspace arms the workspace governor on stream joins
	// whose inputs are base-relation scans: the operator runs under the
	// catalog-derived Tables 1–3 ceiling (core Options.Limit) and, when its
	// measured workspace breaches it (statistics drift), the node is
	// re-evaluated by the baseline sort-merge band scan — bounded workspace
	// by construction — with an explain note recording the degradation and
	// the tdb_governor_fallbacks_total counter incremented. Derived inputs
	// and unbounded operator kinds run ungoverned, with a note.
	GovernWorkspace bool
	// Tracer, when non-nil, receives one span per plan node: timestamps,
	// the algorithm chosen, sort/spill decisions, the node's final Probe
	// snapshot, and (for stream operators) the sampled state(t) curve.
	Tracer *obs.Tracer
	// Registry, when non-nil, receives execution metrics: query and row
	// counters, per-operator workspace and duration histograms.
	Registry *obs.Registry
	// Profile turns on resource accounting for this run: plan nodes
	// execute under pprof labels (tdb.query, tdb.node, tdb.op) so CPU and
	// heap profiles slice by operator, and on a traced run every plan
	// node's record (and the query root's) also carries the heap
	// allocations of its own execution (obs.Node Allocs, AllocBytes,
	// Profiled). It is the only switch: without a Tracer no allocation
	// counter is read. Off, the cost is one branch per node.
	Profile bool
	// Events, when non-nil, receives the structured operational journal:
	// slow-query entries (see SlowQuery), governor fallbacks, and — via
	// internal/live sharing these Options — breaker trips.
	Events *obs.EventLog
	// SlowQuery is the wall-clock latency above which a finished run
	// emits a slow-query event to Events. Zero disables the slow-query
	// log.
	SlowQuery time.Duration
	// Interrupt, when non-nil, is polled at every plan-node boundary,
	// periodically inside the row loops of the conventional operators
	// (selection, Cartesian product, the hash and nested-loop joins and
	// the nested-loop semijoin), once per page of a stored scan and once
	// per page's worth of rows decoded from one, once per run formed and
	// per run page merged by a spilled sort, and once per 8 192 rows the
	// sink builds (the project, or the result of a plan without one).
	// A non-nil return aborts the run with that error wrapped in
	// ErrInterrupted — the hook the query server uses to propagate client
	// context cancellation into a running query. The stream operators'
	// sweeps check only at node granularity. Every poll comes from the
	// goroutine that called Run.
	Interrupt func() error
}

// ErrInterrupted marks a run aborted by Options.Interrupt; the cause
// (typically context.Canceled or context.DeadlineExceeded) is wrapped and
// visible to errors.Is.
var ErrInterrupted = errors.New("engine: query interrupted")

// interruptEvery bounds how many rows the conventional operators process
// between Interrupt polls.
const interruptEvery = 4096

// checkInterrupt polls the interrupt hook, wrapping its error.
func (ex *executor) checkInterrupt() error {
	if ex.opt.Interrupt == nil {
		return nil
	}
	if err := ex.opt.Interrupt(); err != nil {
		return fmt.Errorf("%w: %w", ErrInterrupted, err)
	}
	return nil
}

// Stats aggregates the cost records of one execution: one obs.Node per
// plan node, in finish order, the same records the node spans carry.
type Stats struct {
	Nodes []obs.Node
}

func (s *Stats) add(n obs.Node) { s.Nodes = append(s.Nodes, n) }

// Total merges every operator probe into plan-level totals: additive
// counters sum, workspace marks combine by maximum.
func (s *Stats) Total() metrics.Probe {
	var t metrics.Probe
	for i := range s.Nodes {
		t.Merge(&s.Nodes[i].Probe)
	}
	return t
}

// TotalComparisons sums predicate evaluations across operators.
func (s *Stats) TotalComparisons() int64 {
	var t int64
	for _, n := range s.Nodes {
		t += n.Probe.Comparisons
	}
	return t
}

// TotalTuplesRead sums operator input consumption.
func (s *Stats) TotalTuplesRead() int64 {
	var t int64
	for _, n := range s.Nodes {
		t += n.Probe.TuplesRead()
	}
	return t
}

// MaxWorkspace returns the largest operator workspace high-water mark.
func (s *Stats) MaxWorkspace() int64 {
	var m int64
	for _, n := range s.Nodes {
		if w := n.Probe.Workspace(); w > m {
			m = w
		}
	}
	return m
}

// TotalSortedRows sums the sorting work spent establishing stream orders.
func (s *Stats) TotalSortedRows() int64 {
	var t int64
	for _, n := range s.Nodes {
		t += n.SortedRows
	}
	return t
}

// TotalPagesRead sums storage page fetches across stored scans.
func (s *Stats) TotalPagesRead() int64 {
	var t int64
	for _, n := range s.Nodes {
		t += n.PagesRead
	}
	return t
}

// String renders a per-node cost table.
func (s *Stats) String() string {
	out := ""
	for _, n := range s.Nodes {
		out += fmt.Sprintf("%-34s %-28s out=%-8d sort=%-8d %s\n",
			n.Label, n.Algorithm, n.OutRows, n.SortedRows, n.Probe.String())
	}
	return out
}

// result is an intermediate: a view of row references (view.go) or, from
// a key scan (evalKeyScan), only their lifespans and the pages to decode
// the rows from.
type result struct {
	schema *relation.Schema
	v      view
	keys   *storage.Keys // set by a key scan, which leaves v empty
	// ord is set by a key scan the relation index served: the input
	// already in its node's order. keys is then nil, no page having been
	// read, or, for an input whose rows its node emits, holds the pages
	// and no endpoint column.
	ord *ordered
	// base is the relation whose orders the relation index keeps for this
	// input. A scan of an in-memory relation that is not live sets it,
	// whose v is the identity view over base.Rows — the one input whose
	// equality selections the index also serves —, and so does a stored
	// key scan, whose keys are in file order.
	base *relation.Relation
	// reads is the base relation whose rows v's one part picks, set by the
	// same scan and kept by a selection over it: a self equi-join of two
	// such inputs chains its rows by the relation's column codes.
	reads *relation.Relation
}

// rows builds the result's rows, for the consumers that revisit them.
func (ex *executor) rows(in *result) ([]relation.Row, error) { return ex.build(in.v, nil) }

// spanned pairs a position of an operator's input view with its
// precomputed lifespan, the element the row-at-a-time stream algorithms
// sweep: they read only the lifespan, and the node maps what they emit to
// positions.
type spanned struct {
	pos  int32
	span interval.Interval
}

func spannedSpan(s spanned) interval.Interval { return s.span }

// ordered is a stream operator's input in its required order: the
// (possibly derived) lifespans as the flat endpoint columns the batch
// kernels sweep, and the sort's permutation back to the input's positions
// — no row moves: a join maps its matches to input positions and a
// semijoin its emitted positions, and the node's view picks the rows.
// Behind a semijoin's key scan the rows are still on their page images
// and are decoded only then.
type ordered struct {
	perm []int32 // position i of the order holds input position perm[i]; nil when the input has the order
	cols core.Cols
}

// pos returns the input position of the i-th row of the order.
func (in ordered) pos(i int32) int32 {
	if in.perm != nil {
		return in.perm[i]
	}
	return i
}

// spans lists the ordered lifespans with their input positions for the
// row-at-a-time operators — the reference path, the before-join, the self
// semijoins and the governed fallback.
func (in ordered) spans() []spanned {
	out := make([]spanned, in.cols.Len())
	for i := range out {
		out[i] = spanned{pos: in.pos(int32(i)), span: in.cols.Span(i)}
	}
	return out
}

// establishOrder produces the input in the given order of its (possibly
// derived) lifespans, shred-first: one pass over the view yields the
// endpoint columns, and the sort permutes (key, index) pairs and writes
// the columns back in order. With an unbounded sort workspace that is
// relation.SortColumns; under Options.SortMemRows larger inputs take
// storage.ExternalSortKeys, which spills the pairs — not the rows — to run
// files and whose run and page counts are charged to cost: the Section 4.1
// passes-for-order tradeoff inside a query plan. Either way the rows stay
// where they are, and both sorts are stable, so the result does not depend
// on which one ran. A key scan's input skips the shredding: its columns
// feed the same sorts directly. withPerm asks for the permutation; only a
// columnar semijoin's right input, whose rows nothing reads, goes without
// it, and the external sort returns one regardless.
//
// A base input's order comes from the DB's relation index (orderindex.go)
// when an earlier query left it there, sorting nothing; otherwise it is
// established as above, always with its permutation, and left there. That
// holds for a stored key scan whatever Options.SortMemRows is, which bounds
// the sort that builds the order, not the order kept; an in-memory base
// relation larger than SortMemRows sorts every time.
func (ex *executor) establishOrder(in *result, span rowSpan,
	o relation.Order, cost *obs.Node, withPerm bool) (ordered, error) {

	if in.ord != nil {
		noteServed(cost, o)
		return *in.ord, nil
	}
	n := in.v.n
	if in.keys != nil {
		n = len(in.keys.TS)
	}
	mem := ex.opt.SortMemRows
	if in.base == nil || n == 0 || (in.keys == nil && mem > 0 && n > mem) {
		ts, te := in.columns(span)
		return ex.orderColumns(ts, te, o, cost, withPerm)
	}
	key := orderKey(in.base, span, o)
	if in.keys == nil { // a key scan looked its order up already
		if e := ex.db.index.get(key); e != nil {
			noteServed(cost, o)
			return e.ord, nil
		}
	}
	ts, te := in.columns(span)
	out, err := ex.orderColumns(ts, te, o, cost, true)
	if err != nil {
		return ordered{}, err
	}
	ex.db.index.putOrder(key, out)
	return out, nil
}

// columns returns the input's lifespans as endpoint columns in input
// order: a key scan's own, or shredded from the view.
func (in *result) columns(span rowSpan) (ts, te []interval.Time) {
	if in.keys != nil {
		return in.keys.TS, in.keys.TE
	}
	return in.v.shred(span.of)
}

// noteServed records an order the relation index served.
func noteServed(cost *obs.Node, o relation.Order) {
	cost.Notes = append(cost.Notes, fmt.Sprintf("order %v from endpoint index", o))
}

// orderColumns establishes the order over lifespans given as endpoint
// columns in input order: through storage.ExternalSortKeys past the sort
// workspace, else sorting the columns in place.
func (ex *executor) orderColumns(ts, te []interval.Time, o relation.Order, cost *obs.Node, withPerm bool) (ordered, error) {
	n := len(ts)
	var out ordered
	if mem := ex.opt.SortMemRows; mem > 0 && n > mem && !relation.SortedColumns(ts, te, o) {
		var st storage.SortStats
		var err error
		if out.perm, err = storage.ExternalSortKeys(ts, te, o, mem, ex.opt.SpillDir, &st, ex.checkInterrupt); err != nil {
			return ordered{}, err
		}
		out.cols = gatherCols(core.Cols{TS: ts, TE: te}, out.perm)
		cost.SortedRows += int64(n)
		cost.SortRuns += st.Runs
		cost.SortPages += st.PagesRead + st.PagesWritten
		cost.Notes = append(cost.Notes, fmt.Sprintf(
			"external sort for order %v: %d keys spilled to %d runs, %d pages", o, n, st.Runs, st.PagesRead+st.PagesWritten))
		return out, nil
	}
	var moved bool
	out.perm, moved = relation.SortColumns(ts, te, o, withPerm)
	out.cols = core.Cols{TS: ts, TE: te}
	noteOrder(cost, moved, n, o)
	return out, nil
}

// noteOrder records an in-memory order: rows sorted, or none.
func noteOrder(cost *obs.Node, sorted bool, n int, o relation.Order) {
	if sorted {
		cost.SortedRows += int64(n)
		cost.Notes = append(cost.Notes, fmt.Sprintf("sorted %d rows in memory for order %v", n, o))
	} else {
		cost.Notes = append(cost.Notes, fmt.Sprintf("order %v already established (interesting order)", o))
	}
}

func wrappedStream(xs []spanned) stream.Stream[spanned] { return stream.FromSlice(xs) }

// Run evaluates an optimized (temporal-atom-free) algebra expression and
// returns the materialized result with per-operator statistics. When
// Options.Tracer is set, every plan node emits a span; when
// Options.Registry is set, plan-level metrics are published after the run.
func Run(db *DB, e algebra.Expr, opt Options) (*relation.Relation, *Stats, error) {
	ex := &executor{db: db, opt: opt, stats: &Stats{}}
	start := time.Now()
	var w window
	if opt.Tracer != nil {
		ex.cur = opt.Tracer.BeginQuery(e.Label())
		if opt.Profile {
			w = ex.openWindow()
		}
	}
	res, err := ex.eval(e)
	var rows []relation.Row
	if err == nil {
		// The sink: a plan's rows are built here unless its project
		// built them already, in which case they are handed on as they are.
		rows, err = ex.rows(res)
	}
	if err != nil {
		ex.finish(w, &obs.Node{}, err)
		ex.publish(e.Label(), start, 0, err)
		return nil, nil, err
	}
	ex.finish(w, &obs.Node{Algorithm: "query", Probe: ex.stats.Total(), OutRows: int64(len(rows))}, nil)
	ex.publish(e.Label(), start, int64(len(rows)), nil)
	rel := relation.New("result", res.schema)
	rel.Rows = rows
	return rel, ex.stats, nil
}

// publish pushes the run's plan-level metrics into the configured
// registry (per-operator counters go through the single
// obs.PublishNode export path) and emits the slow-query event when the
// run crossed the Options.SlowQuery threshold.
func (ex *executor) publish(label string, start time.Time, outRows int64, runErr error) {
	elapsed := time.Since(start)
	if ex.opt.Events != nil && ex.opt.SlowQuery > 0 && elapsed >= ex.opt.SlowQuery {
		detail := map[string]string{
			"elapsed_ms": fmt.Sprintf("%.3f", elapsed.Seconds()*1e3),
			"rows_out":   fmt.Sprintf("%d", outRows),
		}
		if runErr != nil {
			detail["error"] = runErr.Error()
		}
		ex.opt.Events.Emit(obs.EventSlowQuery, label, detail)
	}
	reg := ex.opt.Registry
	if reg == nil {
		return
	}
	reg.Counter("tdb_queries_total", "queries executed").Inc()
	if runErr != nil {
		reg.Counter("tdb_query_errors_total", "queries that failed").Inc()
	}
	reg.Counter("tdb_rows_out_total", "result rows returned by queries").Add(outRows)
	reg.Histogram("tdb_query_duration_seconds", "wall-clock query latency",
		obs.ExpBuckets(0.0001, 10, 7)).Observe(elapsed.Seconds())
	for i := range ex.stats.Nodes {
		reg.PublishNode(&ex.stats.Nodes[i])
	}
}

type executor struct {
	db    *DB
	opt   Options
	stats *Stats
	// cur is the span of the plan node currently being evaluated and
	// sampler its state sampler, made on first use; both nil when tracing
	// is off.
	cur     *obs.Span
	sampler *obs.StateSampler
	// inner sums the inclusive allocation deltas of the current node's
	// finished children, which its own window subtracts (profiled, traced
	// runs only).
	inner allocs
}

// eval dispatches a plan node, wrapping it in a trace span. Every evalX
// appends exactly one obs.Node for itself as the last stats entry
// (children append theirs first during recursion), which is what lets
// this wrapper settle the node's curve and allocation window into its own
// record and hand that record to its span.
func (ex *executor) eval(e algebra.Expr) (*result, error) {
	return ex.evalAs(e, func() (*result, error) { return ex.evalNode(e) })
}

// evalAs is eval with the node body given: the interrupt poll, span,
// allocation window and pprof labels around body are e's. A window is
// attributable because every node begins and finishes on the query
// goroutine, its children nested within it.
func (ex *executor) evalAs(e algebra.Expr, body func() (*result, error)) (*result, error) {
	if err := ex.checkInterrupt(); err != nil {
		return nil, err
	}
	if ex.opt.Tracer == nil {
		if ex.opt.Profile {
			return labeled("q0", e, body)
		}
		return body()
	}
	span, sampler := ex.cur, ex.sampler
	ex.cur, ex.sampler = ex.opt.Tracer.Begin(span, e.Label()), nil
	var res *result
	var err error
	var w window
	if ex.opt.Profile {
		w = ex.openWindow()
		res, err = labeled(fmt.Sprintf("q%d", ex.cur.QueryID), e, body)
	} else {
		res, err = body()
	}
	node := &obs.Node{}
	if n := len(ex.stats.Nodes); err == nil && n > 0 {
		node = &ex.stats.Nodes[n-1]
	}
	ex.finish(w, node, err)
	ex.cur, ex.sampler = span, sampler
	return res, err
}

// stateSampler returns the current node's state sampler, made on first
// use so only traced stream operators pay for a curve; nil untraced.
func (ex *executor) stateSampler() *obs.StateSampler {
	if ex.opt.Tracer != nil && ex.sampler == nil {
		ex.sampler = obs.NewStateSampler(obs.DefaultSamples)
	}
	return ex.sampler
}

// finish settles the current node's state curve and, on a profiled run,
// its allocation window into its record n and closes its span with n and
// err. Untraced, it does nothing.
func (ex *executor) finish(w window, n *obs.Node, err error) {
	if ex.opt.Tracer == nil {
		return
	}
	n.Curve = ex.sampler.Samples()
	if ex.opt.Profile {
		ex.closeWindow(w, n)
	}
	if err != nil {
		ex.cur.Fail(ex.opt.Tracer, *n, err)
		return
	}
	ex.cur.Finish(ex.opt.Tracer, *n)
}

// allocs is a reading of the process's cumulative heap-allocation
// counters, or the difference of two readings.
type allocs struct{ n, bytes int64 }

// readAllocs reads the allocation totals through runtime.ReadMemStats,
// deliberately over the cheaper runtime/metrics counters: those are
// flushed from per-P caches in span-sized batches, so a node-sized window
// often reads a zero delta, while ReadMemStats flushes the caches and is
// exact. The read briefly stops the world; it runs twice per plan node of
// a traced, profiled run and never otherwise. The MemStats buffer is a
// fixed-size local (no allocation), which the hotpath-alloc rule audits.
//
//tdb:hotpath
func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{int64(ms.Mallocs), int64(ms.TotalAlloc)}
}

// window is a node's open allocation window: the counters when it opened
// and the enclosing node's child total, set aside while the node's own
// children accumulate theirs in ex.inner.
type window struct{ start, outer allocs }

func (ex *executor) openWindow() window {
	w := window{outer: ex.inner}
	ex.inner = allocs{}
	w.start = readAllocs()
	return w
}

// closeWindow records the node's allocations exclusive of its children's
// in n, and adds its inclusive ones to the enclosing node's child total.
func (ex *executor) closeWindow(w window, n *obs.Node) {
	now := readAllocs()
	d := allocs{now.n - w.start.n, now.bytes - w.start.bytes}
	n.Profiled = true
	n.Allocs = max(d.n-ex.inner.n, 0)
	n.AllocBytes = max(d.bytes-ex.inner.bytes, 0)
	ex.inner = allocs{w.outer.n + d.n, w.outer.bytes + d.bytes}
}

// labeled runs body with the executing goroutine under the pprof labels
// tdb.query, tdb.node and tdb.op, which the runtime attaches to every CPU
// and heap profile sample taken meanwhile, so /debug/pprof/profile and
// /debug/pprof/heap slice by operator (go tool pprof -tagfocus tdb.op=…).
func labeled(query string, e algebra.Expr, body func() (*result, error)) (res *result, err error) {
	pprof.Do(context.Background(), pprof.Labels("tdb.query", query, "tdb.node", e.Label(), "tdb.op", exprOp(e)),
		func(context.Context) { res, err = body() })
	return res, err
}

// exprOp names a plan node's operator kind for the tdb.op pprof label.
func exprOp(e algebra.Expr) string {
	switch e.(type) {
	case *algebra.Scan:
		return "scan"
	case *algebra.Select:
		return "select"
	case *algebra.Product:
		return "product"
	case *algebra.Join:
		return "join"
	case *algebra.Semijoin:
		return "semijoin"
	case *algebra.Project:
		return "project"
	case *algebra.Aggregate:
		return "aggregate"
	}
	return "node"
}

func (ex *executor) evalNode(e algebra.Expr) (*result, error) {
	switch n := e.(type) {
	case *algebra.Scan:
		return ex.evalScan(n)
	case *algebra.Select:
		return ex.evalSelect(n)
	case *algebra.Product:
		return ex.evalProduct(n)
	case *algebra.Join:
		return ex.evalJoin(n)
	case *algebra.Semijoin:
		return ex.evalSemijoin(n)
	case *algebra.Project:
		return ex.evalProject(n)
	case *algebra.Aggregate:
		return ex.evalAggregate(n)
	}
	return nil, fmt.Errorf("engine: unknown expression %T", e)
}

func (ex *executor) evalScan(n *algebra.Scan) (*result, error) {
	base, err := ex.db.Relation(n.Relation)
	if err != nil {
		return nil, err
	}
	probe := metrics.Probe{}
	probe.Passes = 1

	own := ex.db.owner(n.Relation)
	if hf, ok := own.stored[n.Relation]; ok {
		cost := obs.Node{Label: n.Label(), Algorithm: "stored scan", Probe: probe}
		rows, pagesRead, err := hf.ReadRows(ex.checkInterrupt)
		if err != nil {
			return nil, err
		}
		cost.Probe.ReadLeft = int64(len(rows))
		cost.OutRows = int64(len(rows))
		cost.PagesRead = pagesRead
		ex.stats.add(cost)
		return &result{schema: base.Schema.Rename(n.Var()), v: rowsView(rows, base.Schema.Arity())}, nil
	}

	probe.ReadLeft = int64(base.Cardinality())
	ex.stats.add(obs.Node{
		Label: n.Label(), Algorithm: "scan", Probe: probe,
		OutRows: int64(base.Cardinality()),
	})
	res := &result{schema: base.Schema.Rename(n.Var()), v: rowsView(base.Rows, base.Schema.Arity())}
	if _, live := own.live[n.Relation]; !live {
		res.base, res.reads = base, base
	}
	return res, nil
}

// evalKeyScan is a stored scan as the input of a columnar stream
// semijoin, which needs its rows' lifespans before any row: one pass over
// the pages reads the span's two columns into exact-size endpoint columns
// without decoding a row, keeping the page images only when the node may
// emit the rows (keep), to be decoded then by position. The input is first
// looked up in the relation index in the order o its node sweeps it in —
// the one lookup of its order; establishOrder makes none for a key scan.
// On a hit the order is the input's: an input that keeps no pages reads no
// page at all, and one that keeps them reads its pages and RIDs but builds
// no endpoint column. The node reports the rows a scan reads either way. A
// span that does not name two numeric columns of the relation takes the
// row scan, and the node reports it as before.
func (ex *executor) evalKeyScan(n *algebra.Scan, hf *storage.HeapFile, sr algebra.SpanRef, o relation.Order, keep bool) (*result, error) {
	base, err := ex.db.Relation(n.Relation)
	if err != nil {
		return nil, err
	}
	schema := base.Schema.Rename(n.Var())
	ts, te := schema.ColumnIndex(sr.TS.Name()), schema.ColumnIndex(sr.TE.Name())
	if ts < 0 || te < 0 || schema.Cols[ts].Kind == value.KindString || schema.Cols[te].Kind == value.KindString {
		return ex.evalScan(n)
	}
	res := &result{schema: schema, base: base}
	cost := obs.Node{Label: n.Label(), Algorithm: "stored key scan", Probe: metrics.Probe{Passes: 1}}
	cost.Probe.ReadLeft, cost.OutRows = hf.Rows(), hf.Rows()
	if e := ex.db.index.get(orderKey(base, rowSpan{ts: ts, te: te}, o)); e != nil {
		res.ord = &e.ord
		if !keep {
			cost.Notes = append(cost.Notes, "keys only: served by the endpoint index, no page read")
			ex.stats.add(cost)
			return res, nil
		}
		ts, te = -1, -1
	}
	if res.keys, err = hf.ScanKeys(ts, te, keep, ex.checkInterrupt); err != nil {
		return nil, err
	}
	cost.PagesRead = res.keys.PagesRead
	switch {
	case res.ord != nil:
		cost.Notes = append(cost.Notes, "rows only: keys served by the endpoint index, no key column built")
	case keep:
		cost.Notes = append(cost.Notes, "keys first: rows stay on their pages until emitted")
	default:
		cost.Notes = append(cost.Notes, "keys only: no row is decoded")
	}
	ex.stats.add(cost)
	return res, nil
}

// evalSelect narrows a selection vector: the positions of the input view
// whose row satisfies the predicate, which the output view picks. A
// selection that keeps every row hands its input view on unchanged. Over
// a base scan, a col = const conjunct takes its positions from the
// column's codes (codes.go), and the other conjuncts are tested on those
// rows alone; the node's counts are still those of a scan of every row.
func (ex *executor) evalSelect(n *algebra.Select) (*result, error) {
	in, err := ex.eval(n.Input)
	if err != nil {
		return nil, err
	}
	v := in.v.flat()
	var cand []int32 // the rows of the served conjunct's constant
	served, rest := false, n.Pred
	if in.base != nil {
		if col, key, others, ok := eqConst(n.Pred, in.schema); ok {
			if codes := ex.db.index.codes(in.base, col); codes != nil {
				served, cand, rest = true, codes.match(key), others
			}
		}
	}
	pred, err := compilePred(rest, in.schema)
	if err != nil {
		return nil, err
	}
	sel := cand
	switch {
	case !served:
		sel, err = ex.filter(v, nil, pred)
	case len(cand) > 0 && len(rest.Atoms) > 0:
		sel, err = ex.filter(v, cand, pred)
	}
	if err != nil {
		return nil, err
	}
	notes := []string{fmt.Sprintf("%d-atom conjunction over %d rows", predAtoms(n.Pred), v.n)}
	if served {
		notes = append(notes, "σ from column index")
	}
	probe := metrics.Probe{ReadLeft: int64(v.n), Comparisons: int64(v.n), Emitted: int64(len(sel))}
	ex.stats.add(obs.Node{Label: n.Label(), Algorithm: "filter", Probe: probe, OutRows: int64(len(sel)), Notes: notes})
	if len(sel) < v.n {
		v = v.pick(sel)
	}
	return &result{schema: in.schema, v: v, reads: in.reads}, nil
}

// filter returns the positions of v's rows among cand (nil: every row)
// that satisfy pred, in ascending order.
func (ex *executor) filter(v view, cand []int32, pred rowPred) ([]int32, error) {
	n := v.n
	if cand != nil {
		n = len(cand)
	}
	rd := v.reader()
	sel := make([]int32, 0, n)
	//tdb:hotpath
	for k := range n {
		if k%interruptEvery == 0 {
			if err := ex.checkInterrupt(); err != nil {
				return nil, err
			}
		}
		i := int32(k)
		if cand != nil {
			i = cand[k]
		}
		if pred(rd.at(i)) {
			sel = append(sel, i)
		}
	}
	return sel, nil
}

// eqConst finds the first conjunct of p that compares a column of s with
// a constant of the column's kind for equality, in either operand order:
// the column, the constant's relation.AppendKey encoding, and the
// conjunction without it.
func eqConst(p algebra.Predicate, s *relation.Schema) (col int, key []byte, rest algebra.Predicate, ok bool) {
	for i, a := range p.Atoms {
		c, k := a.L, a.R
		if c.IsConst {
			c, k = k, c
		}
		if a.Op != algebra.EQ || c.IsConst || c.Param > 0 || !k.IsConst {
			continue
		}
		j := s.ColumnIndex(c.Col.Name())
		if j < 0 || (s.Cols[j].Kind == value.KindString) != (k.Const.Kind() == value.KindString) {
			continue
		}
		rest = algebra.Predicate{Atoms: slices.Delete(slices.Clone(p.Atoms), i, i+1), Temporal: p.Temporal}
		return j, relation.AppendKey(nil, relation.Row{k.Const}, nil), rest, true
	}
	return 0, nil, p, false
}

// evalProduct lists every (left, right) position pair as a join's matches.
func (ex *executor) evalProduct(n *algebra.Product) (*result, error) {
	l, err := ex.eval(n.L)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(n.R)
	if err != nil {
		return nil, err
	}
	lv, rv := l.v.flat(), r.v.flat()
	probe := metrics.Probe{}
	pl := newPairList(lv.n * rv.n)
	for i := range int32(lv.n) {
		if i%interruptEvery == 0 || rv.n >= interruptEvery {
			if err := ex.checkInterrupt(); err != nil {
				return nil, err
			}
		}
		probe.IncReadLeft()
		for j := range int32(rv.n) {
			probe.IncReadRight()
			pl.add(i, j)
		}
	}
	out := joinView(lv, rv, pl.chunks())
	probe.IncEmitted(int64(out.n))
	ex.stats.add(obs.Node{Label: "×", Algorithm: "cartesian", Probe: probe, OutRows: int64(out.n)})
	return &result{schema: relation.Concat(l.schema, r.schema, "", ""), v: out}, nil
}

// compileProject resolves a projection against its input schema: the
// output schema and, per output column, the index of the input column it
// copies. evalProject and standing plans share it.
func compileProject(p *algebra.Project, in *relation.Schema) (*relation.Schema, []int, error) {
	idx := make([]int, len(p.Cols))
	cols := make([]relation.Column, len(p.Cols))
	ts, te := -1, -1
	for i, c := range p.Cols {
		j := in.ColumnIndex(c.From.Name())
		if j < 0 {
			return nil, nil, fmt.Errorf("engine: projection column %s not in %s", c.From, in)
		}
		idx[i] = j
		cols[i] = relation.Column{Name: c.Name, Kind: in.Cols[j].Kind}
		if c.Name == p.TSName {
			ts = i
		}
		if c.Name == p.TEName {
			te = i
		}
	}
	schema, err := relation.NewSchema(cols, ts, te)
	if err != nil {
		return nil, nil, err
	}
	return schema, idx, nil
}

// distinctRows returns, in order, the positions of v's rows whose cells
// at idx no earlier row repeats.
func distinctRows(v view, idx []int) []int32 { return firstRows(v, idx, false) }

// firstRows is distinctRows, returning at the first repeat instead when
// stop is set: a result shorter than v.n then says only that some row
// repeats. Rows are found by the hash of their AppendKey encoding in an
// open-addressing table of positions, and keys are compared only on equal
// hashes, so the table is pointer-free and nothing is allocated per row.
func firstRows(v view, idx []int, stop bool) []int32 {
	rd := v.reader()
	keep := make([]int32, 0, v.n)
	hashes := make([]uint64, 0, v.n) // hashes[k] is keep[k]'s
	size := 16
	for size < 2*v.n {
		size *= 2
	}
	slots := make([]int32, size) // at most half full: one plus an index into keep, 0 when empty
	mask := size - 1
	var key, other []byte
	for i := range int32(v.n) {
		key = relation.AppendKey(key[:0], rd.at(i), idx)
		h := maphash.Bytes(codeSeed, key)
		s := int(h) & mask
		for ; slots[s] != 0; s = (s + 1) & mask {
			k := slots[s] - 1
			if hashes[k] != h {
				continue
			}
			if other = relation.AppendKey(other[:0], rd.at(keep[k]), idx); bytes.Equal(key, other) {
				break
			}
		}
		if slots[s] != 0 {
			if stop {
				return keep
			}
			continue
		}
		slots[s] = int32(len(keep)) + 1
		keep = append(keep, i)
		hashes = append(hashes, h)
	}
	return keep
}

// evalProject is the sink of its plan: it builds the output rows from its
// input view, each once. DISTINCT first picks the positions whose
// projected key is new (distinctRows), unless the data proves the
// projected rows distinct already (keyProof): every row is new then, so
// the rows and their order are the ones DISTINCT would keep, and none is
// hashed. The node's note says which ran.
func (ex *executor) evalProject(n *algebra.Project) (*result, error) {
	in, err := ex.eval(n.Input)
	if err != nil {
		return nil, err
	}
	schema, idx, err := compileProject(n, in.schema)
	if err != nil {
		return nil, err
	}
	probe := metrics.Probe{ReadLeft: int64(in.v.n)}
	v := in.v
	var notes []string
	if n.Distinct {
		if keys, ok := ex.provenKeys(n.Input, idx); ok {
			notes = append(notes, "distinct skipped: key "+strings.Join(keys, ", "))
		} else {
			v = v.flat()
			notes = append(notes, fmt.Sprintf("distinct ran over %d rows", v.n))
			if keep := distinctRows(v, idx); len(keep) < v.n {
				v = v.pick(keep)
			}
		}
	}
	rows, err := ex.build(v, idx)
	if err != nil {
		return nil, err
	}
	probe.IncEmitted(int64(len(rows)))
	ex.stats.add(obs.Node{Label: n.Label(), Algorithm: "project", Probe: probe, OutRows: int64(len(rows)), Notes: notes})
	return &result{schema: schema, v: rowsView(rows, len(idx))}, nil
}
