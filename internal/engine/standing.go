package engine

import (
	"errors"
	"fmt"

	"tdb/internal/algebra"
	"tdb/internal/core"
	"tdb/internal/fault"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/relation"
	"tdb/internal/value"
)

func init() {
	fault.Declare("engine/standing-run", "standing-query operator, per emitted delta")
}

// This file extracts standing-evaluable plans from optimized algebra trees
// and runs them incrementally over live arrival. A standing plan is the
// restricted shape [Project?](Join|Semijoin([Select?]Scan, [Select?]Scan))
// whose temporal operator has a (TS↑, TS↑) stream algorithm: exactly the
// queries the core operators can evaluate in one pass while ingestion
// feeds them, with side predicates pushed down to the feed and the
// projection applied per delta. Anything else (Distinct, aggregates,
// multi-join trees, θ or before operators) is reported unsupported so the
// live manager can degrade it to periodic batch re-execution.

// ErrWorkerPanic wraps a panic recovered inside a standing run's
// operator, surfaced from Poll or Close as an ordinary run error instead
// of a process crash.
var ErrWorkerPanic = errors.New("engine: panic in standing operator")

// ErrUnsupportedStanding wraps the reason a plan cannot run incrementally.
type ErrUnsupportedStanding struct{ Reason string }

func (e *ErrUnsupportedStanding) Error() string {
	return "engine: not standing-evaluable: " + e.Reason
}

func unsupported(format string, args ...any) error {
	return &ErrUnsupportedStanding{Reason: fmt.Sprintf(format, args...)}
}

// StandingPlan is a compiled incremental evaluation plan over two base
// relations.
type StandingPlan struct {
	Kind     algebra.TemporalKind
	Semijoin bool
	// LeftRel / RightRel are the base relation names whose appends feed
	// the two operator inputs.
	LeftRel, RightRel string

	lschema, rschema *relation.Schema
	lpred, rpred     rowPred // pushed-down side filters; nil when absent
	lspan, rspan     rowSpan
	outSchema        *relation.Schema
	project          []int // output cell i is input cell project[i]; nil = identity
}

// Schema returns the delta row schema.
func (p *StandingPlan) Schema() *relation.Schema { return p.outSchema }

// Algorithm names the stream operator the plan runs.
func (p *StandingPlan) Algorithm() string {
	op := "join"
	if p.Semijoin {
		op = "semijoin"
	}
	return fmt.Sprintf("stream %v-%s [TS↑,TS↑] (incremental)", p.Kind, op)
}

// BuildStanding extracts a standing plan from an optimized
// (temporal-atom-free) expression, or returns *ErrUnsupportedStanding
// explaining which shape constraint failed.
func BuildStanding(db *DB, e algebra.Expr) (*StandingPlan, error) {
	p := &StandingPlan{}
	root := e
	var proj *algebra.Project
	if pr, ok := root.(*algebra.Project); ok {
		if pr.Distinct {
			return nil, unsupported("DISTINCT projection must remember every row ever emitted")
		}
		proj = pr
		root = pr.Input
	}
	var l, r algebra.Expr
	var pred algebra.Predicate
	var lref, rref algebra.SpanRef
	switch n := root.(type) {
	case *algebra.Join:
		l, r, pred, p.Kind, lref, rref = n.L, n.R, n.Pred, n.Kind, n.LSpan, n.RSpan
	case *algebra.Semijoin:
		if n.Self {
			return nil, unsupported("self semijoin evaluates one shared input, not two live feeds")
		}
		p.Semijoin = true
		l, r, pred, p.Kind, lref, rref = n.L, n.R, n.Pred, n.Kind, n.LSpan, n.RSpan
	default:
		return nil, unsupported("plan root %T is not a single temporal join or semijoin", root)
	}
	if p.Kind == algebra.KindTheta {
		return nil, unsupported("θ operator has no single-pass stream algorithm")
	}
	// A recognized node's predicate still holds the comparison atoms the
	// optimizer consumed to classify it (Classify sets a non-θ Kind only
	// when the whole conjunction matches the operator signature), and the
	// batch stream path evaluates the operator in their place. Drop those;
	// anything else is a genuine residual the single-pass operator cannot
	// apply.
	spanCols := map[algebra.ColRef]bool{
		lref.TS: true, lref.TE: true, rref.TS: true, rref.TE: true,
	}
	for _, a := range pred.Atoms {
		consumed := (a.Op == algebra.LT || a.Op == algebra.GT) &&
			!a.L.IsConst && !a.R.IsConst && spanCols[a.L.Col] && spanCols[a.R.Col]
		if !consumed {
			return nil, unsupported("residual operator predicate %s cannot be pushed to a side feed", pred)
		}
	}
	if len(pred.Temporal) > 0 {
		return nil, unsupported("unexpanded temporal atoms %v in operator predicate", pred.Temporal)
	}

	var err error
	if p.LeftRel, p.lschema, p.lpred, err = standingSide(db, l); err != nil {
		return nil, err
	}
	if p.RightRel, p.rschema, p.rpred, err = standingSide(db, r); err != nil {
		return nil, err
	}
	if p.lspan, err = spanAccessor(lref, p.lschema); err != nil {
		return nil, err
	}
	if p.rspan, err = spanAccessor(rref, p.rschema); err != nil {
		return nil, err
	}
	// Live arrival is ordered by the base relation's ValidFrom; the
	// operator needs its *operand* spans in TS order, so the two must
	// coincide.
	if p.lspan.ts != p.lschema.TS {
		return nil, unsupported("left span starts at %s, not the relation's ValidFrom — arrival order would not be span order", lref.TS)
	}
	if p.rspan.ts != p.rschema.TS {
		return nil, unsupported("right span starts at %s, not the relation's ValidFrom — arrival order would not be span order", rref.TS)
	}

	if p.Semijoin {
		p.outSchema = p.lschema
	} else {
		p.outSchema = relation.Concat(p.lschema, p.rschema, "", "")
	}
	if proj != nil {
		if p.outSchema, p.project, err = compileProject(proj, p.outSchema); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// standingSide recognizes an optional Select over a base Scan.
func standingSide(db *DB, e algebra.Expr) (string, *relation.Schema, rowPred, error) {
	shape := "a base scan"
	sel, _ := e.(*algebra.Select)
	if sel != nil {
		e, shape = sel.Input, "σ(scan)"
	}
	scan, ok := e.(*algebra.Scan)
	if !ok {
		return "", nil, nil, unsupported("side %T is not %s", e, shape)
	}
	schema, err := db.SchemaOf(scan.Relation)
	if err != nil {
		return "", nil, nil, err
	}
	schema = schema.Rename(scan.Var())
	var pred rowPred
	if sel != nil {
		if pred, err = compilePred(sel.Pred, schema); err != nil {
			return "", nil, nil, err
		}
	}
	return scan.Relation, schema, pred, nil
}

// liveRow is an ingested base row with its lifespan, the element a
// standing operator sweeps: it emits rows, not positions, as they arrive.
type liveRow struct {
	row  relation.Row
	span interval.Interval
}

func liveRowSpan(x liveRow) interval.Interval { return x.span }

// slabCells is the length of a standing run's row slab: 2 047 16-byte
// value.Value cells, 32 752 bytes, the most that stays a small object. A
// pointer-bearing allocation carries an 8-byte malloc header, so Go
// allocates one over 32 768 − 8 bytes as a large object on its own span.
const slabCells = 2047

// standingAbort carries an injected fault out of the operator callback;
// the run closure recovers it into a typed error.
type standingAbort struct{ err error }

// StandingRun is one live execution of a StandingPlan: the unchanged core
// operator running in a Runner, fed by ingestion, emitting delta rows.
type StandingRun struct {
	plan   *StandingPlan
	runner *core.Runner[relation.Row]
	left   *core.Feeder[liveRow]
	right  *core.Feeder[liveRow]
	probe  *metrics.Probe
}

// Start readies the plan's operator; it first runs at the first Poll.
func (p *StandingPlan) Start(probe *metrics.Probe) *StandingRun {
	r := core.NewRunner[relation.Row]()
	fl := core.Attach[liveRow](r)
	fr := core.Attach[liveRow](r)
	run := &StandingRun{plan: p, runner: r, left: fl, right: fr, probe: probe}
	opt := core.Options{Probe: probe}
	r.Start(func(emit func(relation.Row)) (err error) {
		// Contain panics raised inside the operator — whether an injected
		// abort or a genuine operator bug — as an ordinary run error
		// surfaced through Poll/Close, instead of crashing the process
		// with the runner's feeders still attached.
		defer func() {
			switch rec := recover().(type) {
			case nil:
			case standingAbort:
				err = fmt.Errorf("engine: standing run: %w", rec.err)
			default:
				err = fmt.Errorf("%w: %v", ErrWorkerPanic, rec)
			}
		}()
		// Output rows are cut from a slab shared by the run: one
		// allocation per slabCells cells instead of one per row. Each row
		// is capacity-clipped, so appending to it can never write into its
		// neighbour.
		var slab []value.Value
		cut := func(w int) relation.Row {
			if cap(slab)-len(slab) < w {
				slab = make([]value.Value, 0, max(slabCells, w))
			}
			n := len(slab)
			slab = slab[:n+w]
			return relation.Row(slab[n : n+w : n+w])
		}
		// Failpoint: a fault here aborts the operator at its next
		// emission — the mid-flight feeder failure the chaos suite
		// injects. The error unwinds the whole run, never a partial delta:
		// the row is withheld, not half-delivered.
		check := func() {
			if ferr := fault.Check("engine/standing-run"); ferr != nil {
				// lint:allow panic — controlled unwind to the recover above; converted to a typed error
				panic(standingAbort{err: ferr})
			}
		}
		// pair emits the join row a ++ b, projected when the plan projects.
		pair := func(a, b relation.Row) {
			check()
			if p.project == nil {
				row := cut(len(a) + len(b))
				copy(row, a)
				copy(row[len(a):], b)
				emit(row)
				return
			}
			row := cut(len(p.project))
			for i, j := range p.project {
				if j < len(a) {
					row[i] = a[j]
				} else {
					row[i] = b[j-len(a)]
				}
			}
			emit(row)
		}
		emitLR := func(x, y liveRow) { pair(x.row, y.row) }
		emitSemi := func(s liveRow) {
			check()
			if p.project == nil {
				emit(s.row)
				return
			}
			row := cut(len(p.project))
			for i, j := range p.project {
				row[i] = s.row[j]
			}
			emit(row)
		}
		switch {
		case p.Semijoin && p.Kind == algebra.KindContain:
			return core.ContainSemijoinTSTS[liveRow](fl, fr, liveRowSpan, opt, emitSemi)
		case p.Semijoin && p.Kind == algebra.KindContained:
			return core.ContainedSemijoinTSTS[liveRow](fl, fr, liveRowSpan, opt, emitSemi)
		case p.Semijoin: // KindOverlap
			return core.OverlapSemijoin[liveRow](fl, fr, liveRowSpan, opt, emitSemi)
		case p.Kind == algebra.KindContain:
			return core.ContainJoinTSTS[liveRow](fl, fr, liveRowSpan, opt, emitLR)
		case p.Kind == algebra.KindContained:
			// Left during right ⇔ Contain-join(right, left); output keeps
			// left columns first.
			return core.ContainJoinTSTS[liveRow](fr, fl, liveRowSpan, opt,
				func(x, y liveRow) { pair(y.row, x.row) })
		default: // KindOverlap
			return core.OverlapJoin[liveRow](fl, fr, liveRowSpan, opt, emitLR)
		}
	})
	return run
}

// feed filters, wraps and feeds appended base rows into one side.
func feed(f *core.Feeder[liveRow], rows []relation.Row, pred rowPred, span rowSpan) {
	for _, row := range rows {
		if pred == nil || pred(row) {
			f.Feed(liveRow{row: row, span: span.of(row)})
		}
	}
}

// FeedLeft / FeedRight push newly ingested base rows (in arrival order)
// into the operator, applying the plan's pushed-down side predicate.
func (r *StandingRun) FeedLeft(rows []relation.Row)  { feed(r.left, rows, r.plan.lpred, r.plan.lspan) }
func (r *StandingRun) FeedRight(rows []relation.Row) { feed(r.right, rows, r.plan.rpred, r.plan.rspan) }

// Poll resumes the operator over the input fed so far and returns the
// delta rows it emitted. If the operator has terminated with an error (an
// injected fault, a source failure), the error is returned alongside the
// deltas emitted before it — complete rows only, never a partial one. The
// slice is the runner's emission buffer, valid until the next Poll, Close
// or Stop; the rows themselves are never reused.
func (r *StandingRun) Poll() ([]relation.Row, error) { return r.runner.Poll() }

// Emitted returns the number of delta rows ever emitted.
func (r *StandingRun) Emitted() int64 { return r.runner.Emitted() }

// Backlog returns the fed input tuples the operator has not consumed yet.
func (r *StandingRun) Backlog() int { return r.left.Backlog() + r.right.Backlog() }

// Suspended reports the run's wait state: "done" once the operator has
// ended, "input" when it has consumed all it was fed, and "running" while
// fed input awaits a Poll.
func (r *StandingRun) Suspended() string {
	switch {
	case r.runner.Done():
		return "done"
	case r.Backlog() == 0:
		return "input"
	default:
		return "running"
	}
}

// Workspace returns the operator's live workspace figure (state high-water
// mark plus buffers).
func (r *StandingRun) Workspace() int64 { return r.probe.Workspace() }

// Close ends the streams gracefully and returns the final delta rows: the
// operator sees end-of-stream and runs its termination logic. The slice is
// valid until the next call, as Poll's is.
func (r *StandingRun) Close() ([]relation.Row, error) { return r.runner.Finish() }

// Stop abandons the run and discards pending deltas.
func (r *StandingRun) Stop() { r.runner.Stop() }

// Append adds one row to a registered relation — the live ingestion write
// path. The row lands in the heap file (stored relations) or the in-memory
// row set, and for temporal relations the catalog folds it into the
// statistics it has kept since Register (no rescan), republishing them
// every 64 rows; RefreshStats forces publication.
func (db *DB) Append(name string, row relation.Row) error {
	db = db.owner(name)
	rel, err := db.Relation(name)
	if err != nil {
		return err
	}
	if err := rel.Schema.CheckRow(row); err != nil {
		return fmt.Errorf("engine: append to %s: %w", name, err)
	}
	_, wasLive := db.live[name]
	if hf, ok := db.stored[name]; ok {
		db.index.drop(rel)
		if err := hf.Append(row); err != nil {
			return err
		}
	} else {
		rel.Rows = append(rel.Rows, row)
		// A live relation is never indexed (evalScan), so only the append
		// that makes it live, or one to a relation that never goes live (a
		// non-temporal one), has entries to drop.
		if !wasLive {
			db.index.drop(rel)
		}
	}
	if rel.Schema.Temporal() {
		db.live[name] = struct{}{}
		if db.cat.Observe(name, row.Span(rel.Schema)) {
			db.refreshGauges()
		}
	}
	return nil
}

// RefreshStats publishes the statistics of a relation appended to since
// they were last published (a no-op otherwise).
func (db *DB) RefreshStats(name string) {
	db = db.owner(name)
	if db.cat.Refresh(name) {
		db.refreshGauges()
	}
}

// ActiveSpans returns the number of a temporal relation's lifespans open
// at its latest ValidFrom, appended rows included.
func (db *DB) ActiveSpans(name string) int { return db.owner(name).cat.ActiveSpans(name) }
