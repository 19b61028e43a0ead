package live

import (
	"errors"
	"fmt"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/fault"
	"tdb/internal/metrics"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// ErrBreakerOpen is returned by Poll once the workspace governor has
// declined a standing query: the measured workspace breached the
// predicted bound, re-estimation from refreshed catalog statistics could
// not re-admit it, and degradation was disallowed (or exhausted).
var ErrBreakerOpen = errors.New("live: standing query breaker open")

// breakerMaxTrips is how many governor trips a standing query survives
// as re-admissions before it is forced down the degradation ladder.
const breakerMaxTrips = 2

// Mode is how a standing query is evaluated.
type Mode int

const (
	// ModeIncremental feeds the unchanged core stream operator from live
	// input; the workspace is bounded by the Tables 1–3 characterization.
	ModeIncremental Mode = iota
	// ModeBatch re-executes the whole query per poll and emits the
	// multiset difference — the degraded path for unbounded
	// characterizations (correct because join/semijoin results are
	// monotone under append-only input).
	ModeBatch
)

func (m Mode) String() string {
	if m == ModeBatch {
		return "batch"
	}
	return "incremental"
}

// RegisterOptions configures admission of one standing query.
type RegisterOptions struct {
	// AllowDegrade permits falling back to periodic batch re-execution
	// when the workspace characterization is unbounded; otherwise such
	// queries are declined with a DeclinedError.
	AllowDegrade bool
	// Govern arms the workspace circuit breaker: at every poll the
	// measured operator workspace is compared against the Tables 1–3
	// bound under *current* catalog statistics, and a breach trips the
	// breaker (re-estimate → re-admit in place, degrade to batch, or
	// decline with ErrBreakerOpen).
	Govern bool
}

// DeclinedError reports a registration refused by the admission policy.
type DeclinedError struct {
	Query  string
	Reason string
}

func (e *DeclinedError) Error() string {
	return fmt.Sprintf("live: standing query %q declined: %s", e.Query, e.Reason)
}

// StandingQuery is one registered query: either an incremental run of a
// core stream operator, or a periodically re-executed batch query.
type StandingQuery struct {
	name string
	mode Mode
	note string // admission explain note
	tree algebra.Expr
	m    *Manager

	// Incremental state.
	plan *engine.StandingPlan
	run  *engine.StandingRun

	// Batch state: the multiset of the previous execution's result.
	prev map[string]int

	// history holds every delta ever emitted, in emission order: one
	// exact-size chunk per non-empty poll, so recording a poll never
	// copies the rows before it. Deltas merges the chunks into one.
	history   [][]relation.Row
	emitted   int    // delta rows ever emitted: the chunks' total length
	deltaHash uint64 // FNV-1a over the delta sequence's cells (foldDelta)
	batches   int    // non-empty delta batches emitted (the stream seq authority)

	// Workspace-governor state.
	govern       bool
	allowDegrade bool
	trips        int
	broken       error // non-nil once the breaker declined the query

	gBacklog   *obs.Gauge
	gWorkspace *obs.Gauge
	cDeltas    *obs.Counter
	cTrips     *obs.Counter
}

// event emits to the manager's journal (a nil journal is a no-op).
func (q *StandingQuery) event(kind string, detail map[string]string) {
	q.m.opt.Events.Emit(kind, q.name, detail)
}

func newIncremental(m *Manager, name string, tree algebra.Expr, plan *engine.StandingPlan,
	est optimizer.StandingEstimate, opts RegisterOptions) *StandingQuery {
	q := &StandingQuery{
		name: name, mode: ModeIncremental, note: est.String(),
		tree: tree, m: m, plan: plan, run: plan.Start(&metrics.Probe{}),
		deltaHash: fnv1aInit,
		govern:    opts.Govern, allowDegrade: opts.AllowDegrade,
	}
	q.metrics()
	// Rows released (or loaded) before registration are part of the final
	// relation: feed them first, ValidFrom-sorted, so accumulated deltas
	// converge to the batch result over the full contents.
	left := q.backfill(plan.LeftRel)
	q.run.FeedLeft(left)
	if plan.RightRel == plan.LeftRel {
		q.run.FeedRight(left)
	} else {
		q.run.FeedRight(q.backfill(plan.RightRel))
	}
	return q
}

// backfill returns the rows a relation already holds, ValidFrom-sorted.
func (q *StandingQuery) backfill(rel string) []relation.Row {
	r, err := q.m.db.Relation(rel)
	if err != nil || len(r.Rows) == 0 {
		return nil
	}
	return rowsByValidFrom(r)
}

func newBatch(m *Manager, name string, tree algebra.Expr, reason string) *StandingQuery {
	q := &StandingQuery{
		name: name, mode: ModeBatch,
		note: "degraded to periodic batch re-execution: " + reason,
		tree: tree, m: m, prev: map[string]int{},
		deltaHash: fnv1aInit,
	}
	q.metrics()
	return q
}

// series returns the registry names of the query's own series.
func (q *StandingQuery) series() (backlog, workspace, deltas string) {
	f := obs.NameFragment(q.name)
	return "tdb_live_backlog_" + f, "tdb_live_workspace_hwm_" + f, "tdb_live_deltas_total_" + f
}

func (q *StandingQuery) metrics() {
	backlog, workspace, deltas := q.series()
	q.gBacklog = q.m.gauge(backlog, "unconsumed input of "+q.name)
	q.gWorkspace = q.m.gauge(workspace, "operator workspace high-water mark of "+q.name)
	q.cDeltas = q.m.counter(deltas, "delta rows emitted by "+q.name)
	q.cTrips = q.m.counter("tdb_governor_fallbacks_total", "workspace-governor breaches that degraded a query")
}

// Name returns the query name.
func (q *StandingQuery) Name() string { return q.name }

// Mode returns the evaluation mode.
func (q *StandingQuery) Mode() Mode { return q.mode }

// Explain returns the admission note — the Tables 1–3 characterization
// behind the accept/degrade decision.
func (q *StandingQuery) Explain() string {
	if q.mode == ModeIncremental {
		return fmt.Sprintf("%s · %s · %s", q.mode, q.plan.Algorithm(), q.note)
	}
	return fmt.Sprintf("%s · %s", q.mode, q.note)
}

// observeRelease feeds newly released rows of rel into whichever operator
// sides scan it (batch queries re-read storage at poll time instead). A
// declined query accepts no further input but does not fail ingestion.
func (q *StandingQuery) observeRelease(rel string, rows []relation.Row) error {
	if q.mode != ModeIncremental || q.broken != nil {
		return nil
	}
	if q.plan.LeftRel != rel && q.plan.RightRel != rel {
		return nil
	}
	if err := fault.Check("live/deliver"); err != nil {
		return err
	}
	if q.plan.LeftRel == rel {
		q.run.FeedLeft(rows)
	}
	if q.plan.RightRel == rel {
		q.run.FeedRight(rows)
	}
	q.gBacklog.Set(int64(q.run.Backlog()))
	return nil
}

// Poll returns the delta rows produced since the previous poll. For an
// incremental query it resumes the operator over the input fed since; for
// a batch query it re-executes the tree and returns the multiset
// difference against the previous execution.
//
// When the query is governed, every incremental poll also compares the
// operator's measured workspace against the Tables 1–3 bound under the
// *current* catalog statistics; a breach trips the circuit breaker (see
// trip). A query whose breaker has opened returns ErrBreakerOpen.
func (q *StandingQuery) Poll() ([]relation.Row, error) {
	if q.broken != nil {
		return nil, q.broken
	}
	if q.mode == ModeIncremental {
		buf, err := q.run.Poll()
		if err != nil {
			return nil, fmt.Errorf("live: standing query %s: %w", q.name, err)
		}
		rows := q.record(buf)
		q.gWorkspace.Set(q.run.Workspace())
		q.gBacklog.Set(int64(q.run.Backlog()))
		if q.govern {
			if bound := q.Bound(); bound > 0 && float64(q.run.Workspace()) > bound {
				if err := q.trip(bound); err != nil {
					return rows, err
				}
			}
		}
		return rows, nil
	}
	res, _, err := engine.Run(q.m.db, q.tree, q.m.opt)
	if err != nil {
		return nil, err
	}
	var fresh []relation.Row
	next := map[string]int{}
	for _, row := range res.Rows {
		k := row.Key()
		next[k]++
		if next[k] > q.prev[k] {
			fresh = append(fresh, row)
		}
	}
	q.prev = next
	return q.record(fresh), nil
}

// trip is the circuit breaker: the measured workspace breached the
// predicted bound, so the catalog statistics behind the admission are
// stale. Statistics are re-published from the incremental accumulators
// and the query is re-estimated:
//
//  1. re-admit — still bounded and trips remain: the running operator
//     keeps its state and the next poll compares its workspace with the
//     refreshed bound (restarting it would only rebuild the same state,
//     since the operators are deterministic functions of their input);
//  2. degrade — trips exhausted and degradation allowed: stop the
//     operator and switch to periodic batch re-execution seeded with the
//     emitted multiset;
//  3. decline — otherwise stop the operator; ErrBreakerOpen on this and
//     every later poll.
func (q *StandingQuery) trip(bound float64) error {
	q.trips++
	q.cTrips.Inc()
	breach := fmt.Sprintf("workspace %d breached bound %.1f", q.run.Workspace(), bound)
	q.m.db.RefreshStats(q.plan.LeftRel)
	q.m.db.RefreshStats(q.plan.RightRel)
	est := optimizer.EstimateStanding(q.plan.Kind, q.plan.Semijoin,
		q.m.statsOf(q.plan.LeftRel), q.m.statsOf(q.plan.RightRel))
	tripDetail := func(outcome string) map[string]string {
		return map[string]string{
			"trip":    fmt.Sprintf("%d", q.trips),
			"breach":  breach,
			"outcome": outcome,
		}
	}
	switch {
	case est.Bounded && q.trips <= breakerMaxTrips:
		q.note = fmt.Sprintf("governor: trip %d (%s); re-admitted under refreshed stats: %s",
			q.trips, breach, est)
		q.event(obs.EventBreakerTrip, tripDetail("re-admit"))
		return nil
	case q.allowDegrade:
		q.mode = ModeBatch
		q.note = fmt.Sprintf("governor: trip %d (%s); degraded to periodic batch re-execution", q.trips, breach)
		q.run.Stop()
		q.run = nil
		q.prev = map[string]int{}
		for _, chunk := range q.history {
			for _, row := range chunk {
				q.prev[row.Key()]++
			}
		}
		q.event(obs.EventBreakerTrip, tripDetail("degrade"))
		return nil
	default:
		q.broken = fmt.Errorf("%w: %s declined after trip %d (%s): %s",
			ErrBreakerOpen, q.name, q.trips, breach, est)
		q.run.Stop()
		q.run = nil
		q.note = "governor: " + q.broken.Error()
		q.event(obs.EventBreakerTrip, tripDetail("decline"))
		return q.broken
	}
}

// record folds a poll's delta rows into the hash and the history, and
// returns the history's copy of them: an exact-size chunk the caller may
// keep, since no later poll writes to it. rows itself may be the runner's
// emission buffer, which the next poll reuses. Returns nil for no rows.
func (q *StandingQuery) record(rows []relation.Row) []relation.Row {
	if len(rows) == 0 {
		return nil
	}
	for _, row := range rows {
		q.deltaHash = foldDelta(q.deltaHash, row)
	}
	q.batches++
	chunk := append([]relation.Row(nil), rows...)
	q.history = append(q.history, chunk)
	q.emitted += len(chunk)
	q.cDeltas.Add(int64(len(chunk)))
	return chunk
}

// Deltas returns every delta row ever emitted, in emission order. The
// history's chunks are merged into one exact-size slice, kept as its only
// chunk, so a second call with no poll between costs nothing; later polls
// never write to a slice already returned.
func (q *StandingQuery) Deltas() []relation.Row {
	if len(q.history) > 1 {
		all := make([]relation.Row, 0, q.emitted)
		for _, chunk := range q.history {
			all = append(all, chunk...)
		}
		q.history = append(q.history[:0], all)
	}
	if len(q.history) == 0 {
		return nil
	}
	return q.history[0]
}

// Emitted returns the number of delta rows ever emitted, len(Deltas())
// without touching the history.
func (q *StandingQuery) Emitted() int { return q.emitted }

// Batches counts the non-empty delta batches ever emitted — the
// sequence authority a wire subscription's replay ring aligns with: the
// ring's newest seq must equal this count, severed or not.
func (q *StandingQuery) Batches() int { return q.batches }

// DeltaHash returns the FNV-1a hash of the emission sequence, folded one
// 32-bit word at a time (see foldDelta). Each cell's words are
// self-delimiting, so the word sequence determines the delta sequence. The
// value identifies a sequence within one build only: it is not stable
// across versions of the encoding.
func (q *StandingQuery) DeltaHash() uint64 { return q.deltaHash }

// Schema returns the delta row schema (nil for batch queries before their
// first poll; use the engine result schema instead).
func (q *StandingQuery) Schema() *relation.Schema {
	if q.plan != nil {
		return q.plan.Schema()
	}
	return nil
}

// Workspace returns the live operator workspace (state high-water mark
// plus buffers); 0 for batch and breaker-declined queries.
func (q *StandingQuery) Workspace() int64 {
	if q.mode != ModeIncremental || q.run == nil {
		return 0
	}
	return q.run.Workspace()
}

// Trips returns how many times the workspace governor has tripped.
func (q *StandingQuery) Trips() int { return q.trips }

// Broken returns the breaker-open error, or nil while the query runs.
func (q *StandingQuery) Broken() error { return q.broken }

// Bound recomputes the analytic workspace ceiling under the *current*
// catalog statistics — the figure the acceptance check compares the
// measured high-water mark against. Returns 0 for batch queries.
func (q *StandingQuery) Bound() float64 {
	if q.mode != ModeIncremental {
		return 0
	}
	est := optimizer.EstimateStanding(q.plan.Kind, q.plan.Semijoin,
		q.m.statsOf(q.plan.LeftRel), q.m.statsOf(q.plan.RightRel))
	return est.Bound
}

// Suspended reports the incremental runner's wait state ("input",
// "running", "done"); batch queries report "batch" and a
// breaker-declined query "broken".
func (q *StandingQuery) Suspended() string {
	if q.mode != ModeIncremental {
		return "batch"
	}
	if q.run == nil {
		return "broken"
	}
	return q.run.Suspended()
}

// Finish gracefully ends the query: an incremental operator sees
// end-of-stream on every input and runs its termination logic; the final
// delta rows are recorded and returned. A batch query performs one last
// re-execution. The query accepts no further input afterwards.
func (q *StandingQuery) Finish() ([]relation.Row, error) {
	if q.broken != nil {
		return nil, q.broken
	}
	if q.mode != ModeIncremental {
		return q.Poll()
	}
	buf, err := q.run.Close()
	rows := q.record(buf)
	q.gWorkspace.Set(q.run.Workspace())
	q.gBacklog.Set(0)
	return rows, err
}

// stop ends the query's run and takes its series out of the registry.
func (q *StandingQuery) stop() {
	if q.run != nil {
		q.run.Stop()
	}
	backlog, workspace, deltas := q.series()
	q.m.reg.Unregister(backlog, workspace, deltas)
}

// Verify checks the delta contract against the current relation contents
// after a fresh poll: an incremental query's accumulated deltas must be a
// byte-identical prefix of the one-shot batch run of the same operator; a
// degraded batch query's accumulated deltas must be multiset-equal to the
// engine's re-execution. Returns (accumulated deltas, reference rows).
func (q *StandingQuery) Verify() (deltas, reference int, err error) {
	if _, err := q.Poll(); err != nil {
		return 0, 0, err
	}
	if q.mode == ModeIncremental {
		batch, err := q.m.batchReference(q.plan)
		if err != nil {
			return 0, 0, err
		}
		if q.emitted > len(batch) {
			return q.emitted, len(batch), fmt.Errorf(
				"live: %s emitted %d deltas, batch produces only %d", q.name, q.emitted, len(batch))
		}
		i := 0
		for _, chunk := range q.history {
			for _, row := range chunk {
				if !row.Equal(batch[i]) {
					return q.emitted, len(batch), fmt.Errorf(
						"live: %s delta %d diverges from batch: %s != %s", q.name, i, row, batch[i])
				}
				i++
			}
		}
		return q.emitted, len(batch), nil
	}
	res, _, err := engine.Run(q.m.db, q.tree, q.m.opt)
	if err != nil {
		return 0, 0, err
	}
	counts := map[string]int{}
	for _, row := range res.Rows {
		counts[row.Key()]++
	}
	for _, chunk := range q.history {
		for _, row := range chunk {
			k := row.Key()
			counts[k]--
			if counts[k] < 0 {
				return q.emitted, len(res.Rows), fmt.Errorf(
					"live: %s delta %s not in the batch result", q.name, row)
			}
		}
	}
	for _, row := range res.Rows {
		if n := counts[row.Key()]; n != 0 {
			return q.emitted, len(res.Rows), fmt.Errorf(
				"live: %s missing %d deltas for %s", q.name, n, row)
		}
	}
	return q.emitted, len(res.Rows), nil
}

const fnv1aInit, fnv1aPrime = 14695981039346656037, 1099511628211

// foldDelta continues the FNV-1a hash h over row's cells, 32 bits per
// step rather than 8: each cell folds its kind, then an Int's or a Time's
// payload, or a string's length and then its bytes as little-endian 4-byte
// words, the last zero-padded. A payload or a length folds as its low and
// high halves. The length comes first, so a row's words are
// self-delimiting. A step takes 32 bits,
// not 64: multiplying by the odd prime carries an input's top bit only to
// the state's top bit, so a 64-bit step would let two cells' top bits, or
// the top bits of two of one string's 8-byte words, flip together and
// cancel.
func foldDelta(h uint64, row relation.Row) uint64 {
	for _, v := range row {
		k := v.Kind()
		h = fnv1aStep(h, uint32(k))
		if k != value.KindString {
			h = fnv1aStep64(h, uint64(v.AsInt()))
			continue
		}
		s := v.AsString()
		h = fnv1aStep64(h, uint64(len(s)))
		for ; len(s) >= 4; s = s[4:] {
			h = fnv1aStep(h, uint32(s[0])|uint32(s[1])<<8|uint32(s[2])<<16|uint32(s[3])<<24)
		}
		if len(s) > 0 {
			var w uint32
			for i := range len(s) {
				w |= uint32(s[i]) << (8 * i)
			}
			h = fnv1aStep(h, w)
		}
	}
	return h
}

// fnv1aStep folds one 32-bit word into the FNV-1a state h.
func fnv1aStep(h uint64, w uint32) uint64 { return (h ^ uint64(w)) * fnv1aPrime }

// fnv1aStep64 folds a 64-bit word as its low, then its high half.
func fnv1aStep64(h, w uint64) uint64 { return fnv1aStep(fnv1aStep(h, uint32(w)), uint32(w>>32)) }
