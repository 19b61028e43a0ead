package live

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/testutil"
	"tdb/internal/value"
)

func xySchema() *relation.Schema {
	return relation.MustSchema([]relation.Column{
		{Name: "Id", Kind: value.KindInt},
		{Name: "ValidFrom", Kind: value.KindTime},
		{Name: "ValidTo", Kind: value.KindTime},
	}, 1, 2)
}

func newXYDB(t *testing.T) *engine.DB {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	db := engine.NewDB()
	db.MustRegister(relation.New("X", xySchema()))
	db.MustRegister(relation.New("Y", xySchema()))
	return db
}

func xrow(id int, from, to interval.Time) relation.Row {
	return relation.Row{value.Int(int64(id)), value.TimeVal(from), value.TimeVal(to)}
}

func spanOf(v string) algebra.SpanRef {
	return algebra.SpanRef{
		TS: algebra.ColRef{Var: v, Col: "ValidFrom"},
		TE: algebra.ColRef{Var: v, Col: "ValidTo"},
	}
}

func xyTree(kind algebra.TemporalKind, semijoin bool) algebra.Expr {
	l := &algebra.Scan{Relation: "X"}
	r := &algebra.Scan{Relation: "Y"}
	if semijoin {
		return &algebra.Semijoin{L: l, R: r, Kind: kind, LSpan: spanOf("X"), RSpan: spanOf("Y")}
	}
	return &algebra.Join{L: l, R: r, Kind: kind, LSpan: spanOf("X"), RSpan: spanOf("Y")}
}

// batchRows runs the SAME standing plan in one shot over the database's
// final contents — the reference for byte-identical delta sequences.
func batchRows(t *testing.T, db *engine.DB, tree algebra.Expr) []relation.Row {
	t.Helper()
	plan, err := engine.BuildStanding(db, tree)
	if err != nil {
		t.Fatalf("BuildStanding: %v", err)
	}
	run := plan.Start(&metrics.Probe{})
	feedAll := func(name string, feed func([]relation.Row)) []relation.Row {
		rel, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		rows := append([]relation.Row(nil), rel.Rows...)
		sort.SliceStable(rows, func(i, j int) bool {
			return rows[i].Span(rel.Schema).Start < rows[j].Span(rel.Schema).Start
		})
		feed(rows)
		return rows
	}
	left := feedAll(plan.LeftRel, run.FeedLeft)
	if plan.RightRel == plan.LeftRel {
		run.FeedRight(left)
	} else {
		feedAll(plan.RightRel, run.FeedRight)
	}
	rows, err := run.Close()
	if err != nil {
		t.Fatalf("batch close: %v", err)
	}
	return rows
}

func keysOf(rows []relation.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Key()
	}
	return out
}

func sameSequence(t *testing.T, what string, got, want []relation.Row) {
	t.Helper()
	g, w := keysOf(got), keysOf(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %s, want %s", what, i, g[i], w[i])
		}
	}
}

func sameMultiset(t *testing.T, what string, got, want []relation.Row) {
	t.Helper()
	g, w := keysOf(got), keysOf(want)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: sorted row %d = %s, want %s", what, i, g[i], w[i])
		}
	}
}

// TestIncrementalSemijoinLifecycle drives a contained-semijoin through
// slack-disordered ingestion, polls at arbitrary watermarks, and checks the
// accumulated deltas are byte-identical to a one-shot batch execution of
// the same operator over the final contents — plus the measured workspace
// high-water mark staying within the analytic admission bound.
func TestIncrementalSemijoinLifecycle(t *testing.T) {
	db := newXYDB(t)
	reg := obs.NewRegistry()
	m := NewManager(db, reg, engine.Options{})
	defer m.Close()
	if _, err := m.Live("X", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Live("Y", 0); err != nil {
		t.Fatal(err)
	}

	tree := xyTree(algebra.KindContained, true)
	q, err := m.Register("contained", tree, RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode() != ModeIncremental {
		t.Fatalf("mode = %v, want incremental", q.Mode())
	}
	if got := q.Explain(); got == "" || q.Mode() != ModeIncremental {
		t.Fatalf("explain = %q", got)
	}

	rng := rand.New(rand.NewSource(11))
	var polls int
	for i := 0; i < 200; i++ {
		base := interval.Time(4 * i)
		jitter := interval.Time(rng.Intn(5)) - 2 // |disorder| ≤ slack
		from := base + jitter
		if from < 0 {
			from = 0
		}
		if err := m.Append("X", xrow(i, from, from+interval.Time(1+rng.Intn(10)))); err != nil {
			t.Fatalf("append X[%d]: %v", i, err)
		}
		if i%2 == 0 {
			yf := interval.Time(8 * (i / 2))
			if err := m.Append("Y", xrow(1000+i, yf, yf+interval.Time(2+rng.Intn(20)))); err != nil {
				t.Fatalf("append Y[%d]: %v", i, err)
			}
		}
		if rng.Intn(17) == 0 {
			if _, err := q.Poll(); err != nil {
				t.Fatal(err)
			}
			polls++
		}
	}
	if polls == 0 {
		if _, err := q.Poll(); err != nil {
			t.Fatal(err)
		}
	}

	// A tuple behind the watermark is rejected, not silently reordered.
	tab := m.Table("X")
	if tab.Watermark() <= 0 {
		t.Fatalf("watermark did not advance: %d", tab.Watermark())
	}
	if err := m.Append("X", xrow(9999, 0, 1)); err == nil || !errors.Is(err, ErrLateTuple) {
		t.Fatalf("late append err = %v, want ErrLateTuple", err)
	}
	if tab.Rejected() != 1 {
		t.Fatalf("rejected = %d, want 1", tab.Rejected())
	}

	m.Flush()
	final, err := q.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(final) == 0 && len(q.Deltas()) == 0 {
		t.Fatal("no deltas at all; fixture too weak")
	}
	sameSequence(t, "deltas vs batch", q.Deltas(), batchRows(t, db, tree))

	if q.Workspace() <= 0 {
		t.Fatalf("workspace = %d, want > 0", q.Workspace())
	}
	if b := q.Bound(); float64(q.Workspace()) > b {
		t.Fatalf("workspace HWM %d exceeds analytic bound %.1f", q.Workspace(), b)
	}
	if q.Suspended() != "done" {
		t.Fatalf("suspended = %q after finish, want done", q.Suspended())
	}
}

// TestIncrementalKindsMatchBatch exercises every (kind, operator) pair the
// admission table accepts under (TS↑,TS↑) and checks delta sequences are
// byte-identical to the same-operator batch run — including the Contained
// join's operand swap keeping left columns first. Every shape runs a
// random stream polled every 31 appends; the overlap shapes also run a
// burst of 4 X × 4 Y mutually overlapping spans appended between two polls
// (16 join deltas), none of which may be lost.
func TestIncrementalKindsMatchBatch(t *testing.T) {
	random := func(t *testing.T, m *Manager, q *StandingQuery) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 120; i++ {
			from := interval.Time(3 * i)
			if err := m.Append("X", xrow(i, from, from+interval.Time(1+rng.Intn(12)))); err != nil {
				t.Fatal(err)
			}
			// A draw with ValidTo ≤ ValidFrom would violate the
			// intra-tuple constraint, which Append refuses; it is
			// widened to one chronon.
			ys := from + interval.Time(rng.Intn(3))
			ye := max(from+interval.Time(2+rng.Intn(9)), ys+1)
			if err := m.Append("Y", xrow(500+i, ys, ye)); err != nil {
				t.Fatal(err)
			}
			if i%31 == 0 {
				if _, err := q.Poll(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	burst := func(t *testing.T, m *Manager, q *StandingQuery) {
		for i := 0; i < 4; i++ {
			if err := m.Append("X", xrow(i, interval.Time(i), 100)); err != nil {
				t.Fatal(err)
			}
			if err := m.Append("Y", xrow(50+i, interval.Time(i), 100)); err != nil {
				t.Fatal(err)
			}
		}
		rows, err := q.Poll()
		if err != nil {
			t.Fatal(err)
		}
		want := batchRows(t, m.DB(), q.tree)
		if len(rows) == 0 || len(rows) > len(want) {
			t.Fatalf("burst poll = %d deltas, want 1..%d", len(rows), len(want))
		}
		sameSequence(t, "burst poll", rows, want[:len(rows)])
	}
	type input struct {
		suffix string
		feed   func(*testing.T, *Manager, *StandingQuery)
	}
	kinds := []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap}
	for _, kind := range kinds {
		for _, semi := range []bool{false, true} {
			inputs := []input{{"", random}}
			if kind == algebra.KindOverlap {
				inputs = append(inputs, input{"/burst", burst})
			}
			for _, in := range inputs {
				name := fmt.Sprintf("%v/semijoin=%v%s", kind, semi, in.suffix)
				t.Run(name, func(t *testing.T) {
					db := newXYDB(t)
					m := NewManager(db, nil, engine.Options{})
					defer m.Close()
					tree := xyTree(kind, semi)
					q, err := m.Register("q", tree, RegisterOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if q.Mode() != ModeIncremental {
						t.Fatalf("mode = %v", q.Mode())
					}
					in.feed(t, m, q)
					m.Flush()
					if _, err := q.Finish(); err != nil {
						t.Fatal(err)
					}
					want := batchRows(t, db, tree)
					if len(want) == 0 {
						t.Fatal("empty batch result; fixture too weak")
					}
					sameSequence(t, name, q.Deltas(), want)
					if !semi {
						// Join deltas carry left columns then right columns.
						if arity := len(q.Deltas()[0]); arity != 6 {
							t.Fatalf("join delta arity = %d, want 6", arity)
						}
					}
				})
			}
		}
	}
}

// TestAdmissionDegradeAndDecline: an unbounded characterization (before-join
// retains every left tuple forever) is declined outright, or degraded to
// batch re-execution whose accumulated deltas equal the engine's result.
func TestAdmissionDegradeAndDecline(t *testing.T) {
	db := newXYDB(t)
	m := NewManager(db, obs.NewRegistry(), engine.Options{})
	defer m.Close()
	tree := xyTree(algebra.KindBefore, false)

	if _, err := m.Register("strict", tree, RegisterOptions{AllowDegrade: false}); err == nil {
		t.Fatal("unbounded query admitted with AllowDegrade=false")
	} else {
		var de *DeclinedError
		if !errors.As(err, &de) {
			t.Fatalf("err = %T %v, want *DeclinedError", err, err)
		}
		if de.Reason == "" {
			t.Fatal("declined without a reason")
		}
	}

	q, err := m.Register("degraded", tree, RegisterOptions{AllowDegrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode() != ModeBatch {
		t.Fatalf("mode = %v, want batch", q.Mode())
	}
	if q.Suspended() != "batch" {
		t.Fatalf("suspended = %q, want batch", q.Suspended())
	}
	for i := 0; i < 40; i++ {
		from := interval.Time(5 * i)
		if err := m.Append("X", xrow(i, from, from+3)); err != nil {
			t.Fatal(err)
		}
		if err := m.Append("Y", xrow(100+i, from+1, from+4)); err != nil {
			t.Fatal(err)
		}
		if i%13 == 0 {
			if _, err := q.Poll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Flush()
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	res, _, err := engine.Run(db, tree, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty engine result; fixture too weak")
	}
	sameMultiset(t, "batch deltas vs engine.Run", q.Deltas(), res.Rows)
}

// TestTableReorderAndFlush: the slack window reorders bounded disorder into
// released ValidFrom order; Flush drains the buffer and publishes stats.
func TestTableReorderAndFlush(t *testing.T) {
	db := newXYDB(t)
	m := NewManager(db, obs.NewRegistry(), engine.Options{})
	defer m.Close()
	tab, err := m.Live("X", 10)
	if err != nil {
		t.Fatal(err)
	}
	order := []interval.Time{5, 2, 9, 7, 14, 11, 20, 16}
	for i, from := range order {
		if err := tab.Append(xrow(i, from, from+4)); err != nil {
			t.Fatalf("append ts=%d: %v", from, err)
		}
	}
	if tab.Buffered() == 0 {
		t.Fatal("expected rows held in the reorder buffer")
	}
	tab.Flush()
	if tab.Buffered() != 0 {
		t.Fatalf("buffered = %d after flush", tab.Buffered())
	}
	if tab.Released() != int64(len(order)) {
		t.Fatalf("released = %d, want %d", tab.Released(), len(order))
	}
	rel, err := db.Relation("X")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rel.Rows); i++ {
		if rel.Span(i-1).Start > rel.Span(i).Start {
			t.Fatalf("released rows out of ValidFrom order at %d", i)
		}
	}
	if s := db.Stats("X"); s == nil || s.Cardinality != len(order) {
		t.Fatalf("stats after flush = %+v", s)
	}
	// Idempotent Live keeps the existing table.
	again, err := m.Live("X", 99)
	if err != nil || again != tab {
		t.Fatalf("Live not idempotent: %v %v", again, err)
	}
	// Non-temporal relations cannot go live.
	db.MustRegister(relation.New("Flat", relation.MustSchema(
		[]relation.Column{{Name: "A", Kind: value.KindInt}}, -1, -1)))
	if _, err := m.Live("Flat", 0); err == nil {
		t.Fatal("non-temporal relation went live")
	}
}

// A row that fails the schema's row check — ValidFrom ≥ ValidTo, a wrong
// kind or arity — is refused at Table.Append and never buffered, and
// DB.Append refuses it too, so no write path stores a row a later
// catalog build would reject.
func TestAppendRejectsInvalidRows(t *testing.T) {
	db := newXYDB(t)
	m := NewManager(db, obs.NewRegistry(), engine.Options{})
	defer m.Close()
	tab, err := m.Live("X", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []relation.Row{
		xrow(1, 9000, 8000),
		xrow(2, 7, 7),
		{value.String_("x"), value.TimeVal(1), value.TimeVal(2)},
		{value.Int(3), value.TimeVal(1)},
	} {
		if err := tab.Append(row); err == nil {
			t.Errorf("Table.Append accepted %v", row)
		}
		if err := db.Append("Y", row); err == nil {
			t.Errorf("DB.Append accepted %v", row)
		}
	}
	if tab.Buffered() != 0 {
		t.Fatalf("%d invalid rows buffered", tab.Buffered())
	}
	tab.Flush()
	if rel, _ := db.Relation("X"); rel.Cardinality() != 0 {
		t.Fatalf("invalid rows released: %v", rel.Rows)
	}
}

// TestRegisterBackfillAndDeregister: rows present before registration are
// backfilled so deltas still converge to the batch result; duplicate names
// are rejected; deregistered queries stop cleanly.
func TestRegisterBackfillAndDeregister(t *testing.T) {
	db := newXYDB(t)
	m := NewManager(db, nil, engine.Options{})
	defer m.Close()
	// Pre-registration contents, deliberately appended out of TS order
	// directly into the relation (backfill must sort them).
	relX, err := db.Relation("X")
	if err != nil {
		t.Fatal(err)
	}
	relX.Rows = append(relX.Rows, xrow(1, 10, 20), xrow(0, 0, 30))
	relY, err := db.Relation("Y")
	if err != nil {
		t.Fatal(err)
	}
	relY.Rows = append(relY.Rows, xrow(9, 5, 15))

	tree := xyTree(algebra.KindContain, true) // X contains Y spans
	q, err := m.Register("q", tree, RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register("q", tree, RegisterOptions{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := m.Append("X", xrow(2, 12, 40)); err != nil {
		t.Fatal(err)
	}
	if err := m.Append("Y", xrow(10, 14, 25)); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	want := batchRows(t, db, tree)
	if len(want) == 0 {
		t.Fatal("empty batch result; fixture too weak")
	}
	sameSequence(t, "backfilled deltas", q.Deltas(), want)

	if err := m.Deregister("q"); err != nil {
		t.Fatal(err)
	}
	if m.Query("q") != nil {
		t.Fatal("query still registered after Deregister")
	}
	if err := m.Deregister("q"); err == nil {
		t.Fatal("double deregister accepted")
	}
}
