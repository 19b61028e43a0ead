package engine

import (
	"fmt"
	"strings"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/baseline"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// governorDB builds a database whose catalog statistics are deliberately
// stale-low: each relation is registered (and analyzed) with a handful of
// disjoint lifespans, then grown by direct row insertion — bypassing
// Append's incremental statistics — with extra tuples that all span one
// common window, driving the true lifespan concurrency far above what the
// catalog predicts. This is the statistics-drift scenario the workspace
// governor exists to catch.
func governorDB(t *testing.T, drifted int) *DB {
	t.Helper()
	db := NewDB()
	row := func(id int, from, to interval.Time) relation.Row {
		return relation.Row{value.Int(int64(id)), value.TimeVal(from), value.TimeVal(to)}
	}
	for ri, name := range []string{"A", "B"} {
		rel := relation.New(name, standingSchema())
		for i := 0; i < 4; i++ {
			// Disjoint seed spans: analyzed MaxConcurrency stays 1.
			s := interval.Time(i * 10)
			rel.MustInsert(row(ri*1000+i, s, s+3))
		}
		if err := db.Register(rel); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < drifted; i++ {
			// All drifted spans cover [100, 200): concurrency = drifted.
			rel.Rows = append(rel.Rows, row(ri*1000+100+i, 100+interval.Time(i%7), 200+interval.Time(i%5)))
		}
	}
	return db
}

func governorJoin(kind algebra.TemporalKind) algebra.Expr {
	return &algebra.Join{
		L: &algebra.Scan{Relation: "A", As: "a"}, R: &algebra.Scan{Relation: "B", As: "b"},
		Kind: kind, LSpan: standingSpan("a"), RSpan: standingSpan("b"),
	}
}

func findNote(st *Stats, substr string) string {
	for _, n := range st.Nodes {
		for _, note := range n.Notes {
			if strings.Contains(note, substr) {
				return note
			}
		}
	}
	return ""
}

// A drifted workload breaches the stale catalog ceiling; the governed run
// degrades to the baseline sort-merge, emits the explain notes, bumps the
// fallback counter — and still produces exactly the rows the ungoverned
// stream path produces, in the baseline band-scan order.
func TestGovernorFallbackOnDrift(t *testing.T) {
	for _, kind := range []algebra.TemporalKind{algebra.KindOverlap, algebra.KindContain, algebra.KindContained} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			db := governorDB(t, 40)
			reg := obs.NewRegistry()
			res, st, err := Run(db, governorJoin(kind), Options{GovernWorkspace: true, Registry: reg})
			if err != nil {
				t.Fatalf("governed run: %v", err)
			}
			if note := findNote(st, "degraded to baseline sort-merge"); note == "" {
				t.Fatalf("no degradation note; notes: %+v", st.Nodes)
			}
			if got := reg.Counter("tdb_governor_fallbacks_total", "").Value(); got != 1 {
				t.Fatalf("tdb_governor_fallbacks_total = %d, want 1", got)
			}
			algo := ""
			for _, n := range st.Nodes {
				if strings.Contains(n.Algorithm, "baseline sort-merge (governed)") {
					algo = n.Algorithm
				}
			}
			if algo == "" {
				t.Fatal("no node records the governed fallback algorithm")
			}

			// Same rows as the ungoverned stream path (order may differ).
			plain, _, err := Run(db, governorJoin(kind), Options{})
			if err != nil {
				t.Fatalf("ungoverned run: %v", err)
			}
			sameRows(t, "governed vs stream", res, plain)

			// Byte-identical to the baseline path: re-deriving the output by
			// invoking the band scan directly reproduces the governed rows
			// in exactly the same order.
			want := baselineOracle(t, db, kind)
			if len(want) != len(res.Rows) {
				t.Fatalf("governed %d rows, baseline %d", len(res.Rows), len(want))
			}
			for i := range want {
				if res.Rows[i].Key() != want[i].Key() {
					t.Fatalf("row %d differs from baseline path:\n got %v\nwant %v", i, res.Rows[i], want[i])
				}
			}
		})
	}
}

// baselineOracle evaluates the governed join by calling the baseline band
// scan directly over the database contents — the reference output the
// governed fallback must match byte for byte.
func baselineOracle(t *testing.T, db *DB, kind algebra.TemporalKind) []relation.Row {
	t.Helper()
	spanOf := func(name string) ([]liveRow, *relation.Schema) {
		rel, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]liveRow, len(rel.Rows))
		for i, r := range rel.Rows {
			w[i] = liveRow{row: r, span: r.Span(rel.Schema)}
		}
		return w, rel.Schema
	}
	lw, _ := spanOf("A")
	rw, _ := spanOf("B")
	var theta func(x, y interval.Interval) bool
	switch kind {
	case algebra.KindContain:
		theta = func(x, y interval.Interval) bool { return x.ContainsInterval(y) }
	case algebra.KindContained:
		theta = func(x, y interval.Interval) bool { return y.ContainsInterval(x) }
	default:
		theta = func(x, y interval.Interval) bool { return x.Intersects(y) }
	}
	var rows []relation.Row
	baseline.SortMergeJoin(lw, rw, liveRowSpan, theta, nil,
		func(a, b liveRow) { rows = append(rows, relation.ConcatRows(a.row, b.row)) })
	return rows
}

// With accurate statistics the governed run takes the stream path: the
// ceiling note is present, no fallback fires, and the output is untouched.
func TestGovernorQuiescentUnderAccurateStats(t *testing.T) {
	db := governorDB(t, 40)
	// Publish accurate statistics the way live ingestion would.
	for _, name := range []string{"A", "B"} {
		rel, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.cat.Analyze(rel); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	res, st, err := Run(db, governorJoin(algebra.KindOverlap), Options{GovernWorkspace: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if note := findNote(st, "workspace ceiling"); note == "" {
		t.Fatal("governed run should record its admission ceiling note")
	}
	if note := findNote(st, "degraded"); note != "" {
		t.Fatalf("unexpected degradation with accurate stats: %s", note)
	}
	if got := reg.Counter("tdb_governor_fallbacks_total", "").Value(); got != 0 {
		t.Fatalf("fallback counter %d, want 0", got)
	}
	plain, _, err := Run(db, governorJoin(algebra.KindOverlap), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(plain.Rows) {
		t.Fatalf("governed %d rows, plain %d", len(res.Rows), len(plain.Rows))
	}
	for i := range plain.Rows {
		if res.Rows[i].Key() != plain.Rows[i].Key() {
			t.Fatalf("row %d: governed output diverges from stream path", i)
		}
	}
}

// Derived inputs (a join under a join) and unbounded kinds run ungoverned,
// each leaving an explanatory note instead of a silent skip.
func TestGovernorUngovernedNotes(t *testing.T) {
	db := governorDB(t, 0)
	inner := governorJoin(algebra.KindOverlap).(*algebra.Join)
	outer := &algebra.Join{
		L: inner, R: &algebra.Scan{Relation: "B", As: "c"},
		Kind: algebra.KindOverlap,
		LSpan: algebra.SpanRef{
			TS: algebra.ColRef{Var: "a", Col: "ValidFrom"},
			TE: algebra.ColRef{Var: "a", Col: "ValidTo"}},
		RSpan: standingSpan("c"),
	}
	_, st, err := Run(db, outer, Options{GovernWorkspace: true})
	if err != nil {
		t.Fatal(err)
	}
	if note := findNote(st, "derived input"); note == "" {
		t.Fatal("derived-input join should note it runs ungoverned")
	}

	_, st, err = Run(db, governorJoin(algebra.KindBefore), Options{GovernWorkspace: true})
	if err != nil {
		t.Fatal(err)
	}
	if note := findNote(st, "ungoverned"); note == "" {
		t.Fatal("before-join (unbounded entry) should note it runs ungoverned")
	}
}
