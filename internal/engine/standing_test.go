package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/catalog"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/testutil"
	"tdb/internal/value"
)

func standingSchema() *relation.Schema {
	return relation.MustSchema([]relation.Column{
		{Name: "Id", Kind: value.KindInt},
		{Name: "ValidFrom", Kind: value.KindTime},
		{Name: "ValidTo", Kind: value.KindTime},
	}, 1, 2)
}

func standingDB(t *testing.T) *DB {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	db := NewDB()
	db.MustRegister(relation.New("A", standingSchema()))
	db.MustRegister(relation.New("B", standingSchema()))
	return db
}

func standingSpan(v string) algebra.SpanRef {
	return algebra.SpanRef{
		TS: algebra.ColRef{Var: v, Col: "ValidFrom"},
		TE: algebra.ColRef{Var: v, Col: "ValidTo"},
	}
}

// TestBuildStandingRejectsShapes: every shape constraint of the standing
// plan extractor fails with ErrUnsupportedStanding (so the live manager can
// degrade), never with a silent wrong plan.
func TestBuildStandingRejectsShapes(t *testing.T) {
	db := standingDB(t)
	scanA := func() algebra.Expr { return &algebra.Scan{Relation: "A"} }
	scanB := func() algebra.Expr { return &algebra.Scan{Relation: "B"} }
	join := func(kind algebra.TemporalKind) *algebra.Join {
		return &algebra.Join{L: scanA(), R: scanB(), Kind: kind,
			LSpan: standingSpan("A"), RSpan: standingSpan("B")}
	}
	cases := []struct {
		name string
		tree algebra.Expr
	}{
		{"distinct projection", &algebra.Project{
			Input: join(algebra.KindOverlap), Distinct: true,
			Cols:   []algebra.Output{{Name: "Id", From: algebra.ColRef{Var: "A", Col: "Id"}}},
			TSName: "", TEName: "",
		}},
		{"theta join", join(algebra.KindTheta)},
		{"self semijoin", &algebra.Semijoin{L: scanA(), R: scanA(), Self: true,
			Kind: algebra.KindOverlap, LSpan: standingSpan("A"), RSpan: standingSpan("A")}},
		{"residual predicate", &algebra.Join{L: scanA(), R: scanB(), Kind: algebra.KindOverlap,
			LSpan: standingSpan("A"), RSpan: standingSpan("B"),
			Pred: algebra.Predicate{Atoms: []algebra.Atom{{
				L: algebra.Column("A", "Id"), Op: algebra.EQ, R: algebra.Column("B", "Id")}}}}},
		{"non-scan side", &algebra.Join{L: &algebra.Product{L: scanA(), R: scanB()}, R: scanB(),
			Kind: algebra.KindOverlap, LSpan: standingSpan("A"), RSpan: standingSpan("B")}},
		{"span not on ValidFrom", &algebra.Join{L: scanA(), R: scanB(), Kind: algebra.KindOverlap,
			LSpan: algebra.SpanRef{
				TS: algebra.ColRef{Var: "A", Col: "ValidTo"},
				TE: algebra.ColRef{Var: "A", Col: "ValidFrom"}},
			RSpan: standingSpan("B")}},
		{"bare select root", &algebra.Select{Input: scanA()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildStanding(db, tc.tree)
			var ue *ErrUnsupportedStanding
			if !errors.As(err, &ue) {
				t.Fatalf("err = %v, want *ErrUnsupportedStanding", err)
			}
			if ue.Reason == "" {
				t.Fatal("unsupported without a reason")
			}
		})
	}
}

// TestBuildStandingPushesSideSelect: σ over a scan becomes a side filter
// applied at feed time, and the projection is applied per delta.
func TestBuildStandingPushesSideSelect(t *testing.T) {
	db := standingDB(t)
	tree := &algebra.Project{
		Input: &algebra.Semijoin{
			L: &algebra.Select{Input: &algebra.Scan{Relation: "A"},
				Pred: algebra.Predicate{Atoms: []algebra.Atom{{
					L: algebra.Column("A", "Id"), Op: algebra.EQ,
					R: algebra.Const(value.Int(1))}}}},
			R:    &algebra.Scan{Relation: "B"},
			Kind: algebra.KindOverlap,
			LSpan: algebra.SpanRef{TS: algebra.ColRef{Var: "A", Col: "ValidFrom"},
				TE: algebra.ColRef{Var: "A", Col: "ValidTo"}},
			RSpan: algebra.SpanRef{TS: algebra.ColRef{Var: "B", Col: "ValidFrom"},
				TE: algebra.ColRef{Var: "B", Col: "ValidTo"}},
		},
		Cols:   []algebra.Output{{Name: "Id", From: algebra.ColRef{Var: "A", Col: "Id"}}},
		TSName: "", TEName: "",
	}
	plan, err := BuildStanding(db, tree)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Semijoin || plan.LeftRel != "A" || plan.RightRel != "B" {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Schema().Arity() != 1 {
		t.Fatalf("projected arity = %d, want 1", plan.Schema().Arity())
	}
	run := plan.Start(nil)
	mk := func(id int, from, to interval.Time) relation.Row {
		return relation.Row{value.Int(int64(id)), value.TimeVal(from), value.TimeVal(to)}
	}
	run.FeedLeft([]relation.Row{mk(1, 0, 10), mk(2, 1, 11)}) // Id=2 filtered out
	run.FeedRight([]relation.Row{mk(7, 2, 5)})
	rows, err := run.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 || !rows[0][0].Equal(value.Int(1)) {
		t.Fatalf("deltas = %v, want one projected Id=1 row", rows)
	}
}

// TestDBAppendIncrementalStats: appends fold catalog statistics forward
// without a rescan, publishing every statsPubEvery rows and on demand.
func TestDBAppendIncrementalStats(t *testing.T) {
	const statsPubEvery = 64
	db := standingDB(t)
	mk := func(id int, from, to interval.Time) relation.Row {
		return relation.Row{value.Int(int64(id)), value.TimeVal(from), value.TimeVal(to)}
	}
	for i := 0; i < statsPubEvery-1; i++ {
		if err := db.Append("A", mk(i, interval.Time(i), interval.Time(i+3))); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.Stats("A"); s != nil && s.Cardinality != 0 {
		t.Fatalf("stats published early: %+v", s)
	}
	if err := db.Append("A", mk(99, interval.Time(99), interval.Time(102))); err != nil {
		t.Fatal(err)
	}
	s := db.Stats("A")
	if s == nil || s.Cardinality != statsPubEvery {
		t.Fatalf("stats after %d appends = %+v", statsPubEvery, s)
	}
	if err := db.Append("A", mk(100, 100, 103)); err != nil {
		t.Fatal(err)
	}
	db.RefreshStats("A")
	if s := db.Stats("A"); s == nil || s.Cardinality != statsPubEvery+1 {
		t.Fatalf("stats after refresh = %+v", s)
	}
	if db.ActiveSpans("A") <= 0 {
		t.Fatal("no active spans at the append frontier")
	}
	// Arity violations and unknown relations are rejected.
	if err := db.Append("A", relation.Row{value.Int(1)}); err == nil {
		t.Fatal("short row appended")
	}
	if err := db.Append("Nope", mk(1, 0, 1)); err == nil {
		t.Fatal("append to unknown relation accepted")
	}
}

// registerSpans registers X over the lifespans, in the order given.
func registerSpans(t *testing.T, db *DB, spans []interval.Interval) {
	t.Helper()
	rel := relation.New("X", standingSchema())
	for i, iv := range spans {
		rel.Rows = append(rel.Rows, relation.Row{value.Int(int64(i)), value.TimeVal(iv.Start), value.TimeVal(iv.End)})
	}
	db.MustRegister(rel)
}

// A relation registered out of ValidFrom order keeps exact statistics once
// it is appended to: the catalog folds the registered rows in ValidFrom
// order, not in the order they are stored, so MaxConcurrency — and with it
// the Tables 1–3 ceilings — is neither inflated nor lowered.
func TestAppendStatsExactAfterUnorderedRegister(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []interval.Interval
	}{
		{"inflated", []interval.Interval{interval.New(10, 20), interval.New(0, 30), interval.New(12, 14), interval.New(1, 11)}},
		{"lowered", []interval.Interval{interval.New(0, 10), interval.New(1, 10), interval.New(20, 30), interval.New(5, 25)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := NewDB()
			registerSpans(t, db, c.spans)
			if err := db.Append("X", relation.Row{value.Int(99), value.TimeVal(40), value.TimeVal(41)}); err != nil {
				t.Fatal(err)
			}
			db.RefreshStats("X")
			if got := db.Stats("X").MaxConcurrency; got != 3 {
				t.Fatalf("MaxConcurrency after an append = %d, want 3", got)
			}
		})
	}
}

// Statistics published after appends equal the statistics of all the rows
// at once, field for field, whatever order the registered rows came in:
// random spans registered shuffled, then rows appended in ValidFrom order
// from the registered maximum on.
func TestAppendStatsMatchFromSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		all := make([]interval.Interval, rng.Intn(40))
		var maxTS interval.Time
		for i := range all {
			ts := interval.Time(rng.Intn(50))
			all[i] = interval.New(ts, ts+1+interval.Time(rng.Intn(15)))
			maxTS = max(maxTS, ts)
		}
		db := NewDB()
		registerSpans(t, db, all)
		ts := maxTS
		for i, n := 0, rng.Intn(150); i < n; i++ {
			ts += interval.Time(rng.Intn(3))
			iv := interval.New(ts, ts+1+interval.Time(rng.Intn(15)))
			if err := db.Append("X", relation.Row{value.Int(int64(i)), value.TimeVal(iv.Start), value.TimeVal(iv.End)}); err != nil {
				t.Fatal(err)
			}
			all = append(all, iv)
		}
		db.RefreshStats("X")
		if got, want := db.Stats("X"), catalog.FromSpans(all); *got != *want {
			t.Fatalf("trial %d: published %v, want %v", trial, got, want)
		}
	}
}

// A standing join cuts its rows from a slab: every delta row, projected or
// not, has exactly its arity as capacity, so appending to one never writes
// into the next, and the rows are the batch engine's answer. The input is
// large enough that the rows span several slabs.
func TestStandingJoinRowsFromSlab(t *testing.T) {
	const n = 600
	var rows []relation.Row
	for i := 0; i < n; i++ {
		ts := interval.Time(i)
		rows = append(rows, relation.Row{value.Int(int64(i)), value.TimeVal(ts), value.TimeVal(ts + 1 + interval.Time(i%31))})
	}
	for _, kind := range []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap} {
		for _, project := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/project=%v", kind, project), func(t *testing.T) {
				db := standingDB(t)
				a, _ := db.Relation("A")
				b, _ := db.Relation("B")
				a.Rows, b.Rows = rows, rows
				var tree algebra.Expr = &algebra.Join{L: &algebra.Scan{Relation: "A"}, R: &algebra.Scan{Relation: "B"},
					Kind: kind, LSpan: standingSpan("A"), RSpan: standingSpan("B")}
				if project {
					tree = &algebra.Project{Input: tree, Cols: []algebra.Output{
						{Name: "BId", From: algebra.ColRef{Var: "B", Col: "Id"}},
						{Name: "AId", From: algebra.ColRef{Var: "A", Col: "Id"}},
						{Name: "ATo", From: algebra.ColRef{Var: "A", Col: "ValidTo"}},
						{Name: "BFrom", From: algebra.ColRef{Var: "B", Col: "ValidFrom"}},
					}}
				}
				plan, err := BuildStanding(db, tree)
				if err != nil {
					t.Fatal(err)
				}
				run := plan.Start(nil)
				run.FeedLeft(rows[:n/2])
				run.FeedRight(rows[:n/3])
				polled, err := run.Poll()
				if err != nil {
					t.Fatal(err)
				}
				got := append([]relation.Row(nil), polled...)
				run.FeedLeft(rows[n/2:])
				run.FeedRight(rows[n/3:])
				rest, err := run.Close()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, rest...)
				width := plan.Schema().Arity()
				if len(got)*width < 2*slabCells {
					t.Fatalf("%d rows of %d cells fill fewer than two slabs", len(got), width)
				}
				keys := make([]string, len(got))
				for i, row := range got {
					if len(row) != width || cap(row) != width {
						t.Fatalf("row %d: len %d cap %d, want both %d", i, len(row), cap(row), width)
					}
					keys[i] = row.Key()
				}
				for i, row := range got {
					_ = append(row, value.Int(-1))
					if i+1 < len(got) && got[i+1].Key() != keys[i+1] {
						t.Fatalf("appending to row %d changed row %d", i, i+1)
					}
				}
				want, _, err := Run(db, tree, Options{})
				if err != nil {
					t.Fatal(err)
				}
				wantKeys := make([]string, len(want.Rows))
				for i, row := range want.Rows {
					wantKeys[i] = row.Key()
				}
				sort.Strings(keys)
				sort.Strings(wantKeys)
				if !slices.Equal(keys, wantKeys) {
					t.Fatalf("standing run emitted %d rows, batch engine %d, or different rows", len(keys), len(wantKeys))
				}
			})
		}
	}
}
