package live

import (
	"fmt"
	"runtime"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// A poll's result is the query's own copy of its deltas, and a Deltas()
// slice is never written by a later poll: both keep their contents while
// the query goes on polling and finishes.
func TestPollResultsAndDeltasStable(t *testing.T) {
	db := newXYDB(t)
	mgr := NewManager(db, obs.NewRegistry(), engine.Options{})
	t.Cleanup(mgr.Close)
	q, err := mgr.Register("q", xyTree(algebra.KindOverlap, false), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	var polls [][]relation.Row // every poll's result, as returned
	var keys [][]string        // its keys when returned
	var snaps [][]relation.Row // a Deltas() slice after every poll
	var snapKeys [][]string
	for _, n := range []int{5, 1, 7, 3} {
		appendOverlapping(t, mgr, &next, n)
		rows, err := q.Poll()
		if err != nil {
			t.Fatal(err)
		}
		polls, keys = append(polls, rows), append(keys, keysOf(rows))
		d := q.Deltas()
		snaps, snapKeys = append(snaps, d), append(snapKeys, keysOf(d))
	}
	appendOverlapping(t, mgr, &next, 2)
	rows, err := q.Finish()
	if err != nil {
		t.Fatal(err)
	}
	polls, keys = append(polls, rows), append(keys, keysOf(rows))
	var all []relation.Row
	for i, rows := range polls {
		if len(rows) == 0 {
			t.Fatalf("poll %d emitted nothing; every round overlaps", i)
		}
		sameKeys(t, fmt.Sprintf("poll %d result after later polls", i), keysOf(rows), keys[i])
		all = append(all, rows...)
	}
	for i, d := range snaps {
		sameKeys(t, fmt.Sprintf("Deltas() after poll %d", i), keysOf(d), snapKeys[i])
		sameSequence(t, fmt.Sprintf("Deltas() after poll %d vs the polls' prefix", i), d, all[:len(d)])
	}
	sameSequence(t, "Deltas() vs the polls", q.Deltas(), all)
	sameSequence(t, "Deltas() vs batch", q.Deltas(), batchRows(t, db, xyTree(algebra.KindOverlap, false)))
}

func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d changed to %s from %s", what, i, got[i], want[i])
		}
	}
}

// Emitted is len(Deltas()) at every point: across incremental polls, a
// governor degrade to batch re-execution, batch polls and Finish.
func TestEmittedMatchesDeltas(t *testing.T) {
	mgr, q, _ := governedManager(t, RegisterOptions{Govern: true, AllowDegrade: true})
	check := func(when string) {
		t.Helper()
		if got, want := q.Emitted(), len(q.Deltas()); got != want {
			t.Fatalf("%s: Emitted() = %d, len(Deltas()) = %d", when, got, want)
		}
	}
	check("before any poll")
	next := 0
	for i, n := range []int{6, 12, 30, 4} {
		appendOverlapping(t, mgr, &next, n)
		if _, err := q.Poll(); err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		check(fmt.Sprintf("after poll %d (%v, %d trips)", i, q.Mode(), q.Trips()))
	}
	if q.Mode() != ModeBatch {
		t.Fatalf("mode %v after %d trips, want batch", q.Mode(), q.Trips())
	}
	appendOverlapping(t, mgr, &next, 3)
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	check("after Finish")
	if q.Emitted() == 0 {
		t.Fatal("no deltas emitted")
	}
	if _, _, err := q.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	check("after Verify")
}

// overlapJoinInput returns n rows for each of X and Y, ValidFrom 0 to n-1,
// each lasting width chronons: every X row overlaps 2·width+1 Y rows.
func overlapJoinInput(n int) (xs, ys []relation.Row) {
	const width = 20
	for i := 0; i < n; i++ {
		ts := interval.Time(i)
		xs = append(xs, relation.Row{value.String_(fmt.Sprintf("x%d", i)), value.String_("a"), value.TimeVal(ts), value.TimeVal(ts + width)})
		ys = append(ys, relation.Row{value.String_(fmt.Sprintf("y%d", i)), value.String_("b"), value.TimeVal(ts), value.TimeVal(ts + width)})
	}
	return xs, ys
}

// driveOverlapJoin registers an incremental 8-cell overlap join over two
// fresh live tables, appends xs and ys pairwise, polling every 64 appends,
// finishes it and reads its Deltas(). It returns the heap bytes allocated
// from the first append on, and the delta count.
func driveOverlapJoin(tb testing.TB, xs, ys []relation.Row) (uint64, int) {
	tb.Helper()
	const every = 64
	db := engine.NewDB()
	db.MustRegister(relation.New("X", relation.TupleSchema))
	db.MustRegister(relation.New("Y", relation.TupleSchema))
	mgr := NewManager(db, nil, engine.Options{})
	defer mgr.Close()
	q, err := mgr.Register("probe", xyTree(algebra.KindOverlap, false), RegisterOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range xs {
		if err := mgr.Append("X", xs[i]); err != nil {
			tb.Fatal(err)
		}
		if err := mgr.Append("Y", ys[i]); err != nil {
			tb.Fatal(err)
		}
		if (2*i+2)%every == 0 {
			if _, err := q.Poll(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := mgr.Flush(); err != nil {
		tb.Fatal(err)
	}
	if _, err := q.Finish(); err != nil {
		tb.Fatal(err)
	}
	deltas := len(q.Deltas())
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, deltas
}

// deltaProbe drives the overlap join through 4096 + 4096 appends and
// returns the heap bytes per delta row, and the delta count.
func deltaProbe(t *testing.T) (float64, int) {
	t.Helper()
	xs, ys := overlapJoinInput(4096)
	bytes, deltas := driveOverlapJoin(t, xs, ys)
	return float64(bytes) / float64(deltas), deltas
}

// Each delta row's cells are written once, cut from the standing run's
// slab, and its header is copied once into the query's history: the whole
// standing path, ingestion and Deltas() included, stays at or under 200 B
// per 8-cell delta row (a row's cells alone are 128 B).
func TestStandingDeltaBytesPerRow(t *testing.T) {
	least := 0.0
	deltas := 0
	for i := 0; i < 3; i++ {
		b, n := deltaProbe(t)
		if i == 0 || b < least {
			least = b
		}
		deltas = n
	}
	t.Logf("%d deltas, %.1f B per delta row", deltas, least)
	if deltas < 100000 {
		t.Fatalf("probe emitted %d deltas, want a large join", deltas)
	}
	if least > 200 {
		t.Fatalf("%.1f B allocated per 8-cell delta row, want at most 200", least)
	}
}

// BenchmarkStandingOverlapJoinDeltas times the whole standing path per
// delta row (ingestion, the sweep, recording and the delta hash) on the
// overlap join of 2048 + 2048 appends, polled every 64.
func BenchmarkStandingOverlapJoinDeltas(b *testing.B) {
	xs, ys := overlapJoinInput(2048)
	var bytes uint64
	deltas := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, d := driveOverlapJoin(b, xs, ys)
		bytes += n
		deltas += d
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(deltas), "ns/delta")
	b.ReportMetric(float64(bytes)/float64(deltas), "B/delta")
}
