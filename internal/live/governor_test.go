package live

import (
	"errors"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// governedManager registers X/Y while empty — the catalog keeps the
// registration-time (zero) statistics until a trip refreshes them, which is
// exactly the staleness the breaker is built to catch.
func governedManager(t *testing.T, opts RegisterOptions) (*Manager, *StandingQuery, *obs.Registry) {
	t.Helper()
	db := newXYDB(t)
	reg := obs.NewRegistry()
	mgr := NewManager(db, reg, engine.Options{})
	t.Cleanup(mgr.Close)
	for _, n := range []string{"X", "Y"} {
		if _, err := mgr.Live(n, 0); err != nil {
			t.Fatal(err)
		}
	}
	q, err := mgr.Register("gov", xyTree(algebra.KindOverlap, false), opts)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, q, reg
}

// appendOverlapping ingests n rows per relation, ValidFrom strictly
// increasing from *next, all ending at 1000 — every lifespan overlaps every
// other, so the true concurrency is the full row count while the catalog
// (refreshed only on trips; row counts stay under the auto-publish
// threshold) lags behind.
func appendOverlapping(t *testing.T, mgr *Manager, next *int, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ts := interval.Time(*next)
		if err := mgr.Append("X", xrow(*next, ts, 1000)); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Append("Y", xrow(10000+*next, ts, 1000)); err != nil {
			t.Fatal(err)
		}
		*next++
	}
}

// First trip: stale-zero statistics make the bound 2, the measured
// workspace breaches it, and the breaker re-admits the query in place
// under refreshed statistics — the delta contract must hold across the
// trip, and the delta sequence must be an ungoverned twin's on the same
// input.
func TestBreakerTripsAndReadmits(t *testing.T) {
	mgr, q, reg := governedManager(t, RegisterOptions{Govern: true})
	twin, err := mgr.Register("twin", xyTree(algebra.KindOverlap, false), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	appendOverlapping(t, mgr, &next, 6)
	if _, err := q.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if q.Trips() != 1 {
		t.Fatalf("trips %d, want 1 (bound 2 vs overlapping workspace)", q.Trips())
	}
	if q.Mode() != ModeIncremental {
		t.Fatalf("mode %v, want incremental after re-admission", q.Mode())
	}
	if got := reg.Counter("tdb_governor_fallbacks_total", "").Value(); got != 1 {
		t.Fatalf("tdb_governor_fallbacks_total = %d, want 1", got)
	}
	// More input after the trip; the deltas must still be the
	// byte-identical prefix of a batch run.
	appendOverlapping(t, mgr, &next, 2)
	if _, err := q.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if _, err := twin.Finish(); err != nil {
		t.Fatalf("twin finish: %v", err)
	}
	sameSequence(t, "governed vs ungoverned twin", q.Deltas(), twin.Deltas())
	if q.DeltaHash() != twin.DeltaHash() {
		t.Fatalf("delta hash %x, ungoverned twin %x", q.DeltaHash(), twin.DeltaHash())
	}
	want := batchRows(t, mgr.DB(), xyTree(algebra.KindOverlap, false))
	got := q.Deltas()
	if len(got) != len(want) {
		t.Fatalf("deltas %d, batch %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("delta %d diverges after re-admission", i)
		}
	}
	if q.Bound() <= 2 {
		t.Fatalf("bound %f still stale after trip refreshed statistics", q.Bound())
	}
}

// escalate drives repeated drift rounds until the breaker exhausts its
// re-admissions (trips > breakerMaxTrips) and takes the terminal rung.
func escalate(t *testing.T, mgr *Manager, q *StandingQuery) {
	t.Helper()
	next := 0
	for _, n := range []int{6, 12, 30} {
		appendOverlapping(t, mgr, &next, n)
		if _, err := q.Poll(); err != nil {
			if q.Broken() == nil {
				t.Fatalf("poll: %v", err)
			}
			return // terminal decline surfaced mid-escalation
		}
	}
}

// Re-admissions exhausted with degradation allowed: the query drops to
// batch mode seeded with the emitted multiset, and keeps answering polls
// with the correct (multiset) deltas.
func TestBreakerDegradesToBatch(t *testing.T) {
	mgr, q, reg := governedManager(t, RegisterOptions{Govern: true, AllowDegrade: true})
	escalate(t, mgr, q)
	if q.Mode() != ModeBatch {
		t.Fatalf("mode %v after %d trips, want batch", q.Mode(), q.Trips())
	}
	if q.Trips() != breakerMaxTrips+1 {
		t.Fatalf("trips %d, want %d", q.Trips(), breakerMaxTrips+1)
	}
	if got := reg.Counter("tdb_governor_fallbacks_total", "").Value(); got != int64(q.Trips()) {
		t.Fatalf("counter %d, want %d", got, q.Trips())
	}
	// Batch mode must still satisfy its (multiset) delta contract.
	if _, _, err := q.Verify(); err != nil {
		t.Fatalf("degraded verify: %v", err)
	}
	if q.Suspended() != "batch" {
		t.Fatalf("suspended %q, want batch", q.Suspended())
	}
}

// Re-admissions exhausted with degradation disallowed: the breaker opens.
// Polls return the typed ErrBreakerOpen, ingestion keeps flowing, and the
// query reports itself broken.
func TestBreakerDeclines(t *testing.T) {
	mgr, q, _ := governedManager(t, RegisterOptions{Govern: true})
	escalate(t, mgr, q)
	if q.Broken() == nil {
		t.Fatalf("breaker never opened (trips %d, mode %v)", q.Trips(), q.Mode())
	}
	if _, err := q.Poll(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("poll error %v, want ErrBreakerOpen", err)
	}
	if _, err := q.Finish(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("finish error %v, want ErrBreakerOpen", err)
	}
	if q.Suspended() != "broken" {
		t.Fatalf("suspended %q, want broken", q.Suspended())
	}
	// A declined query must not fail ingestion.
	if err := mgr.Append("X", xrow(9999, 999, 1001)); err != nil {
		t.Fatalf("append after decline: %v", err)
	}
}

// An ungoverned query never trips, whatever the drift.
func TestUngovernedNeverTrips(t *testing.T) {
	mgr, q, reg := governedManager(t, RegisterOptions{})
	next := 0
	appendOverlapping(t, mgr, &next, 20)
	if _, err := q.Poll(); err != nil {
		t.Fatal(err)
	}
	if q.Trips() != 0 {
		t.Fatalf("ungoverned query tripped %d times", q.Trips())
	}
	if got := reg.Counter("tdb_governor_fallbacks_total", "").Value(); got != 0 {
		t.Fatalf("counter %d, want 0", got)
	}
}

// Folding a delta into the delta hash reuses the query's key buffer: no
// allocation per delta once the buffer has grown to the row's key size.
func TestDeltaHashFoldDoesNotAllocate(t *testing.T) {
	row := relation.Row{value.String_("ada"), value.String_("cs"), value.String_("x"), value.String_("y"),
		value.TimeVal(1), value.TimeVal(2), value.TimeVal(3), value.TimeVal(interval.Forever)}
	q := &StandingQuery{}
	h := q.foldDelta(fnv1aInit, row)
	if n := testing.AllocsPerRun(100, func() { h = q.foldDelta(h, row) }); n != 0 {
		t.Errorf("foldDelta allocates %.0f times per delta, want 0", n)
	}
}
