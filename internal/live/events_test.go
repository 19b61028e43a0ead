package live

import (
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/obs"
)

// TestBreakerTripEventJournaled: a governed trip journals a breaker-trip
// event whose outcome matches what the ladder actually did.
func TestBreakerTripEventJournaled(t *testing.T) {
	db := newXYDB(t)
	reg := obs.NewRegistry()
	events := obs.NewEventLog(16)
	mgr := NewManager(db, reg, engine.Options{Events: events})
	t.Cleanup(mgr.Close)
	for _, n := range []string{"X", "Y"} {
		if _, err := mgr.Live(n, 0); err != nil {
			t.Fatal(err)
		}
	}
	q, err := mgr.Register("gov", xyTree(algebra.KindOverlap, false), RegisterOptions{Govern: true})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	appendOverlapping(t, mgr, &next, 6)
	if _, err := q.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if q.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", q.Trips())
	}
	var trips []obs.Event
	for _, e := range events.Events() {
		if e.Kind == obs.EventBreakerTrip {
			trips = append(trips, e)
		}
	}
	if len(trips) != 1 {
		t.Fatalf("breaker-trip events = %d, want 1; journal %+v", len(trips), events.Events())
	}
	ev := trips[0]
	if ev.Query != "gov" || ev.Detail["outcome"] != "re-admit" {
		t.Errorf("trip event = %+v, want query gov outcome re-admit", ev)
	}
	if ev.Detail["trip"] == "" || ev.Detail["breach"] == "" {
		t.Errorf("trip event missing arithmetic: %+v", ev.Detail)
	}
}
