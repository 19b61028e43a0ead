package live

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/fault"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/relation"
)

// chaosShapes are the six standing-query shapes of the Tables 1–3
// characterization — contain/contained/overlap, each as join and semijoin.
// Names are chosen so sorted (delivery) order matches slice order.
var chaosShapes = []struct {
	name string
	kind algebra.TemporalKind
	semi bool
}{
	{"q0-contain-join", algebra.KindContain, false},
	{"q1-contained-join", algebra.KindContained, false},
	{"q2-overlap-join", algebra.KindOverlap, false},
	{"q3-contain-semi", algebra.KindContain, true},
	{"q4-contained-semi", algebra.KindContained, true},
	{"q5-overlap-semi", algebra.KindOverlap, true},
}

// chaosSchedule is the failpoint arsenal a chaos run draws from: ingestion
// faults, delivery faults and mid-operator aborts, each firing once per
// arming so every step's blast radius is deterministic under the seed.
var chaosSchedule = []string{
	"live/append=error:n=1",
	"live/deliver=error:n=1",
	"engine/standing-run=error:n=1",
}

// chaosTyped is the error acceptance predicate: a chaos run may fail, but
// only with a *typed* error the caller can dispatch on — an injected fault
// or a watermark rejection. Anything else is a robustness bug.
func chaosTyped(t *testing.T, step int, op string, err error) {
	t.Helper()
	if errors.Is(err, fault.ErrInjected) || errors.Is(err, ErrLateTuple) {
		return
	}
	t.Fatalf("step %d: %s failed with an untyped error: %v", step, op, err)
}

// delivered reports whether an append that returned err fed its row to
// q. At slack 0 an accepted append releases exactly its own row, and a
// delivery fault skips only the query its error names; any other error
// (an ingestion fault, a late tuple) rejected the row before release.
func delivered(err error, q *StandingQuery) bool {
	if err == nil {
		return true
	}
	msg := err.Error()
	return strings.HasPrefix(msg, "live: deliver to ") &&
		!strings.HasPrefix(msg, "live: deliver to "+q.Name()+":")
}

// replayDeltas re-runs a query's operator over exactly the released rows
// it was fed, per relation — the byte-identity reference. Faults may have
// dropped whole deliveries (the typed error told the caller so), but
// whatever input a query did receive must have produced exactly the
// deltas it emitted: complete rows in the canonical order, never a partial
// or reordered one.
func replayDeltas(t *testing.T, q *StandingQuery, fed map[string][]relation.Row) []relation.Row {
	t.Helper()
	run := q.plan.Start(nil)
	run.FeedLeft(fed[q.plan.LeftRel])
	run.FeedRight(fed[q.plan.RightRel])
	rows, err := run.Close()
	if err != nil {
		t.Fatalf("%s: fault-free replay of the delivered input failed: %v", q.name, err)
	}
	return rows
}

// TestChaosStandingShapes drives all six standing-query shapes through
// randomized (but seeded) fault schedules: every step may arm a failpoint,
// append in-order or deliberately late rows, and poll. The invariant is
// the issue's acceptance bar: every outcome is byte-identical output or a
// clean typed error — never a partial delta, and (via the fixture's leak
// check) never a leaked goroutine.
func TestChaosStandingShapes(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer fault.Reset()
			db := newXYDB(t)
			mgr := NewManager(db, obs.NewRegistry(), engine.Options{})
			t.Cleanup(mgr.Close)
			for _, n := range []string{"X", "Y"} {
				if _, err := mgr.Live(n, 0); err != nil {
					t.Fatal(err)
				}
			}
			qs := make([]*StandingQuery, len(chaosShapes))
			fed := make([]map[string][]relation.Row, len(chaosShapes)) // per query: the rows delivered to it
			for i, s := range chaosShapes {
				q, err := mgr.Register(s.name, xyTree(s.kind, s.semi), RegisterOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if q.Mode() != ModeIncremental {
					t.Fatalf("%s admitted as %v, want incremental", s.name, q.Mode())
				}
				qs[i] = q
				fed[i] = map[string][]relation.Row{}
			}

			rng := rand.New(rand.NewSource(seed))
			lastTS := map[string]int{"X": -1, "Y": -1}
			ts, id := 0, 0
			for step := 0; step < 60; step++ {
				if rng.Intn(4) == 0 {
					fault.Reset()
					if err := fault.Arm(chaosSchedule[rng.Intn(len(chaosSchedule))]); err != nil {
						t.Fatal(err)
					}
				}
				rel := []string{"X", "Y"}[rng.Intn(2)]
				var row relation.Row
				if lastTS[rel] >= 1 && rng.Intn(8) == 0 {
					// Deliberately behind the table's watermark.
					row = xrow(id, interval.Time(lastTS[rel]-1), interval.Time(lastTS[rel]+10))
				} else {
					ts += rng.Intn(3)
					row = xrow(id, interval.Time(ts), interval.Time(ts+1+rng.Intn(25)))
				}
				id++
				err := mgr.Append(rel, row)
				for i, q := range qs {
					if delivered(err, q) {
						fed[i][rel] = append(fed[i][rel], row)
					}
				}
				if err != nil {
					chaosTyped(t, step, "append to "+rel, err)
				} else if int(row.Span(xySchema()).Start) > lastTS[rel] {
					lastTS[rel] = int(row.Span(xySchema()).Start)
				}
				if rng.Intn(5) == 0 {
					for _, q := range qs {
						if _, err := q.Poll(); err != nil {
							chaosTyped(t, step, "poll "+q.Name(), err)
						}
					}
				}
			}
			fault.Reset()

			// Settle every query and hold the delta contract: a run the
			// faults killed reports its typed error and keeps the deltas it
			// had completed; a surviving run finishes clean. Either way the
			// accumulated deltas are a byte-identical prefix of the
			// fault-free replay of the delivered input.
			for i, q := range qs {
				ref := replayDeltas(t, q, fed[i])
				_, err := q.Finish()
				if err != nil {
					if !errors.Is(err, fault.ErrInjected) {
						t.Fatalf("%s: finish failed with an untyped error: %v", q.Name(), err)
					}
				}
				got := q.Deltas()
				if len(got) > len(ref) {
					t.Fatalf("%s: %d deltas exceed the %d the delivered input produces", q.Name(), len(got), len(ref))
				}
				for i := range got {
					if got[i].Key() != ref[i].Key() {
						t.Fatalf("%s: delta %d diverges from the replay:\n got %v\nwant %v",
							q.Name(), i, got[i], ref[i])
					}
				}
				if err == nil && len(got) != len(ref) {
					t.Fatalf("%s: clean finish but only %d of %d deltas", q.Name(), len(got), len(ref))
				}
			}
		})
	}
}

// A standing run that ended with an error consumes nothing more, so it
// must buffer nothing more either: later releases are dropped, not queued
// behind an operator that will never read them.
func TestDeadRunDropsInput(t *testing.T) {
	defer fault.Reset()
	db := newXYDB(t)
	reg := obs.NewRegistry()
	mgr := NewManager(db, reg, engine.Options{})
	t.Cleanup(mgr.Close)
	q, err := mgr.Register("dead", xyTree(algebra.KindOverlap, false), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := mgr.Append([]string{"X", "Y"}[i%2], xrow(i, interval.Time(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fault.Arm("engine/standing-run=error:n=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Poll(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("poll error %v, want the injected fault", err)
	}
	fault.Reset()
	if q.Suspended() != "done" {
		t.Fatalf("suspended %q after the fault, want done", q.Suspended())
	}
	for i := 0; i < 1000; i++ {
		rel := []string{"X", "Y"}[i%2]
		ts := interval.Time(4 + i)
		if err := mgr.Append(rel, xrow(4+i, ts, ts+5)); err != nil {
			t.Fatal(err)
		}
	}
	if n := q.run.Backlog(); n != 0 {
		t.Fatalf("dead run backlog %d after 1000 appends, want 0", n)
	}
	if g := reg.Gauge("tdb_live_backlog_dead", "").Value(); g != 0 {
		t.Fatalf("backlog gauge %d, want 0", g)
	}
}
