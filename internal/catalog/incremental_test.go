package catalog

import (
	"math/rand"
	"testing"

	"tdb/internal/interval"
)

// randomSortedSpans yields n lifespans with non-decreasing ValidFrom —
// the live ingestion arrival order.
func randomSortedSpans(rng *rand.Rand, n int) []interval.Interval {
	spans := make([]interval.Interval, n)
	ts := interval.Time(0)
	for i := range spans {
		ts += interval.Time(rng.Intn(4))
		dur := interval.Time(1 + rng.Intn(20))
		spans[i] = interval.Interval{Start: ts, End: ts + dur}
	}
	return spans
}

func TestIncrementalMatchesFromSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		spans := randomSortedSpans(rng, n)

		inc := NewIncremental()
		for _, iv := range spans {
			inc.Observe(iv)
		}
		got := inc.Snapshot()
		want := FromSpans(spans)

		if got.Cardinality != want.Cardinality {
			t.Fatalf("n=%d cardinality %d != %d", n, got.Cardinality, want.Cardinality)
		}
		if got.MinTS != want.MinTS || got.MaxTS != want.MaxTS ||
			got.MinTE != want.MinTE || got.MaxTE != want.MaxTE {
			t.Fatalf("n=%d bounds %v != %v", n, got, want)
		}
		if got.MeanDuration != want.MeanDuration || got.MaxDuration != want.MaxDuration {
			t.Fatalf("n=%d durations %v/%v != %v/%v", n,
				got.MeanDuration, got.MaxDuration, want.MeanDuration, want.MaxDuration)
		}
		if got.Lambda != want.Lambda {
			t.Fatalf("n=%d lambda %v != %v", n, got.Lambda, want.Lambda)
		}
		if got.MaxConcurrency != want.MaxConcurrency {
			t.Fatalf("n=%d maxconc %d != %d (exact heap sweep diverged from event sweep)",
				n, got.MaxConcurrency, want.MaxConcurrency)
		}
	}
}

// Out-of-order arrival is still counted: cardinality and bounds follow
// every span whatever order it came in.
func TestIncrementalCountsOutOfOrder(t *testing.T) {
	inc := NewIncremental()
	inc.Observe(interval.Interval{Start: 0, End: 10})
	inc.Observe(interval.Interval{Start: 1, End: 5})  // TE regresses
	inc.Observe(interval.Interval{Start: 0, End: 20}) // TS regresses
	s := inc.Snapshot()
	if s.Cardinality != 3 || s.MinTS != 0 || s.MaxTS != 1 || s.MinTE != 5 || s.MaxTE != 20 {
		t.Errorf("counting under out-of-order arrival: %v", s)
	}
}

func TestIncrementalActiveSpans(t *testing.T) {
	inc := NewIncremental()
	inc.Observe(interval.Interval{Start: 0, End: 10})
	inc.Observe(interval.Interval{Start: 2, End: 4})
	if inc.ActiveSpans() != 2 {
		t.Fatalf("active = %d, want 2", inc.ActiveSpans())
	}
	inc.Observe(interval.Interval{Start: 5, End: 7}) // {0,10} stays, {2,4} retires
	if inc.ActiveSpans() != 2 {
		t.Fatalf("active = %d, want 2 after retirement", inc.ActiveSpans())
	}
	if s := inc.Snapshot(); s.MaxConcurrency != 2 {
		t.Fatalf("maxconc = %d, want 2", s.MaxConcurrency)
	}
}
