package catalog

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/workload"
)

func TestFromSpansBasics(t *testing.T) {
	spans := []interval.Interval{
		interval.New(0, 10),
		interval.New(5, 7),
		interval.New(20, 30),
	}
	s := FromSpans(spans)
	if s.Cardinality != 3 {
		t.Errorf("Cardinality = %d", s.Cardinality)
	}
	if s.MinTS != 0 || s.MaxTS != 20 || s.MinTE != 7 || s.MaxTE != 30 {
		t.Errorf("endpoint stats wrong: %+v", s)
	}
	if s.MeanDuration != (10+2+10)/3.0 {
		t.Errorf("MeanDuration = %f", s.MeanDuration)
	}
	if s.MaxDuration != 10 {
		t.Errorf("MaxDuration = %d", s.MaxDuration)
	}
	// λ = (3-1)/(20-0) = 0.1
	if math.Abs(s.Lambda-0.1) > 1e-9 {
		t.Errorf("Lambda = %f", s.Lambda)
	}
	if s.MaxConcurrency != 2 {
		t.Errorf("MaxConcurrency = %d", s.MaxConcurrency)
	}
	if !strings.Contains(s.String(), "n=3") {
		t.Errorf("String = %q", s.String())
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	s := FromSpans(nil)
	if s.Cardinality != 0 || s.Lambda != 0 || s.PredictedWorkspace() != 0 {
		t.Errorf("empty stats wrong: %+v", s)
	}
	if s.MeanGap() != 1 {
		t.Errorf("MeanGap on empty = %f", s.MeanGap())
	}
	s = FromSpans([]interval.Interval{interval.New(3, 9)})
	if s.Lambda != 0 || s.MaxConcurrency != 1 || s.MeanDuration != 6 {
		t.Errorf("singleton stats wrong: %+v", s)
	}
}

func TestMaxConcurrencyHalfOpen(t *testing.T) {
	// Meeting intervals do not overlap: [0,5) and [5,9).
	s := FromSpans([]interval.Interval{interval.New(0, 5), interval.New(5, 9)})
	if s.MaxConcurrency != 1 {
		t.Errorf("meeting intervals counted as concurrent: %d", s.MaxConcurrency)
	}
}

// reference is the independent oracle of MaxConcurrency: a sweep over the
// 2n endpoint events, closes before opens at equal times.
func reference(spans []interval.Interval) int {
	type ev struct {
		t     interval.Time
		delta int
	}
	var evs []ev
	for _, iv := range spans {
		evs = append(evs, ev{iv.Start, +1}, ev{iv.End, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta
	})
	cur, max := 0, 0
	for _, e := range evs {
		if cur += e.delta; cur > max {
			max = cur
		}
	}
	return max
}

// The ValidFrom-order fold counts exactly what the event sweep counts: on
// random spans with heavy ties, meeting spans and empty ones.
func TestMaxConcurrencyMatchesEventSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		spans := make([]interval.Interval, n)
		for i := range spans {
			s := interval.Time(rng.Intn(20))
			spans[i] = interval.Interval{Start: s, End: s + interval.Time(rng.Intn(6))}
		}
		if got, want := FromSpans(spans).MaxConcurrency, reference(spans); got != want {
			t.Fatalf("trial %d: MaxConcurrency = %d, event sweep %d over %v", trial, got, want, spans)
		}
	}
	for _, lam := range []float64{0.2, 5} {
		spans := workload.Intervals(workload.Config{N: 4000, Lambda: lam, MeanDur: 20, Seed: 42})
		if got, want := FromSpans(spans).MaxConcurrency, reference(spans); got != want {
			t.Errorf("λ=%v: MaxConcurrency = %d, event sweep %d", lam, got, want)
		}
	}
}

// Little's law: for a Poisson workload the prediction tracks the exact
// maximum concurrency within a small factor.
func TestPredictedWorkspaceTracksConcurrency(t *testing.T) {
	for _, lam := range []float64{0.2, 1, 5} {
		spans := workload.Intervals(workload.Config{N: 4000, Lambda: lam, MeanDur: 20, Seed: 42})
		s := FromSpans(spans)
		pred := s.PredictedWorkspace()
		if pred <= 0 {
			t.Fatalf("λ=%v: no prediction", lam)
		}
		ratio := float64(s.MaxConcurrency) / pred
		// The max of a Poisson-distributed occupancy exceeds its mean,
		// but by a modest factor at these scales.
		if ratio < 1 || ratio > 4 {
			t.Errorf("λ=%v: max/pred ratio %.2f outside [1,4] (max=%d pred=%.1f)",
				lam, ratio, s.MaxConcurrency, pred)
		}
	}
}

func TestCatalogTrackAndLookup(t *testing.T) {
	c := New()
	c.Track("R", []interval.Time{2, 0}, []interval.Time{9, 4})
	s := c.Lookup("R")
	if s.Cardinality != 2 || s.MinTS != 0 || s.MaxTE != 9 || s.MaxConcurrency != 2 {
		t.Errorf("track wrong: %+v", s)
	}
	if c.Lookup("missing") != nil {
		t.Error("Lookup invented stats")
	}
	c.Forget("R")
	if c.Lookup("R") != nil || c.ActiveSpans("R") != 0 || c.Refresh("R") {
		t.Errorf("forgotten R: stats %v, %d active spans", c.Lookup("R"), c.ActiveSpans("R"))
	}
}

// FuzzStatsFold: lifespans in any order fold to the event sweep's
// MaxConcurrency, and a catalog that tracks some of them, then observes
// more in ValidFrom order from their latest ValidFrom on, publishes what
// FromSpans computes over the union, field for field. The first byte picks
// how many of the byte pairs that follow are tracked; the rest are
// appended, each pair a ValidFrom step and a duration.
func FuzzStatsFold(f *testing.F) {
	f.Add([]byte{4, 10, 10, 0, 30, 12, 2, 1, 10, 3, 1})
	f.Add([]byte{4, 0, 10, 1, 9, 20, 10, 5, 20, 0, 0})
	f.Add([]byte{1, 3, 0, 0, 0, 1, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		split, pairs := int(data[0]), data[1:]
		var tracked, all []interval.Interval
		var ts interval.Time
		for i := 0; i+1 < len(pairs); i += 2 {
			dur := interval.Time(pairs[i+1] % 32)
			if len(tracked) < split {
				start := interval.Time(pairs[i] % 64)
				tracked = append(tracked, interval.Interval{Start: start, End: start + dur})
				ts = max(ts, start)
			} else {
				ts += interval.Time(pairs[i] % 4)
				all = append(all, interval.Interval{Start: ts, End: ts + dur})
			}
		}
		all = append(tracked, all...)
		want := FromSpans(all)
		if want.Cardinality != len(all) || want.MaxConcurrency != reference(all) {
			t.Fatalf("FromSpans %v, event sweep %d over %v", want, reference(all), all)
		}
		if got := FromSpans(tracked).MaxConcurrency; got != reference(tracked) {
			t.Fatalf("MaxConcurrency %d, event sweep %d over %v", got, reference(tracked), tracked)
		}
		c := New()
		tsCol, teCol := make([]interval.Time, len(tracked)), make([]interval.Time, len(tracked))
		for i, iv := range tracked {
			tsCol[i], teCol[i] = iv.Start, iv.End
		}
		c.Track("R", tsCol, teCol)
		for _, iv := range all[len(tracked):] {
			c.Observe("R", iv)
		}
		c.Refresh("R")
		if got := c.Lookup("R"); *got != *want {
			t.Fatalf("tracked %v then observed %v: published %v, want %v", tracked, all[len(tracked):], got, want)
		}
	})
}
