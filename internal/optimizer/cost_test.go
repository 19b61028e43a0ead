package optimizer

import (
	"strings"
	"testing"

	"tdb/internal/catalog"
	"tdb/internal/core"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/relation"
	"tdb/internal/stream"
	"tdb/internal/workload"
)

func statsFor(n int, lambda, dur float64, seed int64) (*catalog.Stats, []relation.Tuple) {
	ts := workload.Tuples(workload.Config{N: n, Lambda: lambda, MeanDur: dur, Seed: seed}, "t")
	spans := make([]interval.Interval, len(ts))
	for i, t := range ts {
		spans[i] = t.Span
	}
	return catalog.FromSpans(spans), ts
}

func tSpan(t relation.Tuple) interval.Interval { return t.Span }

func sortedCopy(ts []relation.Tuple, o relation.Order) []relation.Tuple {
	c := append([]relation.Tuple{}, ts...)
	relation.SortSpans(c, tSpan, o)
	return c
}

// The predicted comparison counts track the measured ones within a small
// factor, and the stream beats the nested loop on both counts.
func TestContainJoinEstimateTracksMeasured(t *testing.T) {
	sx, xs := statsFor(3000, 1, 12, 1)
	sy, ys := statsFor(3000, 1, 12, 2)
	est := EstimateContainJoin(sx, sy)

	probe := &metrics.Probe{}
	err := core.ContainJoinTSTS(
		stream.FromSlice(sortedCopy(xs, relation.Order{relation.TSAsc})),
		stream.FromSlice(sortedCopy(ys, relation.Order{relation.TSAsc})),
		tSpan, core.Options{Probe: probe}, func(a, b relation.Tuple) {})
	if err != nil {
		t.Fatal(err)
	}

	ratio := float64(probe.Comparisons) / est.Stream
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("stream estimate off: measured %d vs predicted %.0f (ratio %.2f)",
			probe.Comparisons, est.Stream, ratio)
	}
	wsRatio := float64(probe.Workspace()) / est.Workspace
	if wsRatio < 0.2 || wsRatio > 5 {
		t.Errorf("workspace estimate off: measured %d vs predicted %.1f",
			probe.Workspace(), est.Workspace)
	}
	// At n=3000 and modest occupancy the stream plan is both predicted and
	// measured far cheaper than the nested loop.
	if est.Stream >= est.NestedLoop {
		t.Errorf("estimate prices the stream above the nested loop: %v", est)
	}
	if nl := int64(sx.Cardinality) * int64(sy.Cardinality); probe.Comparisons >= nl {
		t.Errorf("stream measured %d not below nested loop %d", probe.Comparisons, nl)
	}
	if !strings.Contains(est.String(), "stream") {
		t.Errorf("estimate rendering: %s", est)
	}
}

func TestOverlapEstimate(t *testing.T) {
	sx, xs := statsFor(2000, 2, 8, 7)
	sy, ys := statsFor(2000, 2, 8, 8)
	est := EstimateOverlapJoin(sx, sy)
	probe := &metrics.Probe{}
	err := core.OverlapJoin(
		stream.FromSlice(sortedCopy(xs, relation.Order{relation.TSAsc})),
		stream.FromSlice(sortedCopy(ys, relation.Order{relation.TSAsc})),
		tSpan, core.Options{Probe: probe}, func(a, b relation.Tuple) {})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(probe.Comparisons) / est.Stream
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("overlap estimate off: measured %d vs predicted %.0f", probe.Comparisons, est.Stream)
	}
}
