// Package baseline implements the conventional strategies the paper
// contrasts the stream approach against (Section 3): the nested-loop θ-join
// — "traditionally the best strategy for processing less-than joins" — and
// its semijoin form, plus the sort-merge band scan the engine's workspace
// governor falls back to when a stream join breaches its ceiling. The
// nested loops serve as performance baselines in the benchmarks and as
// oracles for the property tests of the stream algorithms.
package baseline

import (
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/relation"
)

// NestedLoopJoin emits every pair (x, y) whose lifespans satisfy the θ
// predicate, scanning the inner relation once per outer tuple. This is the
// conventional strategy for a join qualification that is a conjunction of
// inequalities.
func NestedLoopJoin[T any](xs, ys []T, span func(T) interval.Interval,
	theta func(x, y interval.Interval) bool, probe *metrics.Probe, emit func(x, y T)) {
	probe.SetBuffers(2)
	for _, x := range xs {
		probe.IncReadLeft()
		sx := span(x)
		for _, y := range ys {
			probe.IncReadRight()
			probe.IncComparisons(1)
			if theta(sx, span(y)) {
				probe.IncEmitted(1)
				emit(x, y)
			}
		}
		probe.IncPasses() // one full scan of the inner per outer tuple
	}
}

// NestedLoopSemijoin emits every x for which some y satisfies θ, stopping
// the inner scan at the first witness.
func NestedLoopSemijoin[T any](xs, ys []T, span func(T) interval.Interval,
	theta func(x, y interval.Interval) bool, probe *metrics.Probe, emit func(T)) {
	probe.SetBuffers(2)
	for _, x := range xs {
		probe.IncReadLeft()
		sx := span(x)
		for _, y := range ys {
			probe.IncReadRight()
			probe.IncComparisons(1)
			if theta(sx, span(y)) {
				probe.IncEmitted(1)
				emit(x)
				break
			}
		}
		probe.IncPasses()
	}
}

// sortedBySpan returns a copy of xs stably sorted on (ValidFrom, ValidTo)
// ascending — the canonical ordering of the sort-merge band scans.
func sortedBySpan[T any](xs []T, span func(T) interval.Interval) []T {
	out := append([]T{}, xs...)
	relation.SortSpans(out, span, relation.Order{relation.TSAsc, relation.TEAsc})
	return out
}

// SortMergeJoin is the workspace-governed fallback join: both inputs are
// sorted on (ValidFrom, ValidTo) ascending and merged with a band scan that,
// for each x, examines only the y whose lifespans can still intersect it.
// Unlike the stream algorithms it retains no state beyond the two cursor
// positions — its workspace is bounded by construction, at the price of
// operating over fully materialized inputs. The θ predicate must imply
// lifespan intersection (the contain, contained and overlap conditions all
// do); predicates that can match disjoint lifespans (before, general θ)
// need NestedLoopJoin. Emission order is deterministic: x in span order,
// each with its y band in span order.
func SortMergeJoin[T any](xs, ys []T, span func(T) interval.Interval,
	theta func(x, y interval.Interval) bool, probe *metrics.Probe, emit func(x, y T)) {
	probe.SetBuffers(2)
	sx := sortedBySpan(xs, span)
	sy := sortedBySpan(ys, span)
	lo := 0
	for _, x := range sx {
		probe.IncReadLeft()
		ix := span(x)
		// y ending at or before this x starts can intersect neither it nor
		// any later x (ValidFrom ascending): retire it from the band.
		for lo < len(sy) && span(sy[lo]).BeforeOrMeets(ix) {
			probe.IncReadRight()
			lo++
		}
		for j := lo; j < len(sy); j++ {
			iy := span(sy[j])
			if ix.BeforeOrMeets(iy) {
				break // every later y starts at or after x ends
			}
			probe.IncComparisons(1)
			if theta(ix, iy) {
				probe.IncEmitted(1)
				emit(x, sy[j])
			}
		}
		probe.IncPasses()
	}
	for ; lo < len(sy); lo++ {
		probe.IncReadRight()
	}
}
