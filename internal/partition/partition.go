// Package partition implements the time-range partitioner behind parallel
// stream execution. The paper's algorithms are single passes over
// sort-ordered inputs (Section 4.1), which makes them partitionable by
// time range: every shard of a sorted relation is itself a sorted stream,
// so the same bounded-workspace algorithms run per shard unchanged. The
// one correctness wrinkle is the boundary-spanning tuple, which is
// replicated into every shard its lifespan intersects; exactness is
// restored downstream by the owner rule — each result is kept only by the
// shard that owns its canonical sweep point — or, for a semijoin, by the
// global row index every replica keeps, which lets an order-preserving
// merge drop the duplicates.
package partition

import (
	"fmt"

	"tdb/internal/catalog"
	"tdb/internal/interval"
)

// Range is one half-open time shard [Lo, Hi). The first shard of a
// partitioning starts at interval.MinTime and the last ends at
// interval.MaxTime, so the shard list covers every valid lifespan.
type Range struct {
	Lo, Hi interval.Time
}

// OwnsPoint reports whether the shard owns chronon t. Shards are disjoint
// and covering, so exactly one shard of a partitioning owns any chronon —
// the property the per-pair dedup rule relies on.
func (r Range) OwnsPoint(t interval.Time) bool { return r.Lo <= t && t < r.Hi }

// Intersects reports whether a lifespan shares at least one chronon with
// the shard, the replication criterion of Split.
func (r Range) Intersects(s interval.Interval) bool { return s.Start < r.Hi && s.End > r.Lo }

// String renders the shard with infinite endpoints elided.
func (r Range) String() string {
	lo, hi := "-∞", "+∞"
	if r.Lo != interval.MinTime {
		lo = fmt.Sprintf("%d", r.Lo)
	}
	if r.Hi != interval.MaxTime {
		hi = fmt.Sprintf("%d", r.Hi)
	}
	return "[" + lo + "," + hi + ")"
}

// Cuts returns up to k−1 ascending ValidFrom cut points that divide a
// TS-ascending column into k shards of roughly equal row count: the
// values at indexes j·n/k, j = 1…k−1. It reads k−1 entries and sorts
// nothing. Cuts at or below the column's minimum (which would leave the
// leading shard empty) and duplicates (heavy ValidFrom ties) are
// dropped, so the result may hold fewer than k−1 cuts; an empty column,
// k < 2 or a single distinct ValidFrom yields none.
func Cuts(ts []interval.Time, k int) []interval.Time {
	if k < 2 || len(ts) == 0 {
		return nil
	}
	var cuts []interval.Time
	for j := 1; j < k; j++ {
		c := ts[j*len(ts)/k]
		if c <= ts[0] || len(cuts) > 0 && c == cuts[len(cuts)-1] {
			continue
		}
		cuts = append(cuts, c)
	}
	return cuts
}

// Ranges turns ascending cut points (Cuts) into the covering shard list:
// k cuts produce k+1 shards from MinTime to MaxTime. Cuts that are out of
// order or duplicated are skipped rather than producing empty or inverted
// shards.
func Ranges(cuts []interval.Time) []Range {
	rs := make([]Range, 0, len(cuts)+1)
	lo := interval.MinTime
	for _, c := range cuts {
		if c <= lo {
			continue
		}
		rs = append(rs, Range{Lo: lo, Hi: c})
		lo = c
	}
	return append(rs, Range{Lo: lo, Hi: interval.MaxTime})
}

// Split replicates the elements of a sorted slice into every shard their
// lifespan intersects. Relative order is preserved within each shard, so
// every shard of an input sorted by any of the Table 1/2 orderings is
// itself sorted by that ordering — the property that lets the single-pass
// algorithms run per shard unchanged.
func Split[T any](xs []T, span func(T) interval.Interval, rs []Range) [][]T {
	out := make([][]T, len(rs))
	if len(rs) == 0 {
		return out
	}
	// Pre-size every shard to the even-split estimate; boundary
	// replication may still grow a shard past it.
	est := len(xs)/len(rs) + 1
	for i := range out {
		out[i] = make([]T, 0, est)
	}
	//tdb:hotpath
	for _, x := range xs {
		s := span(x)
		for i, r := range rs {
			if r.Intersects(s) {
				out[i] = append(out[i], x) // lint:allow hotpath-alloc — replication factor is data-dependent; shards are pre-sized to the even-split estimate
			} else if s.End <= r.Lo {
				break // shards ascend; later ones lie even further right
			}
		}
	}
	return out
}

// Replication reports the measured boundary-replication rate of a split:
// extra copies per source tuple.
func Replication[T any](shards [][]T, n int) float64 {
	if n == 0 {
		return 0
	}
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	return float64(total-n) / float64(n)
}

// PredictReplication predicts the boundary-replication rate from catalog
// statistics: by Little's law λ·E[D] lifespans are in progress at a random
// instant, so each of the k−1 interior cut points is expected to be
// spanned by that many tuples, each costing one extra copy.
func PredictReplication(s *catalog.Stats, k int) float64 {
	if s == nil || k < 2 || s.Cardinality == 0 {
		return 0
	}
	return float64(k-1) * s.PredictedWorkspace() / float64(s.Cardinality)
}
