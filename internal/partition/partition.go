// Package partition splits sorted lifespans into time-range shards,
// replicating a boundary-spanning tuple into every shard its lifespan
// intersects. No execution path uses it: the engine runs every plan node
// serially, and the package remains only for the benchmark ledger's
// informational split figures (partition.split_ms, partition.replication).
package partition

import "tdb/internal/interval"

// Range is one half-open time shard [Lo, Hi). The first shard of a
// partitioning starts at interval.MinTime and the last ends at
// interval.MaxTime, so the shard list covers every valid lifespan.
type Range struct {
	Lo, Hi interval.Time
}

// Intersects reports whether a lifespan shares at least one chronon with
// the shard, the replication criterion of Split.
func (r Range) Intersects(s interval.Interval) bool { return s.Start < r.Hi && s.End > r.Lo }

// Ranges turns ascending cut points into the covering shard list: k cuts
// produce k+1 shards from MinTime to MaxTime. Cuts that are out of order
// or duplicated are skipped rather than producing empty or inverted
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
// itself sorted by that ordering.
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
