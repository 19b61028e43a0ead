package partition

import (
	"testing"

	"tdb/internal/catalog"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/workload"
)

func iv(s, e interval.Time) interval.Interval { return interval.New(s, e) }

func ident(s interval.Interval) interval.Interval { return s }

func TestRangesCoverAndOrder(t *testing.T) {
	rs := Ranges([]interval.Time{10, 20, 30})
	if len(rs) != 4 {
		t.Fatalf("want 4 shards, got %v", rs)
	}
	if rs[0].Lo != interval.MinTime || rs[len(rs)-1].Hi != interval.MaxTime {
		t.Fatalf("shards do not cover the time line: %v", rs)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo != rs[i-1].Hi {
			t.Fatalf("shards not contiguous at %d: %v", i, rs)
		}
	}
	// Every chronon is owned by exactly one shard.
	for _, p := range []interval.Time{-5, 9, 10, 19, 20, 29, 30, 1000} {
		owners := 0
		for _, r := range rs {
			if r.OwnsPoint(p) {
				owners++
			}
		}
		if owners != 1 {
			t.Errorf("chronon %d owned by %d shards", p, owners)
		}
	}
}

func TestRangesSkipBadCuts(t *testing.T) {
	rs := Ranges([]interval.Time{10, 10, 5, 20})
	if len(rs) != 3 {
		t.Fatalf("duplicate/out-of-order cuts not skipped: %v", rs)
	}
	if rs[0].Hi != 10 || rs[1].Hi != 20 {
		t.Fatalf("wrong surviving cuts: %v", rs)
	}
	if got := Ranges(nil); len(got) != 1 {
		t.Fatalf("no cuts must give the single covering shard, got %v", got)
	}
}

func TestSplitReplicatesBoundarySpanners(t *testing.T) {
	rs := Ranges([]interval.Time{10, 20})
	spans := []interval.Interval{ // TS-sorted, as Split's inputs always are
		iv(1, 5),   // shard 0 only
		iv(5, 25),  // spans both cuts: all three shards
		iv(8, 12),  // spans the first cut: shards 0 and 1
		iv(11, 19), // shard 1 only
		iv(21, 30), // shard 2 only
	}
	shards := Split(spans, ident, rs)
	wantLens := []int{3, 3, 2}
	for i, w := range wantLens {
		if len(shards[i]) != w {
			t.Errorf("shard %d: want %d elements, got %v", i, w, shards[i])
		}
	}
	// Order within each shard follows source order.
	for i, sh := range shards {
		for j := 1; j < len(sh); j++ {
			if sh[j].Start < sh[j-1].Start {
				t.Errorf("shard %d out of source order: %v", i, sh)
			}
		}
	}
	if got := Replication(shards, len(spans)); got != 3.0/5.0 {
		t.Errorf("measured replication = %v, want 0.6", got)
	}
}

// Every tuple must land in at least the shard owning its ValidFrom and the
// shard owning its last chronon — the witness-shard property the parallel
// join dedup rule relies on.
func TestSplitCoversOwnShards(t *testing.T) {
	tuples := workload.Tuples(workload.Config{N: 500, Lambda: 1, MeanDur: 15, LongFrac: 0.1, Seed: 7}, "x")
	spans := make([]interval.Interval, len(tuples))
	for i, tu := range tuples {
		spans[i] = tu.Span
	}
	rs := Ranges(Cuts(startsOf(spans), 4))
	shards := Split(spans, ident, rs)
	find := func(p interval.Time) int {
		for i, r := range rs {
			if r.OwnsPoint(p) {
				return i
			}
		}
		return -1
	}
	contains := func(sh []interval.Interval, s interval.Interval) bool {
		for _, x := range sh {
			if x == s {
				return true
			}
		}
		return false
	}
	for _, s := range spans {
		for _, p := range []interval.Time{s.Start, s.End - 1} {
			i := find(p)
			if i < 0 || !contains(shards[i], s) {
				t.Fatalf("span %v missing from shard owning chronon %d", s, p)
			}
		}
	}
}

func TestPredictReplicationTracksMeasured(t *testing.T) {
	tuples := workload.Tuples(workload.Config{N: 4000, Lambda: 1, MeanDur: 12, Seed: 3}, "x")
	spans := make([]interval.Interval, len(tuples))
	for i, tu := range tuples {
		spans[i] = tu.Span
	}
	st := catalog.FromSpans(spans)
	for _, k := range []int{2, 4, 8} {
		rs := Ranges(Cuts(startsOf(spans), k))
		measured := Replication(Split(spans, ident, rs), len(spans))
		predicted := PredictReplication(st, len(rs))
		if predicted <= 0 {
			t.Fatalf("k=%d: no predicted replication", k)
		}
		if ratio := measured / predicted; ratio < 0.4 || ratio > 2.5 {
			t.Errorf("k=%d: measured %.4f vs predicted %.4f (ratio %.2f)", k, measured, predicted, ratio)
		}
	}
	if got := PredictReplication(nil, 4); got != 0 {
		t.Errorf("nil stats must predict 0, got %v", got)
	}
	if got := PredictReplication(st, 1); got != 0 {
		t.Errorf("k=1 must predict 0, got %v", got)
	}
}

// Shards of an input sorted by any required ordering stay sorted by it.
func TestShardsPreserveSortOrders(t *testing.T) {
	tuples := workload.Tuples(workload.Config{N: 800, Lambda: 1, MeanDur: 20, LongFrac: 0.2, Seed: 9}, "x")
	spans := make([]interval.Interval, len(tuples))
	for i, tu := range tuples {
		spans[i] = tu.Span
	}
	rs := Ranges(Cuts(startsOf(spans), 4))
	for _, o := range []relation.Order{{relation.TSAsc}, {relation.TEAsc}, {relation.TSAsc, relation.TEAsc}} {
		sorted := append([]interval.Interval{}, spans...)
		relation.SortSpans(sorted, ident, o)
		for i, sh := range Split(sorted, ident, rs) {
			if !relation.SortedSpans(sh, ident, o) {
				t.Errorf("order %v: shard %d lost the sort order", o, i)
			}
		}
	}
}
