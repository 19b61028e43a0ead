package engine

// Columnar batch execution of the stream operators. The executor keeps its
// materialized intermediates as rows, but an eligible join or semijoin node
// no longer sweeps them row-at-a-time: establishOrder hands it each input
// sorted and already shredded into flat endpoint columns (core.Cols), the
// internal/core batch kernels sweep the columns and report matches as row
// indexes, and the node materializes output rows exactly once at the end.
// On the parallel path the shards themselves are index lists
// (partition.SplitIndex), so workers gather compact per-shard columns,
// sweep, and return global indexes — no row data moves until the
// coordinator materializes the merged result.
//
// The row-at-a-time operators remain the reference implementation,
// selectable with Options.RowExec; the λ read policy and the before-join
// run on it unconditionally (the policy observes per-row stream state the
// batch kernels do not model, and before pairs across arbitrary time
// distance). Output is byte-identical between the two paths — the batch
// kernels reproduce the row engines' emission order exactly, and the
// equivalence property tests in columnar_test.go hold both paths to it.

import (
	"context"
	"fmt"

	"tdb/internal/algebra"
	"tdb/internal/core"
	"tdb/internal/interval"
	"tdb/internal/partition"
	"tdb/internal/relation"
	"tdb/internal/stream"
	"tdb/internal/value"
)

// gatherCols builds a shard's compact local columns from its index list.
func gatherCols(c core.Cols, idx []int32) core.Cols {
	ts := make([]interval.Time, 0, len(idx))
	te := make([]interval.Time, 0, len(idx))
	//tdb:hotpath
	for _, j := range idx {
		ts = append(ts, c.TS[j])
		te = append(te, c.TE[j])
	}
	return core.Cols{TS: ts, TE: te}
}

// pairIdx is one join match as (left row, right row) indexes into the
// node's sorted inputs; materialization is deferred until the full match
// list is known.
type pairIdx struct {
	l, r int32
}

// materializeJoin builds the output rows of a join from its matched index
// pairs in one step: a single value arena sized to the exact output,
// sliced into full-capacity rows so later appends can never alias. Returns
// nil for no pairs, matching the row path's nil-on-empty convention.
func materializeJoin(l, r ordered, pairs []pairIdx) []relation.Row {
	if len(pairs) == 0 {
		return nil
	}
	la := len(l.row(pairs[0].l))
	ra := len(r.row(pairs[0].r))
	w := la + ra
	rows := make([]relation.Row, len(pairs))
	if w == 0 {
		for i := range rows {
			rows[i] = relation.Row{}
		}
		return rows
	}
	arena := make([]value.Value, len(pairs)*w)
	//tdb:hotpath
	for i := range pairs {
		row := arena[i*w : i*w+w : i*w+w]
		copy(row, l.row(pairs[i].l))
		copy(row[la:], r.row(pairs[i].r))
		rows[i] = row
	}
	return rows
}

// gather is a semijoin's materialization: its output rows are the
// qualifying input rows, by reference. Returns nil for no indexes, matching
// the row path's nil-on-empty convention.
func (in ordered) gather(idxs []int32) []relation.Row {
	if len(idxs) == 0 {
		return nil
	}
	out := make([]relation.Row, len(idxs))
	//tdb:hotpath
	for i, j := range idxs {
		out[i] = in.row(j)
	}
	return out
}

// columnarJoinPairs sweeps the sorted columns with the batch kernel for
// kind and returns (left, right) index pairs in exactly the row engine's
// emission order. The Contained kind maps onto the contain kernel with the
// sides swapped, mirroring the row dispatch.
func columnarJoinPairs(kind algebra.TemporalKind, lc, rc core.Cols, opt core.Options) ([]pairIdx, error) {
	est := lc.Len()
	if rc.Len() > est {
		est = rc.Len()
	}
	pairs := make([]pairIdx, 0, est)
	var err error
	switch kind {
	case algebra.KindContain:
		err = core.BatchContainJoinTSTS(lc, rc, opt, func(xi, yi int32) {
			pairs = append(pairs, pairIdx{l: xi, r: yi})
		})
	case algebra.KindContained:
		// Left during right ⇔ Contain-join(right, left): the kernel's X is
		// the right input, so its emissions map back crossed.
		err = core.BatchContainJoinTSTS(rc, lc, opt, func(xi, yi int32) {
			pairs = append(pairs, pairIdx{l: yi, r: xi})
		})
	case algebra.KindOverlap:
		err = core.BatchOverlapJoin(lc, rc, opt, func(xi, yi int32) {
			pairs = append(pairs, pairIdx{l: xi, r: yi})
		})
	default:
		err = fmt.Errorf("engine: columnar join of kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// columnarSemijoinIdx sweeps the sorted columns with the batch semijoin
// kernel for kind and returns the qualifying left row indexes in left
// input order — the row engine's emission order.
func columnarSemijoinIdx(kind algebra.TemporalKind, lc, rc core.Cols, opt core.Options) ([]int32, error) {
	out := make([]int32, 0, lc.Len())
	emit := func(xi int32) { out = append(out, xi) }
	var err error
	switch kind {
	case algebra.KindContained:
		err = core.BatchContainedSemijoin(lc, rc, opt, emit)
	case algebra.KindContain:
		err = core.BatchContainSemijoin(lc, rc, opt, emit)
	case algebra.KindOverlap:
		err = core.BatchOverlapSemijoin(lc, rc, opt, emit)
	default:
		err = fmt.Errorf("engine: columnar semijoin of kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ownedPair is a matched index pair tagged with its canonical sweep point,
// the columnar counterpart of ownedRow: the key assigns the pair to exactly
// one owning shard and keys the recombination merge.
type ownedPair struct {
	key  interval.Time
	pair pairIdx
}

func ownedPairCmp(a, b ownedPair) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

// runJoinShardColumnar runs one shard of a columnar join fan-out: gather
// the shard's local columns from its index lists, sweep with the batch
// kernel, translate emissions back to global indexes, and keep only pairs
// whose sweep point the shard's range owns — the same ownership rule as
// runJoinShard, over indexes instead of rows. The kernels run the sweep
// without cancellation polls, so cancellation is honored at shard entry;
// a canceled sibling at worst lets this shard finish its bounded sweep.
func runJoinShardColumnar(ctx context.Context, kind algebra.TemporalKind,
	lc, rc core.Cols, li, ri []int32, rng partition.Range, o core.Options) ([]ownedPair, error) {

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lcs, rcs := gatherCols(lc, li), gatherCols(rc, ri)
	out := make([]ownedPair, 0, len(li))
	keep := func(key interval.Time, p pairIdx) {
		if rng.OwnsPoint(key) {
			out = append(out, ownedPair{key: key, pair: p})
		}
	}
	var err error
	switch kind {
	case algebra.KindContain:
		// The containee's ValidFrom owns a contain pair (the read event
		// that emits it under the sweep policy).
		err = core.BatchContainJoinTSTS(lcs, rcs, o, func(xi, yi int32) {
			keep(rcs.TS[yi], pairIdx{l: li[xi], r: ri[yi]})
		})
	case algebra.KindContained:
		// Contain kernel with the sides swapped; the containee — here the
		// left input — still owns the pair.
		err = core.BatchContainJoinTSTS(rcs, lcs, o, func(xi, yi int32) {
			keep(lcs.TS[yi], pairIdx{l: li[yi], r: ri[xi]})
		})
	case algebra.KindOverlap:
		// The later ValidFrom owns an overlap pair.
		err = core.BatchOverlapJoin(lcs, rcs, o, func(xi, yi int32) {
			key := lcs.TS[xi]
			if rcs.TS[yi] > key {
				key = rcs.TS[yi]
			}
			keep(key, pairIdx{l: li[xi], r: ri[yi]})
		})
	default:
		err = fmt.Errorf("engine: parallel columnar join of kind %v", kind)
	}
	return out, err
}

// parallelJoinColumnar executes an accepted join fan-out on the columnar
// path. The inputs are shredded to columns once; partition.SplitIndex
// replicates *indexes* into boundary-spanning shards, workers sweep their
// gathered columns and return owned (key, pair) lists, and the stable
// k-way merge recombines them in serial emission order. Only then are
// output rows materialized — shard workers never touch row data.
func (ex *executor) parallelJoinColumnar(kind algebra.TemporalKind, l, r ordered, plan *parallelPlan, cost *NodeCost) ([]relation.Row, error) {
	k := len(plan.ranges)
	lc, rc := l.cols, r.cols
	shL := partition.SplitIndex(lc.TS, lc.TE, plan.ranges)
	shR := partition.SplitIndex(rc.TS, rc.TE, plan.ranges)
	noteMeasuredReplication(cost, shL, shR, lc.Len()+rc.Len())
	outs := make([][]ownedPair, k)
	err := ex.runWorkers(shardLabels("join shard", plan.ranges), cost, func(ctx context.Context, i int, o core.Options) (int64, error) {
		var err error
		outs[i], err = runJoinShardColumnar(ctx, kind, lc, rc, shL[i], shR[i], plan.ranges[i], o)
		return int64(len(outs[i])), err
	})
	if err != nil {
		return nil, err
	}
	parts := make([]stream.Stream[ownedPair], k)
	for i := range outs {
		parts[i] = stream.FromSlice(outs[i])
	}
	merged, err := stream.Collect(stream.MergeK(ownedPairCmp, parts...))
	if err != nil {
		return nil, err
	}
	pairs := make([]pairIdx, 0, len(merged))
	//tdb:hotpath
	for i := range merged {
		pairs = append(pairs, merged[i].pair)
	}
	return materializeJoin(l, r, pairs), nil
}

// runSemijoinShardColumnar runs one shard of a columnar semijoin fan-out.
// The batch scans preserve left input order and the shard's index list
// ascends, so the returned global indexes ascend — each shard yields a
// sorted subsequence of the left input, ready for the positional merge.
func runSemijoinShardColumnar(ctx context.Context, kind algebra.TemporalKind,
	lc, rc core.Cols, li, ri []int32, o core.Options) ([]int32, error) {

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lcs, rcs := gatherCols(lc, li), gatherCols(rc, ri)
	out := make([]int32, 0, len(li))
	emit := func(xi int32) { out = append(out, li[xi]) }
	var err error
	switch kind {
	case algebra.KindContained:
		err = core.BatchContainedSemijoin(lcs, rcs, o, emit)
	case algebra.KindContain:
		err = core.BatchContainSemijoin(lcs, rcs, o, emit)
	case algebra.KindOverlap:
		err = core.BatchOverlapSemijoin(lcs, rcs, o, emit)
	default:
		err = fmt.Errorf("engine: parallel columnar semijoin of kind %v", kind)
	}
	return out, err
}

// parallelSemijoinColumnar executes an accepted semijoin fan-out on the
// columnar path. The global left index doubles as the position tag of the
// row path: the position-ordered merge with adjacent dedup yields the
// qualifying left rows in global input order, and only that final list is
// materialized (by reference — semijoin output rows are the input rows).
func (ex *executor) parallelSemijoinColumnar(kind algebra.TemporalKind, l, r ordered, plan *parallelPlan, cost *NodeCost) ([]relation.Row, error) {
	k := len(plan.ranges)
	lc, rc := l.cols, r.cols
	shL := partition.SplitIndex(lc.TS, lc.TE, plan.ranges)
	shR := partition.SplitIndex(rc.TS, rc.TE, plan.ranges)
	noteMeasuredReplication(cost, shL, shR, lc.Len()+rc.Len())
	outs := make([][]int32, k)
	err := ex.runWorkers(shardLabels("semijoin shard", plan.ranges), cost, func(ctx context.Context, i int, o core.Options) (int64, error) {
		var err error
		outs[i], err = runSemijoinShardColumnar(ctx, kind, lc, rc, shL[i], shR[i], o)
		return int64(len(outs[i])), err
	})
	if err != nil {
		return nil, err
	}
	parts := make([]stream.Stream[int32], k)
	for i := range outs {
		parts[i] = stream.FromSlice(outs[i])
	}
	idxCmp := func(a, b int32) int { return int(a) - int(b) }
	sameIdx := func(a, b int32) bool { return a == b }
	merged, err := stream.Collect(stream.Dedup(stream.MergeK(idxCmp, parts...), sameIdx))
	if err != nil {
		return nil, err
	}
	rows := make([]relation.Row, len(merged))
	//tdb:hotpath
	for i, g := range merged {
		rows[i] = l.row(g)
	}
	return rows, nil
}
