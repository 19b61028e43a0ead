package engine

// Columnar batch execution of the stream operators. The executor keeps its
// materialized intermediates as rows, but an eligible join or semijoin node
// does not sweep them row-at-a-time: establishOrder hands it each input
// sorted and already shredded into flat endpoint columns (core.Cols),
// columnarJoinPairs or columnarSemijoinIdx — the only two places the engine
// names a core batch kernel — sweeps the columns and reports matches as row
// indexes, and the node materializes output rows exactly once at the end
// (materializeJoin, ordered.gather). Serial execution calls the kernel step
// on the node's full columns; a parallel shard (parallel.go) calls the same
// step on its gathered columns and returns global indexes, so serial is the
// k=1 case of one step and no row data moves until the node materializes.
//
// The row-at-a-time operators remain the serial reference implementation,
// selectable with Options.RowExec; the before operators and the self
// semijoins run on it unconditionally, since no batch kernel covers them.
// Output is byte-identical between the two paths — the batch kernels
// reproduce the row engines' emission order exactly, and the equivalence
// property tests in columnar_test.go hold both paths to it.

import (
	"fmt"

	"tdb/internal/algebra"
	"tdb/internal/core"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// gatherCols builds compact columns from an index list: a sort's
// permutation or a shard's rows.
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

// pairChunkLen is the capacity of every pair chunk after a list's first:
// 64 KiB of matches.
const pairChunkLen = 8192

// pairChunks is a join's match list in emission order, held as chunks that
// are filled once and never copied or regrown: the list's bytes are its
// final size plus at most one part-filled chunk, where an appended slice
// would allocate about twice the final size on the way up. No chunk is
// empty.
type pairChunks [][]pairIdx

// count returns the number of pairs in the list.
func (pc pairChunks) count() int {
	n := 0
	for _, c := range pc {
		n += len(c)
	}
	return n
}

// pairList builds a pairChunks. The first chunk has the capacity the list
// is created with; later chunks have pairChunkLen.
type pairList struct {
	full pairChunks // filled chunks, in order
	cur  []pairIdx  // the chunk being filled
}

// add appends one match, starting a new chunk when the current one is full.
func (pl *pairList) add(l, r int32) {
	if len(pl.cur) == cap(pl.cur) {
		if len(pl.cur) > 0 {
			pl.full = append(pl.full, pl.cur)
		}
		pl.cur = make([]pairIdx, 0, pairChunkLen)
	}
	pl.cur = append(pl.cur, pairIdx{l: l, r: r})
}

// chunks returns the finished list.
func (pl *pairList) chunks() pairChunks {
	if len(pl.cur) == 0 {
		return pl.full
	}
	return append(pl.full, pl.cur)
}

// materializeJoin builds the output rows of a join from its matched index
// pairs in one step: it walks the pair chunks in order into a single value
// arena sized to the exact output, sliced into full-capacity rows so later
// appends can never alias. Returns nil for no pairs, matching the row
// path's nil-on-empty convention.
func materializeJoin(l, r ordered, pairs pairChunks) []relation.Row {
	n := pairs.count()
	if n == 0 {
		return nil
	}
	la := len(l.row(pairs[0][0].l))
	ra := len(r.row(pairs[0][0].r))
	w := la + ra
	rows := make([]relation.Row, n)
	if w == 0 {
		for i := range rows {
			rows[i] = relation.Row{}
		}
		return rows
	}
	arena := make([]value.Value, n*w)
	i := 0
	for _, c := range pairs {
		//tdb:hotpath
		for _, p := range c {
			row := arena[i*w : i*w+w : i*w+w]
			copy(row, l.row(p.l))
			copy(row[la:], r.row(p.r))
			rows[i] = row
			i++
		}
	}
	return rows
}

// gather is a semijoin's materialization: its output rows are the
// qualifying input rows — by reference when they are in memory, else
// decoded from their pages into one value arena of the exact size, sliced
// into full-capacity rows, the interrupt polled once per page's worth of
// rows. Returns nil for no indexes, matching the row path's nil-on-empty
// convention.
func (ex *executor) gather(in ordered, idxs []int32) ([]relation.Row, error) {
	if len(idxs) == 0 {
		return nil, nil
	}
	out := make([]relation.Row, len(idxs))
	if in.stored == nil {
		//tdb:hotpath
		for i, j := range idxs {
			out[i] = in.row(j)
		}
		return out, nil
	}
	w, every := in.stored.Arity(), in.stored.PerPage()
	arena := make([]value.Value, len(idxs)*w)
	poll := every
	//tdb:hotpath
	for i, j := range idxs {
		if poll--; poll == 0 {
			if err := ex.checkInterrupt(); err != nil {
				return nil, err
			}
			poll = every
		}
		row := arena[i*w : i*w+w : i*w+w]
		if err := in.stored.Decode(row, in.pos(j)); err != nil {
			return nil, err
		}
		out[i] = row
	}
	return out, nil
}

// columnarJoinPairs sweeps the sorted columns with the batch kernel for
// kind and returns (left, right) index pairs in exactly the row engine's
// emission order. The Contained kind maps onto the contain kernel with the
// sides swapped, mirroring the row dispatch. The pairs land in a chunked
// list whose first chunk holds as many pairs as the larger input has rows,
// so a join no larger than that allocates one buffer, and a larger one
// adds fixed-size chunks instead of regrowing.
func columnarJoinPairs(kind algebra.TemporalKind, lc, rc core.Cols, opt core.Options) (pairChunks, error) {
	pl := &pairList{cur: make([]pairIdx, 0, max(lc.Len(), rc.Len()))}
	var err error
	switch kind {
	case algebra.KindContain:
		err = core.BatchContainJoinTSTS(lc, rc, opt, pl.add)
	case algebra.KindContained:
		// Left during right ⇔ Contain-join(right, left): the kernel's X is
		// the right input, so its emissions map back crossed.
		err = core.BatchContainJoinTSTS(rc, lc, opt, func(xi, yi int32) { pl.add(yi, xi) })
	case algebra.KindOverlap:
		err = core.BatchOverlapJoin(lc, rc, opt, pl.add)
	default:
		err = fmt.Errorf("engine: columnar join of kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	return pl.chunks(), nil
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

// ownerKey is a join pair's canonical sweep point: the chronon of the read
// event that emits it under the sweep policy. For a contain pair that is
// the containee's ValidFrom (the right input's for Contain, the left
// input's for Contained); for an overlap pair, the later of the two
// ValidFroms. Both members of a pair span its sweep point, which is what
// lets exactly one time shard own each pair.
func ownerKey(kind algebra.TemporalKind, lc, rc core.Cols, p pairIdx) interval.Time {
	switch kind {
	case algebra.KindContain:
		return rc.TS[p.r]
	case algebra.KindContained:
		return lc.TS[p.l]
	}
	return max(lc.TS[p.l], rc.TS[p.r])
}
