package engine

// Columnar batch execution of the stream operators. The executor's
// intermediates are views of row references (view.go), and an eligible
// join or semijoin node does not sweep them row-at-a-time:
// establishOrder hands it each input sorted and already shredded into flat
// endpoint columns (core.Cols), columnarJoinPairs or columnarSemijoinIdx —
// the only two places the engine names a core batch kernel — sweeps the
// columns and reports matches as row indexes, and the node maps them back
// to its input views' positions: a join's view is its pair list, a
// semijoin's its input view narrowed to the emitted positions. No row is
// built until the sink (view.go, build).
//
// The row-at-a-time operators remain the reference implementation,
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
)

// gatherCols builds compact columns from a sort's permutation.
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

// pairIdx is one join match as (left row, right row) indexes: into the
// node's sorted inputs as a kernel emits it, into its input views once
// mapped back.
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

// pairList builds a pairChunks. The first chunk, made at the first match,
// has the capacity the list is created with; later chunks have
// pairChunkLen. A list that never gets a match allocates no chunk.
type pairList struct {
	full  pairChunks // filled chunks, in order
	cur   []pairIdx  // the chunk being filled
	first int        // the first chunk's capacity
}

func newPairList(first int) *pairList { return &pairList{first: max(first, 1)} }

// add appends one match, starting a new chunk when the current one is full.
func (pl *pairList) add(l, r int32) {
	if len(pl.cur) == cap(pl.cur) {
		size := pl.first
		if pl.cur != nil {
			pl.full = append(pl.full, pl.cur)
			size = pairChunkLen
		}
		pl.cur = make([]pairIdx, 0, size)
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

// columnarJoinPairs sweeps the sorted columns with the batch kernel for
// kind and returns (left, right) index pairs in exactly the row engine's
// emission order. The Contained kind maps onto the contain kernel with the
// sides swapped, mirroring the row dispatch. The pairs land in a chunked
// list whose first chunk holds as many pairs as the larger input has rows,
// so a join no larger than that allocates one buffer, and a larger one
// adds fixed-size chunks instead of regrowing.
func columnarJoinPairs(kind algebra.TemporalKind, lc, rc core.Cols, opt core.Options) (pairChunks, error) {
	pl := newPairList(max(lc.Len(), rc.Len()))
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
