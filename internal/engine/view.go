package engine

// Late materialization (DESIGN.md): an intermediate result is a view of
// row references, and rows are built in one place, build — at the
// project, or at Run's result when the plan has no project.

import (
	"iter"
	"slices"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// part is one source of a view's cells: row i of the part is src[idx[i]],
// or src[i] when idx is nil, and has w cells.
type part struct {
	src []relation.Row
	idx []int32
	w   int
}

// pos returns the source position of the part's row i.
func (p part) pos(i int32) int32 {
	if p.idx != nil {
		return p.idx[i]
	}
	return i
}

// view is an intermediate result as row references. A flat view (pairs
// nil) picks row i of every part. A join's view is paired: parts[:split]
// are its left input's parts, read at each match's l, and the rest its
// right input's, read at its r; flat turns it into index vectors for the
// consumers that read by position, and build reads the pairs directly, so
// a join that goes straight to the sink builds no index vector.
type view struct {
	n     int
	parts []part
	pairs pairChunks
	split int
}

// rowsView is the identity view over rows of w cells.
func rowsView(rows []relation.Row, w int) view {
	return view{n: len(rows), parts: []part{{src: rows, w: w}}}
}

// joinView is the paired view of a join's matches over its two flat
// inputs.
func joinView(l, r view, pairs pairChunks) view {
	parts := append(append(make([]part, 0, len(l.parts)+len(r.parts)), l.parts...), r.parts...)
	return view{n: pairs.count(), parts: parts, pairs: pairs, split: len(l.parts)}
}

// positions yields, row by row, the positions the left and the right parts
// read their rows at: a paired view's matches, (i, i) for a flat view's
// row i.
func (v view) positions() iter.Seq2[int32, int32] {
	return func(yield func(l, r int32) bool) {
		if v.pairs == nil {
			for i := range int32(v.n) {
				if !yield(i, i) {
					return
				}
			}
			return
		}
		for _, c := range v.pairs {
			for _, m := range c {
				if !yield(m.l, m.r) {
					return
				}
			}
		}
	}
}

// flat resolves a paired view into one index vector per part; a flat view
// is returned as it is.
func (v view) flat() view {
	if v.pairs == nil {
		return v
	}
	parts := make([]part, len(v.parts))
	for j, p := range v.parts {
		idx := make([]int32, 0, v.n)
		right := j >= v.split
		//tdb:hotpath
		for l, r := range v.positions() {
			if right {
				l = r
			}
			idx = append(idx, p.pos(l))
		}
		parts[j] = part{src: p.src, idx: idx, w: p.w}
	}
	return view{n: v.n, parts: parts}
}

// pick narrows a flat view to its rows at sel, in sel's order. sel becomes
// the index vector of every identity part, so the caller hands it over and
// never writes it again; any other part composes it into a vector of its
// own.
func (v view) pick(sel []int32) view {
	parts := make([]part, len(v.parts))
	for j, p := range v.parts {
		if p.idx != nil {
			idx := make([]int32, len(sel))
			//tdb:hotpath
			for k, s := range sel {
				idx[k] = p.idx[s]
			}
			p.idx = idx
		} else {
			p.idx = sel
		}
		parts[j] = p
	}
	return view{n: len(sel), parts: parts}
}

// reader reads a flat view's rows by position: a single part's rows as
// they are, a multi-part view's concatenated into one reused buffer, which
// the next read overwrites.
type reader struct {
	parts []part
	buf   relation.Row
}

func (v view) reader() *reader {
	return &reader{parts: v.flat().parts}
}

// at returns row i.
func (rd *reader) at(i int32) relation.Row {
	if len(rd.parts) == 1 {
		p := rd.parts[0]
		return p.src[p.pos(i)]
	}
	rd.buf = rd.buf[:0]
	for _, p := range rd.parts {
		rd.buf = append(rd.buf, p.src[p.pos(i)]...)
	}
	return rd.buf
}

// shred returns the view's lifespans as endpoint columns in view order.
func (v view) shred(span func(relation.Row) interval.Interval) (ts, te []interval.Time) {
	cols := make([]interval.Time, 2*v.n)
	ts, te = cols[:v.n:v.n], cols[v.n:]
	rd := v.reader()
	//tdb:hotpath
	for i := range ts {
		iv := span(rd.at(int32(i)))
		ts[i], te[i] = iv.Start, iv.End
	}
	return ts, te
}

// buildEvery is how many rows the sink builds between Interrupt polls.
const buildEvery = 8192

// cellMove copies cell from of a part's row to cell to of an output row.
type cellMove struct{ from, to int }

// sinkPart is a part as the sink reads it: its row is the one at the
// match's r (right) or l, and its cells land where moves put them.
type sinkPart struct {
	part
	right bool
	moves []cellMove
}

// fill writes the output row of the match (l, r) into row.
func fill(row relation.Row, sps []sinkPart, l, r int32) {
	for i := range sps {
		sp := &sps[i]
		k := l
		if sp.right {
			k = r
		}
		src := sp.src[sp.pos(k)]
		for _, m := range sp.moves {
			row[m.to] = src[m.from]
		}
	}
}

// build is the sink, the one place the executor builds rows: it writes
// the view's rows — under cols, the cells cols names, in that order (nil:
// every cell) — into one value arena of the exact size, sliced into
// full-capacity rows, polling Options.Interrupt once per buildEvery rows.
// A flat single-part view at full width needs no cell copied: its rows
// are handed on by reference, each clipped to its length, so no
// append to an output row can write into its source; an identity view
// whose rows are all full-capacity is handed on as it is. Returns nil for
// an empty view, the nil-on-empty convention.
func (ex *executor) build(v view, cols []int) ([]relation.Row, error) {
	if v.n == 0 {
		return nil, nil
	}
	if cols == nil && len(v.parts) == 1 && v.pairs == nil {
		p := v.parts[0]
		if p.idx == nil && !slices.ContainsFunc(p.src[:v.n], func(r relation.Row) bool { return cap(r) != len(r) }) {
			return p.src[:v.n:v.n], nil
		}
		rows := make([]relation.Row, v.n)
		//tdb:hotpath
		for i := range rows {
			if i%buildEvery == 0 {
				if err := ex.checkInterrupt(); err != nil {
					return nil, err
				}
			}
			r := p.src[p.pos(int32(i))]
			rows[i] = r[:len(r):len(r)]
		}
		return rows, nil
	}
	rows := make([]relation.Row, v.n)
	sps, w := sinkParts(v, cols)
	if w == 0 {
		for i := range rows {
			rows[i] = relation.Row{}
		}
		return rows, nil
	}
	arena := make([]value.Value, v.n*w)
	i := 0
	//tdb:hotpath
	for l, r := range v.positions() {
		if i%buildEvery == 0 {
			if err := ex.checkInterrupt(); err != nil {
				return nil, err
			}
		}
		rows[i] = arena[i*w : i*w+w : i*w+w]
		fill(rows[i], sps, l, r)
		i++
	}
	return rows, nil
}

// sinkParts lays the view's parts out for build under cols (nil: every
// cell, in order) and returns them with the output row width.
func sinkParts(v view, cols []int) ([]sinkPart, int) {
	split := v.split
	if v.pairs == nil {
		split = len(v.parts)
	}
	if cols == nil {
		for _, p := range v.parts {
			for range p.w {
				cols = append(cols, len(cols))
			}
		}
	}
	sps := make([]sinkPart, len(v.parts))
	off := 0
	for j, p := range v.parts {
		sps[j] = sinkPart{part: p, right: j >= split}
		for to, c := range cols {
			if c >= off && c < off+p.w {
				sps[j].moves = append(sps[j].moves, cellMove{from: c - off, to: to})
			}
		}
		off += p.w
	}
	return sps, len(cols)
}
