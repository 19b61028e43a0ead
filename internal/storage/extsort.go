package storage

import (
	"fmt"
	"os"
	"path/filepath"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/stream"
)

// SortStats reports the pass structure of an external sort: how many sorted
// runs were produced and how many times the data was read and written in
// total — the "multiple passes over input streams" cost of Section 4.1 that
// pre-sorted data avoids.
type SortStats struct {
	Runs         int
	PagesRead    int64
	PagesWritten int64
}

// rowOrder is one external sort's ordering, in the two forms its phases
// need: a stable in-memory sort of a run buffer, and a strict order over
// merge heads. It is either a comparison (less) or a temporal order over a
// lifespan accessor (span, order); both forms share one run writer and one
// merge, and both are stable — runs are consecutive chunks of the input,
// each sorted stably, and the merge breaks ties by run index — so they
// agree with each other, with relation.SortSpans, and with themselves at
// any memRows.
type rowOrder struct {
	less  func(a, b relation.Row) bool
	span  func(relation.Row) interval.Interval
	order relation.Order
}

func (ro *rowOrder) sortRun(rows []relation.Row) {
	if ro.less != nil {
		sortRows(rows, ro.less)
		return
	}
	relation.SortSpans(rows, ro.span, ro.order)
}

// head wraps a row just read from a run; the keyed form extracts the row's
// sort key here, once, instead of decoding lifespans per comparison.
func (ro *rowOrder) head(row relation.Row, run int) runHead {
	h := runHead{row: row, run: run}
	if ro.less == nil {
		h.key = ro.order.SortKey(ro.span(row))
	}
	return h
}

// before is the merge's strict order over heads of different runs: by
// the ordering, ties to the lower run — decided with one comparison by
// asking the question the run indexes leave open.
func (ro *rowOrder) before(a, b *runHead) bool {
	if a.run > b.run {
		return ro.headLess(a, b)
	}
	return !ro.headLess(b, a)
}

func (ro *rowOrder) headLess(a, b *runHead) bool {
	if ro.less != nil {
		return ro.less(a.row, b.row)
	}
	return a.key.Less(b.key)
}

// ExternalSort sorts the rows of in by the comparison function using
// run generation bounded to memRows rows of workspace, followed by a single
// multiway merge of the run files in dir. It returns the sorted stream and
// fills stats (which may be nil). The sort is stable at every memRows.
//
// With memRows ≥ input size the sort degenerates to one in-memory run and
// no merge I/O; with smaller workspaces the experiments observe the extra
// read/write passes that buying the stream algorithms' sort order costs.
func ExternalSort(in stream.Stream[relation.Row], schema *relation.Schema,
	less func(a, b relation.Row) bool, memRows int, dir string, stats *SortStats) (stream.Stream[relation.Row], error) {
	return externalSort(in, schema, rowOrder{less: less}, memRows, dir, stats)
}

// ExternalSortSpans is ExternalSort for a temporal order over the rows'
// lifespans (the only order the engine ever establishes): runs are formed
// by relation.SortSpans and the merge compares keys extracted once per row
// read. The output is row for row what SortSpans yields on the whole input.
func ExternalSortSpans(in stream.Stream[relation.Row], schema *relation.Schema,
	span func(relation.Row) interval.Interval, o relation.Order,
	memRows int, dir string, stats *SortStats) (stream.Stream[relation.Row], error) {
	return externalSort(in, schema, rowOrder{span: span, order: o}, memRows, dir, stats)
}

func externalSort(in stream.Stream[relation.Row], schema *relation.Schema,
	ord rowOrder, memRows int, dir string, stats *SortStats) (stream.Stream[relation.Row], error) {
	if memRows < 1 {
		memRows = 1
	}

	var runs []*HeapFile
	cleanup := func() {
		for _, r := range runs {
			_ = r.Close() // best-effort teardown of temporary runs
		}
	}

	buf := make([]relation.Row, 0, memRows)
	flushRun := func() error {
		if len(buf) == 0 {
			return nil
		}
		ord.sortRun(buf)
		path := filepath.Join(dir, fmt.Sprintf("run-%d.tdb", len(runs)))
		hf, err := Create(path, schema, 1)
		if err != nil {
			return err
		}
		if err := hf.AppendAll(buf); err != nil {
			_ = hf.Close() // best-effort cleanup; the append error wins
			return err
		}
		if err := hf.Flush(); err != nil {
			_ = hf.Close() // best-effort cleanup; the flush error wins
			return err
		}
		runs = append(runs, hf)
		obsSortRun()
		buf = buf[:0]
		return nil
	}

	for {
		row, ok := in.Next()
		if !ok {
			break
		}
		buf = append(buf, row)
		if len(buf) >= memRows {
			if err := flushRun(); err != nil {
				cleanup()
				return nil, err
			}
		}
	}
	if err := in.Err(); err != nil {
		cleanup()
		return nil, fmt.Errorf("storage: external sort input: %w", err)
	}

	// A single in-memory run needs no files at all.
	if len(runs) == 0 {
		ord.sortRun(buf)
		if stats != nil {
			stats.Runs = 1
		}
		return stream.FromSlice(buf), nil
	}
	if err := flushRun(); err != nil {
		cleanup()
		return nil, err
	}

	if stats != nil {
		stats.Runs = len(runs)
		for _, r := range runs {
			stats.PagesWritten += r.Stats().PagesWritten
		}
	}
	return &mergeStream{runs: runs, ord: ord, stats: stats}, nil
}

// sortRows is the comparison form's run sort: a stable top-down merge sort
// through the closure.
func sortRows(rows []relation.Row, less func(a, b relation.Row) bool) {
	if len(rows) < 2 {
		return
	}
	tmp := make([]relation.Row, len(rows))
	var ms func(lo, hi int)
	ms = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		mid := (lo + hi) / 2
		ms(lo, mid)
		ms(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if less(rows[j], rows[i]) {
				tmp[k] = rows[j]
				j++
			} else {
				tmp[k] = rows[i]
				i++
			}
			k++
		}
		for i < mid {
			tmp[k] = rows[i]
			i++
			k++
		}
		for j < hi {
			tmp[k] = rows[j]
			j++
			k++
		}
		copy(rows[lo:hi], tmp[lo:hi])
	}
	ms(0, len(rows))
}

// mergeStream is the k-way merge over run files, driven by a binary heap
// of run heads under rowOrder.before — a strict order (ties go to the lower
// run index), so the merged sequence does not depend on heap mechanics.
type mergeStream struct {
	runs  []*HeapFile
	scans []stream.Stream[relation.Row]
	heads []runHead
	ord   rowOrder
	stats *SortStats
	err   error
	init  bool
}

type runHead struct {
	row relation.Row
	key relation.SortKey
	run int
}

// siftDown restores the heap below position i.
func (m *mergeStream) siftDown(i int) {
	h := m.heads
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && m.ord.before(&h[c+1], &h[c]) {
			c++
		}
		if !m.ord.before(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (m *mergeStream) Next() (relation.Row, bool) {
	if m.err != nil {
		return nil, false
	}
	if !m.init {
		m.init = true
		m.scans = make([]stream.Stream[relation.Row], len(m.runs))
		for i, r := range m.runs {
			m.scans[i] = r.Scan()
			if row, ok := m.scans[i].Next(); ok {
				m.heads = append(m.heads, m.ord.head(row, i))
			} else if err := m.scans[i].Err(); err != nil {
				m.fail(err)
				return nil, false
			}
		}
		for i := len(m.heads)/2 - 1; i >= 0; i-- {
			m.siftDown(i)
		}
	}
	if len(m.heads) == 0 {
		m.finish()
		return nil, false
	}
	top := m.heads[0]
	if row, ok := m.scans[top.run].Next(); ok {
		m.heads[0] = m.ord.head(row, top.run)
	} else if err := m.scans[top.run].Err(); err != nil {
		m.fail(err)
		return nil, false
	} else {
		last := len(m.heads) - 1
		m.heads[0] = m.heads[last]
		m.heads = m.heads[:last]
	}
	m.siftDown(0)
	return top.row, true
}

func (m *mergeStream) Err() error { return m.err }

func (m *mergeStream) fail(err error) {
	m.err = err
	m.finish()
}

func (m *mergeStream) finish() {
	for _, r := range m.runs {
		if m.stats != nil {
			m.stats.PagesRead += r.Stats().PagesRead
		}
		name := r.f.Name()
		_ = r.Close()       // temporary run files; deletion below is the real cleanup
		_ = os.Remove(name) // best-effort: the OS reclaims temp dirs regardless
	}
	m.runs = nil
}
