package storage

import (
	"fmt"
	"os"

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

// createTemp is os.CreateTemp; tests replace it to count the files a sort
// creates.
var createTemp = os.CreateTemp

// createRun creates an external-sort spill file in dir under a name of its
// own (os.CreateTemp), so sorts sharing a spill directory never open each
// other's files.
func createRun(dir string) (*os.File, error) {
	f, err := createTemp(dir, "run-*.tdb")
	if err != nil {
		return nil, fmt.Errorf("storage: create sort run: %w", err)
	}
	return f, nil
}

// discardRun closes and deletes a run file; runs are scratch, so a failure
// to do either loses nothing the caller could act on.
func discardRun(f *os.File) {
	_ = f.Close()
	_ = os.Remove(f.Name())
}

// ExternalSort sorts the rows of in by the comparison function using
// run generation bounded to memRows rows of workspace, followed by a single
// multiway merge of the run files in dir. It returns the sorted stream and
// fills stats (which may be nil). The sort is stable at every memRows: runs
// are consecutive chunks of the input, each sorted stably, and the merge
// breaks ties by run index.
//
// With memRows ≥ input size the sort degenerates to one in-memory run and
// no merge I/O; with smaller workspaces the experiments observe the extra
// read/write passes that buying the stream algorithms' sort order costs.
//
// This is the general, row-moving form, for an arbitrary comparison. The
// engine never calls it: every order it establishes is a temporal one, and
// those spill as keys (ExternalSortKeys).
func ExternalSort(in stream.Stream[relation.Row], schema *relation.Schema,
	less func(a, b relation.Row) bool, memRows int, dir string, stats *SortStats) (stream.Stream[relation.Row], error) {
	if memRows < 1 {
		memRows = 1
	}

	var runs []*HeapFile
	cleanup := func() {
		for _, r := range runs {
			discardRun(r.f)
		}
	}

	buf := make([]relation.Row, 0, memRows)
	flushRun := func() error {
		if len(buf) == 0 {
			return nil
		}
		sortRows(buf, less)
		f, err := createRun(dir)
		if err != nil {
			return err
		}
		hf := newHeapFile(f, schema, 1)
		runs = append(runs, hf)
		if err := hf.AppendAll(buf); err != nil {
			return err
		}
		if err := hf.Flush(); err != nil {
			return err
		}
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
		sortRows(buf, less)
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
	return &mergeStream{runs: runs, less: less, stats: stats}, nil
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
// of run heads under before — a strict order (ties go to the lower run
// index), so the merged sequence does not depend on heap mechanics.
type mergeStream struct {
	runs  []*HeapFile
	scans []stream.Stream[relation.Row]
	heads []runHead
	less  func(a, b relation.Row) bool
	stats *SortStats
	err   error
	init  bool
}

type runHead struct {
	row relation.Row
	run int
}

// before is the merge's strict order over heads of different runs: by the
// comparison, ties to the lower run — decided with one call by asking the
// question the run indexes leave open.
func (m *mergeStream) before(a, b *runHead) bool {
	if a.run > b.run {
		return m.less(a.row, b.row)
	}
	return !m.less(b.row, a.row)
}

// siftDown restores the heap below position i.
func (m *mergeStream) siftDown(i int) {
	h := m.heads
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && m.before(&h[c+1], &h[c]) {
			c++
		}
		if !m.before(&h[c], &h[i]) {
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
				m.heads = append(m.heads, runHead{row: row, run: i})
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
		m.heads[0] = runHead{row: row, run: top.run}
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
		discardRun(r.f)
	}
	m.runs = nil
}
