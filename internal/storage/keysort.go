package storage

import (
	"encoding/binary"
	"fmt"
	"os"

	"tdb/internal/interval"
	"tdb/internal/relation"
)

// The external key sort: the spilled form of relation.OrderSpans. Its input
// is a list of lifespans as endpoint columns, its output the stable
// permutation that puts them in order; what goes through the run files is
// one fixed-width record per lifespan — the SortKey and the lifespan's index
// — and never a row. The caller keeps its rows where they are and reads
// them through the permutation, exactly as after an in-memory sort.

// keyRec is one sort record: a lifespan's position under the order and the
// index of the lifespan in the input columns.
type keyRec struct {
	key relation.SortKey
	idx int32
}

// A key page is the common page header (count, used, checksum) followed by
// count records of keyRecSize bytes: the two key words and the index,
// little-endian.
const (
	keyRecSize     = 20
	keyRecsPerPage = (PageSize - pageHeaderSize) / keyRecSize
)

// decodeKeyPage parses a sealed key page into dst[:0] and returns the
// records. n is the length of the sorted input: an index outside [0, n) is
// corruption, like a bad checksum or a count that disagrees with the used
// bytes. Every failure wraps ErrCorruptPage.
func decodeKeyPage(buf []byte, n int, dst []keyRec) ([]keyRec, error) {
	count, used, err := openPage(buf)
	if err != nil {
		return nil, err
	}
	if count > keyRecsPerPage || used != pageHeaderSize+count*keyRecSize {
		return nil, fmt.Errorf("%w: %d key records in %d bytes", ErrCorruptPage, count, used-pageHeaderSize)
	}
	dst = dst[:0]
	for b := buf[pageHeaderSize:used]; len(b) > 0; b = b[keyRecSize:] {
		idx := binary.LittleEndian.Uint32(b[16:20])
		if uint64(idx) >= uint64(n) {
			return nil, fmt.Errorf("%w: key record index %d of %d", ErrCorruptPage, idx, n)
		}
		dst = append(dst, keyRec{
			key: relation.SortKey{binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16])},
			idx: int32(idx),
		})
	}
	return dst, nil
}

// keyRun is one sorted run of key records: a range of pages of the sort's
// one spill file, written front to back while runs are formed, then read
// back a page at a time by the merge.
type keyRun struct {
	f     *os.File // the sort's spill file, shared by all of its runs
	first int64    // the run's first page in f
	pages int64    // pages the run occupies
	left  int      // records not yet read back
	next  int64    // next page to read
	recs  []keyRec // the decoded current page
	i     int      // next record of recs
}

// writeKeyRun writes the lifespans base+local[0], base+local[1], … of the
// columns as one run on f from page first on, through the page buffer, and
// returns the number of pages written.
func writeKeyRun(f *os.File, first int64, page *[PageSize]byte, ts, te []interval.Time, o relation.Order, base int, local []int32) (int64, error) {
	pages := int64(0)
	count, used := 0, pageHeaderSize
	flush := func() error {
		sealPage(page[:], count, used)
		if err := writePageAt(f, first+pages, page); err != nil {
			return err
		}
		pages++
		count, used = 0, pageHeaderSize
		return nil
	}
	for _, l := range local {
		if count == keyRecsPerPage {
			if err := flush(); err != nil {
				return pages, err
			}
		}
		j := base + int(l)
		key := o.SortKey(interval.Interval{Start: ts[j], End: te[j]})
		b := page[used : used+keyRecSize]
		binary.LittleEndian.PutUint64(b[0:8], key[0])
		binary.LittleEndian.PutUint64(b[8:16], key[1])
		binary.LittleEndian.PutUint32(b[16:20], uint32(j))
		count, used = count+1, used+keyRecSize
	}
	return pages, flush()
}

// pop returns the run's next record, reading its next page through the page
// buffer when the current one is used up; ok is false at the end of the
// run. The run's record count is known from its formation, so a page that
// brings more records than remain, or none, or a last page that leaves some
// unread, is corruption, like anything decodeKeyPage rejects.
func (r *keyRun) pop(page *[PageSize]byte, n int) (rec keyRec, ok bool, err error) {
	if r.i == len(r.recs) {
		if r.left == 0 {
			return keyRec{}, false, nil
		}
		if err := readPageAt(r.f, r.first+r.next, page); err != nil {
			return keyRec{}, false, err
		}
		r.next++
		recs, err := decodeKeyPage(page[:], n, r.recs)
		if err != nil {
			return keyRec{}, false, err
		}
		if len(recs) == 0 || len(recs) > r.left || (r.next == r.pages && len(recs) != r.left) {
			return keyRec{}, false, fmt.Errorf("%w: sort run page of %d records with %d expected", ErrCorruptPage, len(recs), r.left)
		}
		r.recs, r.i, r.left = recs, 0, r.left-len(recs)
	}
	r.i++
	return r.recs[r.i-1], true, nil
}

// keyHead is a run's current record in the merge heap.
type keyHead struct {
	keyRec
	run int
}

// before is the merge's strict order: by key, ties to the lower run — runs
// are consecutive chunks of the input, so that is input order.
func (a *keyHead) before(b *keyHead) bool {
	if a.key != b.key {
		return a.key.Less(b.key)
	}
	return a.run < b.run
}

func siftKeyHeads(h []keyHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// ExternalSortKeys establishes the order over the lifespans [ts[i], te[i])
// with a sort workspace of memRows records and returns the stable
// permutation: position i of the order holds lifespan perm[i] — the same
// permutation relation.OrderSpans computes in memory, at every memRows.
//
// Inputs of at most memRows lifespans are sorted in memory (one run, no
// I/O). Larger ones are cut into consecutive chunks of memRows; each chunk
// is sorted by relation.OrderColumns and written as (SortKey, index)
// records to a run: the next range of pages of one spill file in dir, so a
// sort holds one descriptor however many runs it forms. One multiway merge
// of the runs, ties to the lower run, yields the permutation. The file is
// deleted on every return. stats (which may be nil) receives the runs and
// the pages written and read — the Section 4.1 passes, now over 20-byte
// records instead of rows.
func ExternalSortKeys(ts, te []interval.Time, o relation.Order, memRows int, dir string, stats *SortStats) ([]int32, error) {
	n := len(ts)
	if memRows < 1 {
		memRows = 1
	}
	perm := make([]int32, n)
	if n <= memRows {
		relation.OrderColumns(ts, te, o, perm)
		if stats != nil {
			stats.Runs = 1
		}
		return perm, nil
	}

	f, err := createRun(dir)
	if err != nil {
		return nil, err
	}
	defer discardRun(f)
	runs := make([]keyRun, 0, (n+memRows-1)/memRows)
	var page [PageSize]byte
	next := int64(0) // the first page of the next run

	// Run formation. perm is not needed until the merge, so each chunk's
	// local permutation is computed in the chunk's own stretch of it.
	for lo := 0; lo < n; lo += memRows {
		hi := min(lo+memRows, n)
		local := perm[lo:hi]
		relation.OrderColumns(ts[lo:hi], te[lo:hi], o, local)
		runs = append(runs, keyRun{f: f, first: next, left: hi - lo, recs: make([]keyRec, 0, min(hi-lo, keyRecsPerPage))})
		r := &runs[len(runs)-1]
		if r.pages, err = writeKeyRun(f, next, &page, ts, te, o, lo, local); err != nil {
			return nil, err
		}
		next += r.pages
		obsSortRun()
	}

	// Merge: a binary heap of the runs' current records. Every run holds
	// at least one record.
	heads := make([]keyHead, len(runs))
	for i := range runs {
		rec, _, err := runs[i].pop(&page, n)
		if err != nil {
			return nil, err
		}
		heads[i] = keyHead{keyRec: rec, run: i}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftKeyHeads(heads, i)
	}
	for out := 0; len(heads) > 0; out++ {
		top := &heads[0]
		perm[out] = top.idx
		rec, ok, err := runs[top.run].pop(&page, n)
		if err != nil {
			return nil, err
		}
		if ok {
			top.keyRec = rec
		} else {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		siftKeyHeads(heads, 0)
	}

	if stats != nil {
		stats.Runs = len(runs)
		for i := range runs {
			stats.PagesWritten += runs[i].pages
			stats.PagesRead += runs[i].next
		}
	}
	return perm, nil
}
