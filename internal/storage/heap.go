package storage

import (
	"fmt"
	"io"
	"os"
	"sync"

	"tdb/internal/fault"
	"tdb/internal/relation"
	"tdb/internal/stream"
)

func init() {
	fault.Declare("storage/page-read", "heap file and sort run page fetch (readPageAt)")
	fault.Declare("storage/page-write", "heap file and sort run page flush; torn mode writes a prefix")
}

// IOStats counts physical page traffic against the backing file and buffer
// pool hits.
type IOStats struct {
	PagesRead    int64
	PagesWritten int64
	PoolHits     int64
}

// HeapFile is an append-only paged file of encoded rows of one schema.
// Reads (Scan, ScanRange, readPage) are safe to run concurrently; writes
// (Append, Flush) are not, and must not overlap with reads.
type HeapFile struct {
	f      *os.File
	schema *relation.Schema
	pages  int64
	rows   int64
	cur    *page
	stats  *IOStats
	pool   *bufferPool
	mu     sync.Mutex // guards pool and stats during concurrent reads
}

// Create creates (or truncates) a heap file at path with the given schema
// and a buffer pool of poolPages frames (minimum 1).
func Create(path string, schema *relation.Schema, poolPages int) (*HeapFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	return newHeapFile(f, schema, poolPages), nil
}

func newHeapFile(f *os.File, schema *relation.Schema, poolPages int) *HeapFile {
	stats := &IOStats{}
	return &HeapFile{
		f:      f,
		schema: schema,
		cur:    newPage(),
		stats:  stats,
		pool:   newBufferPool(poolPages, stats),
	}
}

// writePageAt and readPageAt are the two physical page operations, shared
// by heap files and key runs: the failpoints and the live counters sit here.

// writePageAt writes one sealed page image as page i of f. Failpoint: error
// mode fails the write; torn mode persists only a prefix of the page — the
// checksum catches it on the next read.
func writePageAt(f *os.File, i int64, buf *[PageSize]byte) error {
	n, ferr := fault.Torn("storage/page-write", PageSize)
	if ferr != nil {
		return fmt.Errorf("storage: write page %d: %w", i, ferr)
	}
	if _, err := f.WriteAt(buf[:n], i*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", i, err)
	}
	obsPageWritten()
	return nil
}

// readPageAt fills buf with page i of f; a page cut short by a torn write
// reads as its prefix followed by zeros, and fails its checksum.
func readPageAt(f *os.File, i int64, buf *[PageSize]byte) error {
	obsPageRead()
	if ferr := fault.Check("storage/page-read"); ferr != nil {
		return fmt.Errorf("storage: read page %d: %w", i, ferr)
	}
	n, err := f.ReadAt(buf[:], i*PageSize)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", i, err)
	}
	clear(buf[n:])
	return nil
}

// Schema returns the row schema of the file.
func (h *HeapFile) Schema() *relation.Schema { return h.schema }

// Stats returns the live I/O counters of the file.
func (h *HeapFile) Stats() *IOStats { return h.stats }

// Pages returns the number of full pages written so far (excluding the
// open tail page).
func (h *HeapFile) Pages() int64 { return h.pages }

// Rows returns the number of rows appended so far.
func (h *HeapFile) Rows() int64 { return h.rows }

// Append encodes and adds one row, spilling full pages to disk.
func (h *HeapFile) Append(row relation.Row) error {
	if size := rowSize(row); size+pageHeaderSize > PageSize {
		return fmt.Errorf("storage: row of %d bytes exceeds page size", size)
	}
	if !h.cur.tryAdd(row) {
		if err := h.flushCurrent(); err != nil {
			return err
		}
		h.cur.tryAdd(row) // fits: the page is empty and the row was sized above
	}
	h.rows++
	return nil
}

// AppendAll appends every row of the slice.
func (h *HeapFile) AppendAll(rows []relation.Row) error {
	for _, r := range rows {
		if err := h.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// Flush forces the open tail page to disk (if it holds any rows).
func (h *HeapFile) Flush() error {
	if h.cur.rows == 0 {
		return nil
	}
	return h.flushCurrent()
}

func (h *HeapFile) flushCurrent() error {
	h.cur.finalize()
	if err := writePageAt(h.f, h.pages, &h.cur.buf); err != nil {
		return err
	}
	h.stats.PagesWritten++
	h.pages++
	h.cur = newPage()
	// The just-written page may be cached.
	return nil
}

// readPage returns the decoded rows of page i, through the buffer pool.
// Decoding runs outside the lock: parallel scan workers read disjoint page
// ranges, so the pool is contended only briefly per page.
func (h *HeapFile) readPage(i int64) ([]relation.Row, error) {
	h.mu.Lock()
	if rows, ok := h.pool.get(i); ok {
		h.mu.Unlock()
		return rows, nil
	}
	h.stats.PagesRead++
	h.mu.Unlock()
	var buf [PageSize]byte
	if err := readPageAt(h.f, i, &buf); err != nil {
		return nil, err
	}
	rows, err := decodePage(buf[:], h.schema)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.pool.put(i, rows)
	h.mu.Unlock()
	return rows, nil
}

// Scan returns a stream over all rows, in file order. Each Scan that
// touches disk pages counts toward PagesRead unless served by the pool.
func (h *HeapFile) Scan() stream.Stream[relation.Row] {
	return h.ScanRange(0, h.pages+1)
}

// ScanRange returns a stream over the rows of flushed pages [lo, min(hi,
// Pages())), in file order. If hi exceeds Pages(), the open in-memory
// tail page is drained after the last flushed page, so ScanRange(0,
// Pages()+1) is equivalent to Scan(). Disjoint ranges may be consumed
// concurrently; each page read is counted once.
func (h *HeapFile) ScanRange(lo, hi int64) stream.Stream[relation.Row] {
	if lo < 0 {
		lo = 0
	}
	withTail := hi > h.pages
	if hi > h.pages {
		hi = h.pages
	}
	return &heapScan{h: h, page: lo, end: hi, tailDone: !withTail}
}

type heapScan struct {
	h        *HeapFile
	page     int64
	end      int64 // first flushed page beyond the range
	rows     []relation.Row
	i        int
	err      error
	tailDone bool
}

func (s *heapScan) Next() (relation.Row, bool) {
	for {
		if s.err != nil {
			return nil, false
		}
		if s.i < len(s.rows) {
			r := s.rows[s.i]
			s.i++
			return r, true
		}
		if s.page < s.end {
			rows, err := s.h.readPage(s.page)
			if err != nil {
				s.err = err
				return nil, false
			}
			s.rows, s.i = rows, 0
			s.page++
			continue
		}
		// All flushed pages of the range consumed: drain the open
		// in-memory tail page if the range extends past the file.
		if !s.tailDone {
			s.tailDone = true
			if s.h.cur.rows > 0 {
				s.h.cur.finalize()
				rows, err := decodePage(s.h.cur.buf[:], s.h.schema)
				if err != nil {
					s.err = err
					return nil, false
				}
				s.rows, s.i = rows, 0
				continue
			}
		}
		return nil, false
	}
}

func (s *heapScan) Err() error { return s.err }

// Close flushes and closes the backing file.
func (h *HeapFile) Close() error {
	if err := h.Flush(); err != nil {
		_ = h.f.Close() // best-effort cleanup; the flush error wins
		return err
	}
	return h.f.Close()
}

// bufferPool is a tiny LRU page cache.
type bufferPool struct {
	cap   int
	stats *IOStats
	pages map[int64][]relation.Row
	order []int64 // LRU order, least recent first
}

func newBufferPool(cap int, stats *IOStats) *bufferPool {
	if cap < 1 {
		cap = 1
	}
	return &bufferPool{cap: cap, stats: stats, pages: make(map[int64][]relation.Row)}
}

func (b *bufferPool) get(i int64) ([]relation.Row, bool) {
	rows, ok := b.pages[i]
	if !ok {
		return nil, false
	}
	b.stats.PoolHits++
	obsPoolHit()
	b.touch(i)
	return rows, true
}

func (b *bufferPool) put(i int64, rows []relation.Row) {
	if _, ok := b.pages[i]; !ok && len(b.pages) >= b.cap {
		victim := b.order[0]
		b.order = b.order[1:]
		delete(b.pages, victim)
	}
	b.pages[i] = rows
	b.touch(i)
}

func (b *bufferPool) touch(i int64) {
	for k, v := range b.order {
		if v == i {
			b.order = append(b.order[:k], b.order[k+1:]...)
			break
		}
	}
	b.order = append(b.order, i)
}
