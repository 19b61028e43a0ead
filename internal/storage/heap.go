package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"tdb/internal/fault"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/stream"
	"tdb/internal/value"
)

func init() {
	fault.Declare("storage/page-read", "heap file and sort run page fetch (readPageAt)")
	fault.Declare("storage/page-write", "heap file and sort run page flush; torn mode writes a prefix")
}

// IOStats counts physical page traffic against the backing file, buffer
// pool hits, and the rows decoded from the file's pages.
type IOStats struct {
	PagesRead    int64
	PagesWritten int64
	PoolHits     int64
	// RowsDecoded counts rows turned from page bytes into values: every
	// row of a page a row scan reads, and each row a key scan's caller
	// decodes by position (PageRows.Decode). It is updated with
	// atomic.AddInt64, not held in an atomic.Int64, so IOStats stays a
	// plain value callers copy.
	RowsDecoded int64
}

// HeapFile is an append-only paged file of encoded rows of one schema.
// Reads (Scan, ReadRows, ScanKeys, PageRows.Decode) are safe to run
// concurrently; writes (Append, Flush) are not, and must not overlap
// with reads.
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

// readPage fills buf with the image of flushed page i, from the buffer pool
// or, on a miss, from disk, caching the image in a recycled frame; disk
// reports a miss. The caller's buffer is its own, so concurrent readers
// hold the pool's lock only to copy a frame.
func (h *HeapFile) readPage(i int64, buf *[PageSize]byte) (disk bool, err error) {
	h.mu.Lock()
	hit := h.pool.get(i, buf)
	if !hit {
		h.stats.PagesRead++
	}
	h.mu.Unlock()
	if hit {
		return false, nil
	}
	if err := readPageAt(h.f, i, buf); err != nil {
		return true, err
	}
	h.mu.Lock()
	h.pool.put(i, buf)
	h.mu.Unlock()
	return true, nil
}

// image returns the image of page i in buf: a flushed page read through
// the pool, or, for i = Pages(), a copy of the open tail page, sealed under
// the pool's lock because concurrent readers all seal it; nil when the
// tail holds no rows. disk reports a read from disk.
func (h *HeapFile) image(i int64, buf *[PageSize]byte) (img []byte, disk bool, err error) {
	if i < h.pages {
		disk, err = h.readPage(i, buf)
		return buf[:], disk, err
	}
	if h.cur.rows == 0 {
		return nil, false, nil
	}
	h.mu.Lock()
	h.cur.finalize()
	*buf = h.cur.buf
	h.mu.Unlock()
	return buf[:], false, nil
}

// walkPages is the one page walker under row scans and key scans: it calls
// fn with the image of each page of the file, the open tail last, in file
// order, and returns how many pages it read from disk rather than the
// pool. Every page is read into one buffer that the next overwrites: fn
// copies what it keeps. check, when not nil, runs before each page and
// stops the walk with its error.
func (h *HeapFile) walkPages(check func() error, fn func(img []byte) error) (pagesRead int64, err error) {
	var buf [PageSize]byte
	for i := int64(0); i <= h.pages; i++ {
		if check != nil {
			if err := check(); err != nil {
				return pagesRead, err
			}
		}
		img, disk, err := h.image(i, &buf)
		if disk {
			pagesRead++
		}
		if err != nil {
			return pagesRead, err
		}
		if img == nil {
			continue
		}
		if err := fn(img); err != nil {
			return pagesRead, err
		}
	}
	return pagesRead, nil
}

// ReadRows returns every row of the file, in file order, decoded a page at
// a time, and the number of pages it read from disk, not the pool: a
// count of its own, which concurrent readers of the file do not disturb.
// check is as for walkPages.
func (h *HeapFile) ReadRows(check func() error) ([]relation.Row, int64, error) {
	dst := make([]relation.Row, 0, h.rows)
	pagesRead, err := h.walkPages(check, func(img []byte) error {
		n := len(dst)
		var err error
		if dst, err = decodePage(dst, img, h.schema); err != nil {
			return err
		}
		atomic.AddInt64(&h.stats.RowsDecoded, int64(len(dst)-n))
		return nil
	})
	if err != nil {
		return nil, pagesRead, err
	}
	return dst, pagesRead, nil
}

// Keys is a key scan's result: the lifespans of a heap file's rows as
// endpoint columns, in file order, and, when the scan kept them, the rows
// themselves, decodable by position.
type Keys struct {
	TS, TE []interval.Time
	Rows   *PageRows // nil unless the scan kept its pages
	// PagesRead counts the pages the scan read from disk, not the pool.
	PagesRead int64
}

// PageRows holds the rows behind a key scan undecoded: a copy of each
// scanned page's used bytes and, per row, its RID — the index of its page
// among them times PageSize plus its byte offset in the page. Decode turns
// one row into values; rows nobody decodes never are.
type PageRows struct {
	h     *HeapFile
	pages []string
	rids  []int64
}

// Arity returns the number of cells of a decoded row.
func (p *PageRows) Arity() int { return p.h.schema.Arity() }

// PerPage returns the average number of rows per page, at least 1: a
// caller decoding rows in arbitrary order can poll once per PerPage rows,
// about once per page's worth of work.
func (p *PageRows) PerPage() int {
	if len(p.pages) == 0 {
		return 1
	}
	return max(1, len(p.rids)/len(p.pages))
}

// Decode decodes row i of the key scan into dst, one cell per column; its
// string cells share the page copy. The key scan validated every row it
// recorded, so an error here means the copy was damaged in memory.
func (p *PageRows) Decode(dst relation.Row, i int32) error {
	rid := p.rids[i]
	if _, err := decodeRow(dst, p.pages[rid/PageSize], int(rid%PageSize), p.h.schema); err != nil {
		return fmt.Errorf("%w: row %d: %v", ErrCorruptPage, i, err)
	}
	atomic.AddInt64(&p.h.stats.RowsDecoded, 1)
	return nil
}

// ScanKeys makes one pass over the file's pages and returns their rows'
// lifespans, in file order, read from columns tsCol and teCol (8-byte
// kinds) without decoding a row. With keep it also keeps each page's used
// bytes and each row's RID in Keys.Rows — the open tail page is copied
// like any other, so rows appended later do not reach it. check is as for
// walkPages. The columns are exactly as long as the file has rows.
func (h *HeapFile) ScanKeys(tsCol, teCol int, keep bool, check func() error) (*Keys, error) {
	for _, c := range []int{tsCol, teCol} {
		if c < 0 || c >= h.schema.Arity() || h.schema.Cols[c].Kind == value.KindString {
			return nil, fmt.Errorf("storage: key scan of column %d of %s", c, h.schema)
		}
	}
	n := h.rows
	k := &Keys{TS: make([]interval.Time, 0, n), TE: make([]interval.Time, 0, n)}
	var rids []int64
	if keep {
		k.Rows = &PageRows{h: h, pages: make([]string, 0, h.pages+1)}
		rids = make([]int64, 0, n)
	}
	var err error
	k.PagesRead, err = h.walkPages(check, func(img []byte) error {
		var base int64
		if keep {
			base = int64(len(k.Rows.pages)) * PageSize
		}
		var err error
		if k.TS, k.TE, rids, err = pageKeys(img, h.schema, tsCol, teCol, k.TS, k.TE, rids, base); err != nil {
			return err
		}
		if keep {
			k.Rows.pages = append(k.Rows.pages, string(img[:binary.LittleEndian.Uint16(img[2:4])]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if keep {
		k.Rows.rids = rids
	}
	return k, nil
}

// Scan returns a stream over all rows, in file order, the open tail page
// last. Each Scan that touches disk pages counts toward PagesRead unless
// served by the pool.
func (h *HeapFile) Scan() stream.Stream[relation.Row] {
	return &heapScan{h: h, end: h.pages + 1}
}

// heapScan is the pull form of ReadRows: it decodes one page at a time
// into a row slice it reuses.
type heapScan struct {
	h    *HeapFile
	page int64 // next page to decode
	end  int64 // one past the open tail page, as it was when the scan began
	buf  [PageSize]byte
	rows []relation.Row
	i    int
	err  error
}

func (s *heapScan) Next() (relation.Row, bool) {
	for s.err == nil {
		if s.i < len(s.rows) {
			s.i++
			return s.rows[s.i-1], true
		}
		if s.page >= s.end {
			return nil, false
		}
		var img []byte
		if img, _, s.err = s.h.image(s.page, &s.buf); s.err != nil || img == nil {
			s.page++
			continue
		}
		s.page++
		if s.rows, s.err = decodePage(s.rows[:0], img, s.h.schema); s.err == nil {
			atomic.AddInt64(&s.h.stats.RowsDecoded, int64(len(s.rows)))
			s.i = 0
		}
	}
	return nil, false
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

// bufferPool caches page images in at most cap fixed frames, evicting the
// least recently used: get and put are O(1), and once the pool is full a
// miss recycles the victim's frame instead of allocating.
type bufferPool struct {
	cap    int
	stats  *IOStats
	frames map[int64]*frame
	lru    frame // list sentinel: lru.next is the most recently used frame
}

// frame is one pool slot: a page image and its place in the LRU list.
type frame struct {
	buf        [PageSize]byte
	page       int64
	prev, next *frame
}

func newBufferPool(cap int, stats *IOStats) *bufferPool {
	if cap < 1 {
		cap = 1
	}
	b := &bufferPool{cap: cap, stats: stats, frames: make(map[int64]*frame)}
	b.lru.prev, b.lru.next = &b.lru, &b.lru
	return b
}

// get copies page i into dst if the pool holds it.
func (b *bufferPool) get(i int64, dst *[PageSize]byte) bool {
	f, ok := b.frames[i]
	if !ok {
		return false
	}
	b.stats.PoolHits++
	obsPoolHit()
	b.unlink(f)
	b.pushFront(f)
	*dst = f.buf
	return true
}

// put caches a copy of page i, in a new frame while the pool has room and
// in the least recently used one's after.
func (b *bufferPool) put(i int64, src *[PageSize]byte) {
	f, ok := b.frames[i]
	switch {
	case ok:
		b.unlink(f)
	case len(b.frames) < b.cap:
		f = &frame{}
	default:
		f = b.lru.prev
		b.unlink(f)
		delete(b.frames, f.page)
	}
	f.page, f.buf = i, *src
	b.frames[i] = f
	b.pushFront(f)
}

func (b *bufferPool) unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
}

func (b *bufferPool) pushFront(f *frame) {
	f.prev, f.next = &b.lru, b.lru.next
	b.lru.next.prev = f
	b.lru.next = f
}
