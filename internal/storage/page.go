// Package storage implements the paged secondary-storage substrate under
// the stream processors: heap files of encoded rows on fixed-size pages, a
// buffer pool with LRU replacement and I/O accounting, sequential scans,
// external multiway merge sort, and CSV import/export.
//
// The paper's third stream processing tradeoff — multiple passes over input
// streams, i.e. the number of disk accesses (Section 4.1) — is what this
// package makes measurable: every page fetched from the backing file is
// counted, so the experiments can report the pass behaviour of pre-sorted
// single-scan plans against sort-then-stream plans.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// pageHeaderSize is the per-page bookkeeping: record count (2 bytes), used
// bytes (2 bytes), and a CRC-32C checksum of the payload (4 bytes). The
// checksum is what turns a torn (partial) page write into a detected
// ErrCorruptPage on the next read instead of rows silently decoded from
// zero-filled bytes. Row pages (heap files) and key pages (external-sort
// runs, keysort.go) share the header; files are only ever created, never
// reopened by a later build, so the checksum is not a persisted format.
const pageHeaderSize = 8

// ErrCorruptPage is wrapped by every page-decode failure: short page,
// impossible header, checksum mismatch, or truncated row.
var ErrCorruptPage = errors.New("storage: corrupt page")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealPage writes the header for a page holding count records in
// buf[pageHeaderSize:used].
func sealPage(buf []byte, count, used int) {
	binary.LittleEndian.PutUint16(buf[0:2], uint16(count))
	binary.LittleEndian.PutUint16(buf[2:4], uint16(used))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[pageHeaderSize:used], castagnoli))
}

// openPage validates a sealed page image — length, header, checksum — and
// returns its record count and used bytes. Every failure wraps
// ErrCorruptPage.
func openPage(buf []byte) (count, used int, err error) {
	if len(buf) < pageHeaderSize {
		return 0, 0, fmt.Errorf("%w: short page (%d bytes)", ErrCorruptPage, len(buf))
	}
	count = int(binary.LittleEndian.Uint16(buf[0:2]))
	used = int(binary.LittleEndian.Uint16(buf[2:4]))
	if used > len(buf) || used < pageHeaderSize {
		return 0, 0, fmt.Errorf("%w: used=%d", ErrCorruptPage, used)
	}
	if sum := binary.LittleEndian.Uint32(buf[4:8]); sum != crc32.Checksum(buf[pageHeaderSize:used], castagnoli) {
		return 0, 0, fmt.Errorf("%w: checksum mismatch (torn write?)", ErrCorruptPage)
	}
	return count, used, nil
}

// page is one fixed-size block of encoded rows, appended front to back.
type page struct {
	buf  [PageSize]byte
	rows int
	used int
}

func newPage() *page { return &page{used: pageHeaderSize} }

// tryAdd encodes a row onto the page in place; it reports false when the
// row does not fit the space left.
func (p *page) tryAdd(row relation.Row) bool {
	if p.used+rowSize(row) > PageSize {
		return false
	}
	p.used = len(encodeRow(p.buf[:p.used], row))
	p.rows++
	return true
}

// finalize writes the header fields into the buffer.
func (p *page) finalize() { sealPage(p.buf[:], p.rows, p.used) }

// decodePage parses a finalized page image and appends its rows to dst.
// The page's rows share one value arena and its string cells one copy of
// the payload, so a page costs two allocations however many rows it holds;
// rows are full-capacity slices of the arena, so an append to one cannot
// reach the next. Every failure wraps ErrCorruptPage.
func decodePage(dst []relation.Row, buf []byte, schema *relation.Schema) ([]relation.Row, error) {
	n, used, err := openRowPage(buf, schema)
	if err != nil {
		return nil, err
	}
	arity := schema.Arity()
	text := string(buf[:used])
	arena := make([]value.Value, n*arity)
	off := pageHeaderSize
	for i := 0; i < n; i++ {
		row := arena[i*arity : (i+1)*arity : (i+1)*arity]
		if off, err = decodeRow(row, text, off, schema); err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrCorruptPage, i, err)
		}
		dst = append(dst, row)
	}
	return dst, nil
}

// openRowPage is openPage for a row page of the schema: it also rejects a
// record count that cannot fit the used bytes.
func openRowPage(buf []byte, schema *relation.Schema) (count, used int, err error) {
	if count, used, err = openPage(buf); err != nil {
		return 0, 0, err
	}
	if least := minRowSize(schema); count*least > used-pageHeaderSize {
		return 0, 0, fmt.Errorf("%w: %d rows of at least %d bytes in %d", ErrCorruptPage, count, least, used-pageHeaderSize)
	}
	return count, used, nil
}

// pageKeys walks a row page without decoding it: per row it appends the
// cells of columns tsCol and teCol (8-byte kinds) to ts and te and, when
// rids is not nil, base plus the row's byte offset in the page to rids.
// String cells are skipped by their length prefix. It fails exactly when
// decodePage fails, with an error wrapping ErrCorruptPage; what it appended
// before the failure is then garbage.
func pageKeys(buf []byte, schema *relation.Schema, tsCol, teCol int, ts, te []interval.Time, rids []int64, base int64) ([]interval.Time, []interval.Time, []int64, error) {
	n, used, err := openRowPage(buf, schema)
	if err != nil {
		return ts, te, rids, err
	}
	b := buf[:used]
	off := pageHeaderSize
	for i := 0; i < n; i++ {
		if rids != nil {
			rids = append(rids, base+int64(off))
		}
		var from, to interval.Time
		for c, col := range schema.Cols {
			if col.Kind == value.KindString {
				if off+2 > len(b) {
					return ts, te, rids, fmt.Errorf("%w: row %d: truncated string length", ErrCorruptPage, i)
				}
				off += 2 + int(binary.LittleEndian.Uint16(b[off:off+2]))
				if off > len(b) {
					return ts, te, rids, fmt.Errorf("%w: row %d: truncated string body", ErrCorruptPage, i)
				}
				continue
			}
			if off+8 > len(b) {
				return ts, te, rids, fmt.Errorf("%w: row %d: truncated %s", ErrCorruptPage, i, col.Kind)
			}
			v := interval.Time(binary.LittleEndian.Uint64(b[off : off+8]))
			if c == tsCol {
				from = v
			}
			if c == teCol {
				to = v
			}
			off += 8
		}
		ts, te = append(ts, from), append(te, to)
	}
	return ts, te, rids, nil
}

// Row encoding: per column, ints and times as 8-byte little-endian, strings
// as a 2-byte length prefix plus bytes.

// rowSize returns the encoded size of the row.
func rowSize(row relation.Row) int {
	size := 0
	for _, v := range row {
		if v.Kind() == value.KindString {
			size += 2 + len(v.AsString())
		} else {
			size += 8
		}
	}
	return size
}

// minRowSize returns the least number of bytes a row of the schema encodes
// to (every string empty).
func minRowSize(schema *relation.Schema) int {
	size := 0
	for _, col := range schema.Cols {
		if col.Kind == value.KindString {
			size += 2
		} else {
			size += 8
		}
	}
	return size
}

// encodeRow appends the row's encoding to dst.
func encodeRow(dst []byte, row relation.Row) []byte {
	for _, v := range row {
		switch v.Kind() {
		case value.KindString:
			s := v.AsString()
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
			dst = append(dst, s...)
		default:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.AsInt()))
		}
	}
	return dst
}

// decodeRow parses one row of the schema from text at off into row (one
// cell per column) and returns the offset past it. String cells are slices
// of text, not copies.
func decodeRow(row relation.Row, text string, off int, schema *relation.Schema) (int, error) {
	for c, col := range schema.Cols {
		if col.Kind == value.KindString {
			if off+2 > len(text) {
				return 0, fmt.Errorf("truncated string length")
			}
			n := int(le16(text, off))
			off += 2
			if off+n > len(text) {
				return 0, fmt.Errorf("truncated string body")
			}
			row[c] = value.String_(text[off : off+n])
			off += n
			continue
		}
		if off+8 > len(text) {
			return 0, fmt.Errorf("truncated %s", col.Kind)
		}
		v := int64(le64(text, off))
		if col.Kind == value.KindTime {
			row[c] = value.TimeVal(interval.Time(v))
		} else {
			row[c] = value.Int(v)
		}
		off += 8
	}
	return off, nil
}

// le16 and le64 read little-endian words from a string, as
// binary.LittleEndian does from a byte slice.
func le16(s string, off int) uint16 {
	return uint16(s[off]) | uint16(s[off+1])<<8
}

func le64(s string, off int) uint64 {
	_ = s[off+7]
	return uint64(s[off]) | uint64(s[off+1])<<8 | uint64(s[off+2])<<16 | uint64(s[off+3])<<24 |
		uint64(s[off+4])<<32 | uint64(s[off+5])<<40 | uint64(s[off+6])<<48 | uint64(s[off+7])<<56
}
