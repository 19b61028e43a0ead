package engine

import (
	"sync"

	"tdb/internal/relation"
	"tdb/internal/storage"
)

// The relation index (DESIGN.md "The relation index"): what a query built
// from a registered relation's rows and a later query can use again stays
// in the relation's DB. Entries are of three kinds:
//
//   - an order of its lifespans (the endpoint index): the sorted endpoint
//     columns and the permutation back to the relation's rows, left by the
//     first ordered use of a base scan of an in-memory relation or of a
//     stored relation's key scan, whose positions are those of the heap
//     file's rows; a selection, a join output, a derived span and a stored
//     row scan each order rows no relation holds in that form, and are
//     never kept;
//   - the codes of one of its columns (codes.go), built on the first
//     equality use: a base scan's col = const selection or a self
//     equi-join on one column;
//   - a key fact (keys.go): whether a set of its columns is a key of its
//     rows, settled on the first DISTINCT projection whose proof asks, the
//     false answer kept too.

// indexBudget bounds the bytes one DB's index keeps: 20 B per row per
// order, about 12 B per row per column's codes and keyFactBytes per key
// fact, so 32 MiB holds about 1.6 million rows' orders. Past it the least
// recently used entry goes first.
const indexBudget = 32 << 20

// indexKey names one entry of one relation: an order of the lifespans its
// endpoint columns ts and te give (col -1), the codes of column col (ts
// and te -1, order empty), or the key fact of the column set cols, one bit
// per column (col, ts and te -1).
type indexKey struct {
	rel    *relation.Relation
	col    int
	ts, te int
	order  string
	cols   uint64
}

// orderKey names the order o of rel's lifespans under span.
func orderKey(rel *relation.Relation, span rowSpan, o relation.Order) indexKey {
	return indexKey{rel: rel, col: -1, ts: span.ts, te: span.te, order: o.String()}
}

// codesKey names the codes of rel's column col.
func codesKey(rel *relation.Relation, col int) indexKey {
	return indexKey{rel: rel, col: col, ts: -1, te: -1}
}

// keyFactKey names the key fact of rel's column set cols.
func keyFactKey(rel *relation.Relation, cols uint64) indexKey {
	return indexKey{rel: rel, col: -1, ts: -1, te: -1, cols: cols}
}

// stamp is what an entry was built from, which must still hold when it is
// served: an in-memory relation's row count and first row, or a stored
// relation's heap file and its row count, which counts the rows still on
// the open tail page too.
type stamp struct {
	n     int64
	first *relation.Row
	heap  *storage.HeapFile
}

// rowsStamp stamps what is built from rows.
func rowsStamp(rows []relation.Row) stamp {
	if len(rows) == 0 {
		return stamp{}
	}
	return stamp{n: int64(len(rows)), first: &rows[0]}
}

// heapStamp stamps what is built from hf's rows.
func heapStamp(hf *storage.HeapFile) stamp { return stamp{n: hf.Rows(), heap: hf} }

// indexEntry is a kept order, column's codes or key fact with the stamp
// of what it was built from.
type indexEntry struct {
	ord   ordered
	codes *columnCodes
	key   bool // a key fact's answer
	stamp stamp
	bytes int64
	used  uint64 // the index's clock at the entry's last use
}

// relationIndex is a DB's relation index. Its own mutex guards it: queries
// run concurrently against one DB under the caller's shared lock, and
// every one of them may fill the index. Served entries are shared and read
// only; nothing writes an ordered's columns or permutation, or a column's
// codes or row lists, once made.
type relationIndex struct {
	mu      sync.Mutex
	entries map[indexKey]*indexEntry
	bytes   int64
	budget  int64
	clock   uint64
}

func newRelationIndex() *relationIndex {
	return &relationIndex{entries: map[indexKey]*indexEntry{}, budget: indexBudget}
}

// order returns the kept order of key built from what st stamps, if any.
func (x *relationIndex) order(key indexKey, st stamp) (ordered, bool) {
	if e := x.get(key, st); e != nil {
		return e.ord, true
	}
	return ordered{}, false
}

// putOrder keeps ord as key's order, built from what st stamps.
func (x *relationIndex) putOrder(key indexKey, st stamp, ord ordered) {
	x.put(key, &indexEntry{ord: ord, stamp: st, bytes: int64(8*(len(ord.cols.TS)+len(ord.cols.TE)) + 4*len(ord.perm))})
}

// codes returns the codes of rel's column col, building and keeping them
// on first use. It returns nil for a relation without rows and for one
// whose codes could not fit the budget, which would be built again on
// every query.
func (x *relationIndex) codes(rel *relation.Relation, col int) *columnCodes {
	if n := len(rel.Rows); n == 0 || int64(8*n) > x.budget {
		return nil
	}
	key, st := codesKey(rel, col), rowsStamp(rel.Rows)
	if e := x.get(key, st); e != nil {
		return e.codes
	}
	c := buildCodes(rel.Rows, col)
	x.put(key, &indexEntry{codes: c, stamp: st, bytes: c.bytes()})
	return c
}

// keyFactBytes is what one key fact costs the index's budget: the entry
// and its map slot, whatever the relation's size.
const keyFactBytes = 128

// isKey reports whether in-memory rel's columns cols, one bit per column,
// are a key of its rows: no two rows have AppendKey-equal cells in all of them. An
// empty set is a key of at most one row. The answer is settled on first
// use by one hashed pass over the rows, which stops at the first repeat,
// and kept either way under the rows' stamp.
func (x *relationIndex) isKey(rel *relation.Relation, cols uint64) bool {
	if len(rel.Rows) <= 1 || cols == 0 {
		return len(rel.Rows) <= 1
	}
	key, st := keyFactKey(rel, cols), rowsStamp(rel.Rows)
	if e := x.get(key, st); e != nil {
		return e.key
	}
	k := len(firstRows(rowsView(rel.Rows, rel.Schema.Arity()), colsOf(cols), true)) == len(rel.Rows)
	x.put(key, &indexEntry{key: k, stamp: st, bytes: keyFactBytes})
	return k
}

// get returns the entry of key, if it was built from what st stamps; an
// entry the relation has outgrown is dropped.
func (x *relationIndex) get(key indexKey, st stamp) *indexEntry {
	x.mu.Lock()
	defer x.mu.Unlock()
	e, ok := x.entries[key]
	if !ok {
		return nil
	}
	if e.stamp != st {
		x.remove(key, e)
		return nil
	}
	x.clock++
	e.used = x.clock
	return e
}

// put keeps e as key's entry, evicting the least recently used entries
// until it fits the budget. An entry larger than the whole budget is not
// kept.
func (x *relationIndex) put(key indexKey, e *indexEntry) {
	if e.bytes > x.budget {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if old, ok := x.entries[key]; ok {
		x.remove(key, old)
	}
	for x.bytes+e.bytes > x.budget {
		var lru indexKey
		var oldest *indexEntry
		for k, c := range x.entries {
			if oldest == nil || c.used < oldest.used {
				lru, oldest = k, c
			}
		}
		x.remove(lru, oldest)
	}
	x.clock++
	e.used = x.clock
	x.entries[key] = e
	x.bytes += e.bytes
}

// drop forgets every entry of rel.
func (x *relationIndex) drop(rel *relation.Relation) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for k, e := range x.entries {
		if k.rel == rel {
			x.remove(k, e)
		}
	}
}

func (x *relationIndex) remove(key indexKey, e *indexEntry) {
	delete(x.entries, key)
	x.bytes -= e.bytes
}
