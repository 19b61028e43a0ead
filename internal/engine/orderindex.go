package engine

import (
	"sync"

	"tdb/internal/relation"
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
//
// Every change the DB makes to a relation's rows drops its entries
// (DB.Register), so a served entry is never checked against the rows. One
// index serves a DB and all its forks.

// indexBudget bounds the bytes one index keeps: 20 B per row per
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

// indexEntry is a kept order, column's codes or key fact.
type indexEntry struct {
	ord   ordered
	codes *columnCodes
	key   bool // a key fact's answer
	bytes int64
	used  uint64 // the index's clock at the entry's last use
}

// relationIndex is a DB's relation index, shared with its forks. Its own
// mutex guards it: queries run concurrently against one DB and its forks
// under the caller's shared lock, and every one of them may fill the
// index. Served entries are shared and read
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

// putOrder keeps ord as key's order.
func (x *relationIndex) putOrder(key indexKey, ord ordered) {
	x.put(key, &indexEntry{ord: ord, bytes: int64(8*(len(ord.cols.TS)+len(ord.cols.TE)) + 4*len(ord.perm))})
}

// codes returns the codes of rel's column col, building and keeping them
// on first use. It returns nil for a relation without rows and for one
// whose codes could not fit the budget, which would be built again on
// every query.
func (x *relationIndex) codes(rel *relation.Relation, col int) *columnCodes {
	if n := len(rel.Rows); n == 0 || int64(8*n) > x.budget {
		return nil
	}
	key := codesKey(rel, col)
	if e := x.get(key); e != nil {
		return e.codes
	}
	c := buildCodes(rel.Rows, col)
	x.put(key, &indexEntry{codes: c, bytes: c.bytes()})
	return c
}

// keyFactBytes is what one key fact costs the index's budget: the entry
// and its map slot, whatever the relation's size.
const keyFactBytes = 128

// isKey reports whether in-memory rel's columns cols, one bit per column,
// are a key of its rows: no two rows have AppendKey-equal cells in all of them. An
// empty set is a key of at most one row. The answer is settled on first
// use by one hashed pass over the rows, which stops at the first repeat,
// and kept either way.
func (x *relationIndex) isKey(rel *relation.Relation, cols uint64) bool {
	if len(rel.Rows) <= 1 || cols == 0 {
		return len(rel.Rows) <= 1
	}
	key := keyFactKey(rel, cols)
	if e := x.get(key); e != nil {
		return e.key
	}
	k := len(firstRows(rowsView(rel.Rows, rel.Schema.Arity()), colsOf(cols), true)) == len(rel.Rows)
	x.put(key, &indexEntry{key: k, bytes: keyFactBytes})
	return k
}

// get returns the entry of key, or nil.
func (x *relationIndex) get(key indexKey) *indexEntry {
	x.mu.Lock()
	defer x.mu.Unlock()
	e, ok := x.entries[key]
	if !ok {
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
