package engine

import (
	"sync"

	"tdb/internal/relation"
)

// The endpoint index (DESIGN.md "Sorting"): the first ordered use of a
// registered in-memory relation leaves the order it established — the
// sorted endpoint columns and the permutation back to the relation's rows —
// in its DB, and later queries take that order from there instead of
// shredding and sorting the relation again. Only a base scan's order is
// kept: a selection, a join output, a derived span and a key scan each
// order rows no relation holds in that form.

// orderIndexBudget bounds the bytes of endpoint columns and permutations
// one DB keeps: 20 B per row per order, so 32 MiB holds about 1.6 million
// rows' orders. Past it the least recently used entry goes first.
const orderIndexBudget = 32 << 20

// orderKey names one order of one relation's lifespans, the span given by
// its endpoint columns.
type orderKey struct {
	rel    *relation.Relation
	ts, te int
	order  string
}

// orderEntry is a kept order with what it was built from: the relation's
// row count and first row, which must still match when it is served.
type orderEntry struct {
	ord   ordered
	n     int
	first *relation.Row
	bytes int64
	used  uint64 // the index's clock at the entry's last use
}

// orderIndex is a DB's endpoint index. Its own mutex guards it: queries
// run concurrently against one DB under the caller's shared lock, and
// every one of them may fill the index. Served orders are shared and read
// only; nothing writes an ordered's columns or permutation once made.
type orderIndex struct {
	mu      sync.Mutex
	entries map[orderKey]*orderEntry
	bytes   int64
	budget  int64
	clock   uint64
}

func newOrderIndex() *orderIndex {
	return &orderIndex{entries: map[orderKey]*orderEntry{}, budget: orderIndexBudget}
}

// get returns the kept order of key, if the relation still has the rows
// the entry was built from; an entry it has outgrown is dropped.
func (x *orderIndex) get(key orderKey) (ordered, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	e, ok := x.entries[key]
	if !ok {
		return ordered{}, false
	}
	if rows := key.rel.Rows; e.n != len(rows) || e.first != &rows[0] {
		x.remove(key, e)
		return ordered{}, false
	}
	x.clock++
	e.used = x.clock
	return e.ord, true
}

// put keeps ord as key's order over the relation's current rows, evicting
// the least recently used entries until it fits the budget. An order
// larger than the whole budget is not kept.
func (x *orderIndex) put(key orderKey, ord ordered) {
	rows := key.rel.Rows
	e := &orderEntry{ord: ord, n: len(rows), first: &rows[0],
		bytes: int64(8*(len(ord.cols.TS)+len(ord.cols.TE)) + 4*len(ord.perm))}
	if e.bytes > x.budget {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if old, ok := x.entries[key]; ok {
		x.remove(key, old)
	}
	for x.bytes+e.bytes > x.budget {
		var lru orderKey
		var oldest *orderEntry
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

// drop forgets every order of rel.
func (x *orderIndex) drop(rel *relation.Relation) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for k, e := range x.entries {
		if k.rel == rel {
			x.remove(k, e)
		}
	}
}

func (x *orderIndex) remove(key orderKey, e *orderEntry) {
	delete(x.entries, key)
	x.bytes -= e.bytes
}
