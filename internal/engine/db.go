// Package engine implements the physical query execution layer: a named
// database of temporal relations, compilation of algebra predicates into
// row predicates, and an executor that maps the optimizer's annotated
// parse trees onto physical operators — the conventional strategies of
// Section 3 (nested-loop θ-join, hash equi-join, Cartesian product) and
// the stream processing algorithms of Section 4 (contain/contained/overlap
// joins and semijoins, before-join, self-semijoins), sorting inputs as the
// chosen algorithm's sort ordering requires and accounting every
// operator's cost.
package engine

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"slices"

	"tdb/internal/catalog"
	"tdb/internal/constraints"
	"tdb/internal/interval"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/storage"
)

// DB is a named collection of temporal relations with statistics and
// declared integrity constraints. Relations may optionally be backed by
// paged heap files (StoreRelation), in which case every scan goes through
// the storage layer's buffer pool and its page I/O is accounted per
// operator — making the paper's Section 3 observation that "conventional
// systems would scan the relation several times" directly measurable.
type DB struct {
	parent *DB // set on a fork
	rels   map[string]*relation.Relation
	stored map[string]*storage.HeapFile
	cat    *catalog.Catalog
	ics    []constraints.ChronOrder
	reg    *obs.Registry
	live   map[string]struct{} // temporal relations appended to since Register
	index  *relationIndex
}

// SetMetrics publishes database-shape gauges (relation count, total rows,
// stored files) to reg, refreshed on every Register/StoreRelation, and
// routes storage-layer page counters there too. Pass nil to disconnect.
func (db *DB) SetMetrics(reg *obs.Registry) {
	db.reg = reg
	storage.ObserveIO(reg)
	db.refreshGauges()
}

func (db *DB) refreshGauges() {
	if db.reg == nil {
		return
	}
	var rows int64
	for _, r := range db.rels {
		rows += int64(r.Cardinality())
	}
	db.reg.Gauge("tdb_db_relations", "registered relations").Set(int64(len(db.rels)))
	db.reg.Gauge("tdb_db_rows", "total rows across in-memory relations").Set(rows)
	db.reg.Gauge("tdb_db_stored_files", "relations backed by heap files").Set(int64(len(db.stored)))
}

// NewDB returns an empty database.
func NewDB() *DB { return newDB(nil, newRelationIndex()) }

// Fork returns a DB that owns only the relations registered on it, with
// their statistics; every other name — its rows, heap file, live state,
// statistics and constraints — resolves to db at each use. Forks share
// db's relation index. Append and StoreRelation act on the DB that owns
// the name; Close drops the fork's own index entries alone.
func (db *DB) Fork() *DB { return newDB(db, db.index) }

func newDB(parent *DB, index *relationIndex) *DB {
	return &DB{
		parent: parent,
		rels:   map[string]*relation.Relation{},
		stored: map[string]*storage.HeapFile{},
		cat:    catalog.New(),
		live:   map[string]struct{}{},
		index:  index,
	}
}

// owner returns the DB that holds name: a fork that registered it, or the
// root of the fork chain, which answers for every other name.
func (db *DB) owner(name string) *DB {
	for ; db.parent != nil; db = db.parent {
		if _, ok := db.rels[name]; ok {
			return db
		}
	}
	return db
}

// ErrAlreadyStored is returned by StoreRelation for a relation that is
// stored already.
var ErrAlreadyStored = errors.New("engine: relation already stored")

// StoreRelation moves a registered relation onto a paged heap file in dir
// with a buffer pool of poolPages frames; subsequent scans stream from the
// file and count page reads. The in-memory rows are released, and with them
// the relation's entries in the relation index. A relation that is stored
// already is refused with ErrAlreadyStored and nothing changes: its rows
// are on its heap file alone. Register it anew to store other rows under
// its name.
//
// A stored relation's key scans fill the relation index like in-memory
// base scans: the first columnar semijoin over it keeps the order it
// sorted the file's lifespans into, whatever Options.SortMemRows is, and
// later ones read it from there — a right input without reading a page.
// DB.Append drops the orders of the file it grows.
func (db *DB) StoreRelation(name, dir string, poolPages int) error {
	db = db.owner(name)
	rel, err := db.Relation(name)
	if err != nil {
		return err
	}
	if _, ok := db.stored[name]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyStored, name)
	}
	hf, err := storage.Create(filepath.Join(dir, name+".tdb"), rel.Schema, poolPages)
	if err != nil {
		return err
	}
	if err := hf.AppendAll(rel.Rows); err != nil {
		_ = hf.Close() // best-effort cleanup; the append error wins
		return err
	}
	if err := hf.Flush(); err != nil {
		_ = hf.Close() // best-effort cleanup; the flush error wins
		return err
	}
	db.stored[name] = hf
	rel.Rows = nil // scans now come from disk
	db.index.drop(rel)
	db.refreshGauges()
	return nil
}

// StoredIO returns the I/O counters of a stored relation, or nil.
func (db *DB) StoredIO(name string) *storage.IOStats {
	if hf, ok := db.owner(name).stored[name]; ok {
		return hf.Stats()
	}
	return nil
}

// Close forgets the relation index's entries of the relations registered
// on db and releases their heap files. A fork's Close leaves its parent's
// relations, files and entries as they are.
func (db *DB) Close() error {
	var first error
	for name, rel := range db.rels {
		db.index.drop(rel)
		if hf, ok := db.stored[name]; ok {
			if err := hf.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Register adds (or replaces) a relation. A temporal relation's
// statistics start afresh from its rows: the catalog sorts their lifespans
// into ValidFrom order and folds them once, and Append folds on from
// there. The DB owns rel from then on: its rows change only through Append,
// StoreRelation or a later Register, each of which drops the relation's
// entries in the relation index (rel's own, when it is registered again)
// and so the index never serves an entry its rows outgrew. The name
// forgets the live state appends gave it. A stored relation it replaces
// loses its heap file, which is closed; an error closing it is returned
// after rel is registered. On a fork, rel shadows the parent's name.
func (db *DB) Register(rel *relation.Relation) error {
	if err := rel.Check(); err != nil {
		return err
	}
	if old, ok := db.rels[rel.Name]; ok {
		db.index.drop(old)
	}
	delete(db.live, rel.Name)
	var closeErr error
	if hf, ok := db.stored[rel.Name]; ok {
		delete(db.stored, rel.Name)
		if err := hf.Close(); err != nil {
			closeErr = fmt.Errorf("engine: register %s: closing its heap file: %w", rel.Name, err)
		}
	}
	db.rels[rel.Name] = rel
	if rel.Schema.Temporal() {
		ts, te := relation.ShredSpans(rel.Rows, func(r relation.Row) interval.Interval { return r.Span(rel.Schema) })
		db.cat.Track(rel.Name, ts, te)
	}
	db.refreshGauges()
	return closeErr
}

// MustRegister is Register that panics, for fixtures and examples.
func (db *DB) MustRegister(rel *relation.Relation) {
	if err := db.Register(rel); err != nil {
		panic(err) // lint:allow panic — Must* constructor for statically known fixtures
	}
}

// Relation returns a registered relation: the DB's own, which callers read
// and do not modify. A relation is shared by forking its DB, not by
// registering it in another.
func (db *DB) Relation(name string) (*relation.Relation, error) {
	r, ok := db.owner(name).rels[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown relation %q", name)
	}
	return r, nil
}

// SchemaOf implements algebra.SchemaSource.
func (db *DB) SchemaOf(name string) (*relation.Schema, error) {
	r, err := db.Relation(name)
	if err != nil {
		return nil, err
	}
	return r.Schema, nil
}

// Stats returns the recorded statistics for a relation, or nil.
func (db *DB) Stats(name string) *catalog.Stats { return db.owner(name).cat.Lookup(name) }

// Names returns the registered relation names, a fork's parent's too,
// sorted.
func (db *DB) Names() []string {
	var out []string
	for d := db; d != nil; d = d.parent {
		out = append(out, slices.Collect(maps.Keys(d.rels))...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// DeclareChronOrder registers a chronological-ordering integrity
// constraint (Section 2's Rank example); it is validated against the
// current contents of the relation.
func (db *DB) DeclareChronOrder(ic constraints.ChronOrder) error {
	rel, err := db.Relation(ic.Relation)
	if err != nil {
		return err
	}
	if err := validateChronOrder(rel, ic); err != nil {
		return err
	}
	db.ics = append(db.ics, ic)
	return nil
}

// ChronOrders returns the declared constraints, a fork's parent's first.
func (db *DB) ChronOrders() []constraints.ChronOrder {
	if db.parent != nil {
		return append(db.parent.ChronOrders(), db.ics...)
	}
	return append([]constraints.ChronOrder{}, db.ics...)
}

// validateChronOrder checks every pair of same-key rows against the
// declared ordering, so a constraint the data violates is rejected rather
// than silently producing wrong "semantic" optimizations.
func validateChronOrder(rel *relation.Relation, ic constraints.ChronOrder) error {
	key := rel.Schema.ColumnIndex(ic.KeyCol)
	val := rel.Schema.ColumnIndex(ic.ValCol)
	if key < 0 || val < 0 {
		return fmt.Errorf("engine: constraint columns %s/%s not in %s", ic.KeyCol, ic.ValCol, rel.Schema)
	}
	if !rel.Schema.Temporal() {
		return fmt.Errorf("engine: chronological ordering needs a temporal relation")
	}
	rank := func(v string) int {
		for i, o := range ic.Order {
			if o == v {
				return i
			}
		}
		return -1
	}
	type occ struct {
		rank int
		row  int
	}
	byKey := map[string][]occ{}
	for i, row := range rel.Rows {
		r := rank(row[val].String())
		if r < 0 {
			return fmt.Errorf("engine: row %d: value %q outside declared order %v", i, row[val], ic.Order)
		}
		k := row[key].String()
		byKey[k] = append(byKey[k], occ{rank: r, row: i})
	}
	for k, occs := range byKey {
		for i, a := range occs {
			for _, b := range occs[i+1:] {
				lo, hi := a, b
				if lo.rank > hi.rank {
					lo, hi = hi, lo
				}
				if lo.rank == hi.rank {
					continue
				}
				loSpan, hiSpan := rel.Span(lo.row), rel.Span(hi.row)
				if !loSpan.BeforeOrMeets(hiSpan) {
					return fmt.Errorf("engine: key %s violates %s ordering: %v at %s not before %v at %s",
						k, ic.ValCol, rel.Rows[lo.row][val], loSpan, rel.Rows[hi.row][val], hiSpan)
				}
				if ic.Continuous && hi.rank == lo.rank+1 && !loSpan.Meets(hiSpan) {
					return fmt.Errorf("engine: key %s violates continuity: %v ends %v, %v starts %v",
						k, rel.Rows[lo.row][val], loSpan.End, rel.Rows[hi.row][val], hiSpan.Start)
				}
			}
		}
	}
	return nil
}
