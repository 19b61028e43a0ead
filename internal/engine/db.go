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
	"path/filepath"
	"sort"

	"tdb/internal/catalog"
	"tdb/internal/constraints"
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
	rels   map[string]*relation.Relation
	stored map[string]*storage.HeapFile
	cat    *catalog.Catalog
	ics    []constraints.ChronOrder
	reg    *obs.Registry
	live   map[string]*liveStats
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
func NewDB() *DB {
	return &DB{
		rels:   map[string]*relation.Relation{},
		stored: map[string]*storage.HeapFile{},
		cat:    catalog.New(),
		live:   map[string]*liveStats{},
		index:  newRelationIndex(),
	}
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
// An order is served only while the file holds the rows it was built
// from, and DB.Append makes it stale.
func (db *DB) StoreRelation(name, dir string, poolPages int) error {
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
	if hf, ok := db.stored[name]; ok {
		return hf.Stats()
	}
	return nil
}

// Close releases the heap files of stored relations and forgets their
// entries in the relation index.
func (db *DB) Close() error {
	var first error
	for name, hf := range db.stored {
		if err := hf.Close(); err != nil && first == nil {
			first = err
		}
		db.index.drop(db.rels[name])
	}
	return first
}

// Register adds (or replaces) a relation and refreshes its statistics.
// The relation index forgets every entry of the relation it replaces —
// rel itself, when it is registered again after a change to its rows —
// and the name forgets the live state appends gave it, so rel is indexed
// and its statistics are its own until it is appended to. A stored
// relation it replaces loses its heap file, which is closed: rel's rows
// are the relation's from then on. An error closing the file is returned
// after rel is registered.
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
		if _, err := db.cat.Analyze(rel); err != nil {
			return err
		}
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

// Relation returns a registered relation.
func (db *DB) Relation(name string) (*relation.Relation, error) {
	r, ok := db.rels[name]
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
func (db *DB) Stats(name string) *catalog.Stats { return db.cat.Lookup(name) }

// Names returns the registered relation names, sorted.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
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

// ChronOrders returns the declared constraints.
func (db *DB) ChronOrders() []constraints.ChronOrder {
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
