package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
	"tdb/internal/workload"
)

// The paper's Section 3 observation: the Superstar query references
// Faculty three times, so a conventional evaluation scans the stored
// relation three times. With a one-frame buffer pool every scan pays the
// full page count; with a pool covering the relation, only the first does.
func TestStoredScansCountPasses(t *testing.T) {
	run := func(poolPages int) (pagesTotal, pagesFile int64) {
		db := NewDB()
		db.MustRegister(workload.Faculty(workload.FacultyConfig{N: 400, Seed: 31}))
		if err := db.StoreRelation("Faculty", t.TempDir(), poolPages); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		opt, err := optimizer.Optimize(superstarQuery(), db, optimizer.Options{NoSemantic: true, NoRecognition: true})
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := Run(db, opt.Tree, Options{ForceNestedLoop: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.Cardinality() == 0 {
			t.Fatal("empty result")
		}
		return stats.TotalPagesRead(), db.StoredIO("Faculty").PagesWritten
	}

	coldTotal, filePages := run(1)
	if filePages == 0 {
		t.Fatal("relation too small to occupy pages")
	}
	// Three scans, cold pool: ≈ 3× the file size in page reads.
	if coldTotal < 3*filePages {
		t.Errorf("cold pool read %d pages for 3 scans of %d-page file", coldTotal, filePages)
	}

	warmTotal, filePages2 := run(1024)
	// Warm pool: the second and third scans are served from memory.
	if warmTotal != filePages2 {
		t.Errorf("warm pool read %d pages, want exactly the file size %d", warmTotal, filePages2)
	}
}

// storedTiedDB is tiedDB with X and Y moved onto heap files with pools of
// pool(pages) frames; pool sees each file's page count.
func storedTiedDB(t *testing.T, xs, ys []relation.Tuple, pool func(pages int64) int) *DB {
	t.Helper()
	sizing := tiedDB(t, xs, ys)
	pages := map[string]int64{}
	for _, name := range []string{"X", "Y"} {
		if err := sizing.StoreRelation(name, t.TempDir(), 1); err != nil {
			t.Fatal(err)
		}
		pages[name] = sizing.stored[name].Pages()
	}
	if err := sizing.Close(); err != nil {
		t.Fatal(err)
	}
	db := tiedDB(t, xs, ys)
	for _, name := range []string{"X", "Y"} {
		if err := db.StoreRelation(name, t.TempDir(), pool(pages[name])); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

// A stored input gives every ordered operator the result it gives in
// memory, byte for byte and with the same logical work, serially, fanned
// out, spilled and on the row path.
func TestStoredByteIdenticalToInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	xs, ys := tiedTuples(rng, 600, "x"), tiedTuples(rng, 500, "y")
	stored := storedTiedDB(t, xs, ys, func(int64) int { return 2 })
	spilled := colOpt()
	spilled.SortMemRows = 5
	for _, q := range orderedQueries() {
		for name, opt := range map[string]Options{"serial": colOpt(), "spilled": spilled, "RowExec": rowOpt()} {
			if opt.SortMemRows > 0 {
				opt.SpillDir = t.TempDir()
			}
			// A fresh in-memory DB per run: a warm one would take its
			// orders from the endpoint index and sort nothing, and the
			// stored side, which bypasses the index, sorts every time.
			mem := tiedDB(t, xs, ys)
			want, wst, err := Run(mem, q.tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := Run(stored, q.tree, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", q.name, name, err)
			}
			identicalRows(t, q.name+" "+name, want, got)
			if len(want.Rows) == 0 {
				t.Fatalf("%s %s: no rows", q.name, name)
			}
			if wst.TotalComparisons() != gst.TotalComparisons() || wst.TotalTuplesRead() != gst.TotalTuplesRead() ||
				wst.TotalSortedRows() != gst.TotalSortedRows() || wst.MaxWorkspace() != gst.MaxWorkspace() {
				t.Errorf("%s %s: stored counts differ from memory:\n%s\nvs\n%s", q.name, name, gst, wst)
			}
			if opt.SpillDir != "" {
				requireEmptySpillDir(t, opt.SpillDir, q.name)
			}
		}
	}
}

// A columnar semijoin over stored inputs reads each file once and decodes
// exactly the rows it emits: none of its right input's.
func TestStoredSemijoinDecodesOnlyEmittedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	db := storedTiedDB(t, tiedTuples(rng, 3000, "x"), tiedTuples(rng, 2000, "y"),
		func(pages int64) int { return max(1, int(pages/8)) })
	x, y := db.stored["X"], db.stored["Y"]
	for _, kind := range []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap} {
		dx, dy := x.Stats().RowsDecoded, y.Stats().RowsDecoded
		out, st, err := Run(db, semijoinOf(kind), colOpt())
		if err != nil {
			t.Fatal(err)
		}
		if got := x.Stats().RowsDecoded - dx; got != int64(len(out.Rows)) || got == 0 {
			t.Errorf("%v: decoded %d left rows for %d output rows", kind, got, len(out.Rows))
		}
		if got := y.Stats().RowsDecoded - dy; got != 0 {
			t.Errorf("%v: decoded %d right rows", kind, got)
		}
		if got, want := st.TotalPagesRead(), x.Pages()+y.Pages(); got != want {
			t.Errorf("%v: read %d pages, one pass of each file is %d", kind, got, want)
		}
	}
}

// Every poll of Options.Interrupt can stop a stored query: the row and key
// scans poll before each page, so no page is read without a poll, and a
// semijoin's decode of its output rows polls per page's worth of rows, so
// a hook that fires on any call of an uninterrupted run aborts it —
// spilled or not, with SpillDir left empty.
func TestStoredQueryInterruptsPerPage(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	db := storedTiedDB(t, tiedTuples(rng, 800, "x"), tiedTuples(rng, 700, "y"), func(int64) int { return 1 })
	pagesRead := func() int64 { return db.StoredIO("X").PagesRead + db.StoredIO("Y").PagesRead }
	stop := errors.New("stop")
	scan, semi := &algebra.Scan{Relation: "X", As: "a"}, semijoinOf(algebra.KindContain)
	for _, q := range []algebra.Expr{scan, semi, joinOf(algebra.KindOverlap)} {
		for _, mem := range []int{0, 50} {
			opt := colOpt()
			if mem > 0 {
				opt.SortMemRows, opt.SpillDir = mem, t.TempDir()
			}
			calls := 0
			opt.Interrupt = func() error { calls++; return nil }
			out, _, err := Run(db, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			// One poll per node and per page scanned, and for the semijoin
			// at least one per page's worth of output rows decoded.
			x, y := db.stored["X"], db.stored["Y"]
			least := 1 + x.Pages()
			if q != scan {
				least += 2 + y.Pages()
			}
			if q == semi {
				least += int64(len(out.Rows)) / (x.Rows() / x.Pages())
			}
			if int64(calls) < least {
				t.Fatalf("%s SortMemRows=%d: %d polls, want at least %d", q.Label(), mem, calls, least)
			}
			// Every call through the scans' polls, then a sample of the
			// decode's, ending with the last.
			total := calls
			var fires []int
			for fire := 2; fire < total; fire++ {
				if scans := int(x.Pages() + y.Pages() + 4); fire <= scans || fire%(total/20+1) == 0 {
					fires = append(fires, fire)
				}
			}
			for _, fire := range append(fires, total) {
				calls = 0
				opt.Interrupt = func() error {
					if calls++; calls >= fire {
						return stop
					}
					return nil
				}
				before := pagesRead()
				_, _, err := Run(db, q, opt)
				if !errors.Is(err, ErrInterrupted) || !errors.Is(err, stop) {
					t.Fatalf("%s SortMemRows=%d, firing on call %d of %d: error %v", q.Label(), mem, fire, total, err)
				}
				if read := pagesRead() - before; read > int64(fire-1) {
					t.Fatalf("%s SortMemRows=%d: %d pages read on %d polls", q.Label(), mem, read, fire-1)
				}
				if fire == 2 && q == scan && pagesRead()-before >= x.Pages() {
					t.Fatalf("scan firing on its second poll read the whole file")
				}
				if opt.SpillDir != "" {
					requireEmptySpillDir(t, opt.SpillDir, fmt.Sprintf("%s interrupted on call %d", q.Label(), fire))
				}
			}
		}
	}
}
