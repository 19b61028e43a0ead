package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
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
// memory, byte for byte and with the same logical work, serially, spilled
// and on the row path.
func TestStoredByteIdenticalToInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	xs, ys := tiedTuples(rng, 600, "x"), tiedTuples(rng, 500, "y")
	spilled := colOpt()
	spilled.SortMemRows = 5
	for _, q := range orderedQueries() {
		for name, opt := range map[string]Options{"serial": colOpt(), "spilled": spilled, "RowExec": rowOpt()} {
			if opt.SortMemRows > 0 {
				opt.SpillDir = t.TempDir()
			}
			// Fresh DBs per run: a warm one would take its orders from the
			// endpoint index and sort nothing.
			mem, stored := tiedDB(t, xs, ys), storedTiedDB(t, xs, ys, func(int64) int { return 2 })
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

// A columnar semijoin over stored inputs, the first after they were
// stored, reads each file once and decodes exactly the rows it emits: none
// of its right input's.
func TestStoredSemijoinDecodesOnlyEmittedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	xs, ys := tiedTuples(rng, 3000, "x"), tiedTuples(rng, 2000, "y")
	for _, kind := range []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap} {
		db := storedTiedDB(t, xs, ys, func(pages int64) int { return max(1, int(pages/8)) })
		x, y := db.stored["X"], db.stored["Y"]
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
// spilled or not, with SpillDir left empty. The relation index keeps
// nothing here, so every run scans both files as the first run after
// StoreRelation does; a served right input reads no page to poll for.
func TestStoredQueryInterruptsPerPage(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	db := storedTiedDB(t, tiedTuples(rng, 800, "x"), tiedTuples(rng, 700, "y"), func(int64) int { return 1 })
	db.index.budget = 0
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

// A second StoreRelation of a stored relation is refused with
// ErrAlreadyStored and changes nothing: the relation still scans every row
// of its file. Register of new rows under a stored name closes the file
// and forgets it, so scans read the new rows, which can then be stored.
func TestStoredRelationReStoreAndRegister(t *testing.T) {
	db := NewDB()
	fac := workload.Faculty(workload.FacultyConfig{N: 900, Seed: 36})
	n := fac.Cardinality()
	db.MustRegister(fac)
	dir := t.TempDir()
	if err := db.StoreRelation("Faculty", dir, 4); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	count := func(when string) int {
		t.Helper()
		out, st, err := Run(db, &algebra.Scan{Relation: "Faculty", As: "f"}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if st.Nodes[0].OutRows != int64(len(out.Rows)) {
			t.Fatalf("%s: the scan reports %d rows and returns %d", when, st.Nodes[0].OutRows, len(out.Rows))
		}
		return len(out.Rows)
	}
	hf := db.stored["Faculty"]
	if err := db.StoreRelation("Faculty", dir, 4); !errors.Is(err, ErrAlreadyStored) {
		t.Fatalf("second StoreRelation: %v, want ErrAlreadyStored", err)
	}
	if db.stored["Faculty"] != hf || hf.Rows() != int64(n) {
		t.Fatalf("a refused StoreRelation replaced or changed the heap file: %d rows", hf.Rows())
	}
	if got := count("after the refused re-store"); got != n {
		t.Fatalf("stored Faculty scans %d rows after a refused re-store, want %d", got, n)
	}

	small := workload.Faculty(workload.FacultyConfig{N: 10, Seed: 37})
	m := small.Cardinality()
	if err := db.Register(small); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.stored["Faculty"]; ok || db.StoredIO("Faculty") != nil {
		t.Fatal("Register kept the replaced relation's heap file")
	}
	if _, _, err := hf.ReadRows(nil); err == nil {
		t.Error("the replaced heap file is still open")
	}
	if got := count("registered over the stored relation"); got != m {
		t.Fatalf("Faculty registered anew scans %d rows, want its %d", got, m)
	}
	if err := db.StoreRelation("Faculty", dir, 4); err != nil {
		t.Fatal(err)
	}
	if got := count("stored again"); got != m || db.StoredIO("Faculty") == nil {
		t.Fatalf("Faculty stored again scans %d rows, want %d", got, m)
	}
}

// warmLeftBytesPerRow bounds the heap bytes a warm columnar semijoin over
// stored inputs allocates per left row: the page copies and RIDs its left
// key scan keeps, the emitted positions, the output rows and the plan's
// bookkeeping. It is the measured 68.5 B plus 10 %; a left key scan that
// builds its two endpoint columns as well (16 B per row) exceeds it.
const warmLeftBytesPerRow = 75

// A warm columnar semijoin over stored inputs takes both orders from the
// relation index, and its left key scan, which keeps its pages for the
// rows to emit, builds no endpoint column: the cold run built them, sorted
// them and left the order in the index. The warm run repeats the cold
// run's rows, comparisons, tuples read and workspace, and its left key
// scan the pages read and rows decoded, within a stated budget of bytes
// per left row.
func TestStoredWarmSemijoinBuildsNoKeyColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	xs, ys := tiedTuples(rng, 6000, "x"), tiedTuples(rng, 4000, "y")
	db := storedTiedDB(t, xs, ys, func(pages int64) int { return max(1, int(pages/4)) })
	q, opt := semijoinOf(algebra.KindContain), colOpt()
	x := db.stored["X"]
	base, err := db.Relation("X")
	if err != nil {
		t.Fatal(err)
	}
	_, lOrder, _ := semijoinOrders(algebra.KindContain)
	leftKey := orderKey(base, rowSpan{ts: 2, te: 3}, lOrder)
	run := func() (*relation.Relation, *Stats, int64) {
		t.Helper()
		before := x.Stats().RowsDecoded
		out, st, err := Run(db, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		return out, st, x.Stats().RowsDecoded - before
	}

	if db.index.get(leftKey) != nil {
		t.Fatal("the left order is indexed before any run")
	}
	cold, cst, cdec := run()
	// The nodes are the left key scan, the right one and the semijoin.
	if findNote(cst, "keys first") == "" || cst.TotalSortedRows() != int64(len(xs)+len(ys)) || indexHits(cst) != 0 {
		t.Fatalf("cold run: left key scan notes %q, sorted %d rows, %d index hits:\n%s",
			cst.Nodes[0].Notes, cst.TotalSortedRows(), indexHits(cst), cst)
	}
	if e := db.index.get(leftKey); e == nil || e.ord.cols.Len() != len(xs) {
		t.Fatalf("cold run left no left order of %d rows in the index (found %v)", len(xs), e != nil)
	}

	warm, wst, wdec := run()
	sameWork(t, "warm", cold, warm, cst, wst)
	if indexHits(wst) != 2 || wst.TotalSortedRows() != 0 {
		t.Errorf("warm run: %d orders from the index, %d rows sorted; want 2 and 0:\n%s", indexHits(wst), wst.TotalSortedRows(), wst)
	}
	if notes := wst.Nodes[0].Notes; len(notes) != 1 || !strings.Contains(notes[0], "no key column built") {
		t.Errorf("warm left key scan notes %q, want the key columns served", notes)
	}
	if cl, wl := cst.Nodes[0], wst.Nodes[0]; wl.PagesRead != cl.PagesRead || wl.PagesRead == 0 || wl.Probe != cl.Probe || wl.OutRows != cl.OutRows {
		t.Errorf("left key scan: %d pages, probe %v, %d rows warm; %d pages, %v, %d rows cold",
			wl.PagesRead, wl.Probe.String(), wl.OutRows, cl.PagesRead, cl.Probe.String(), cl.OutRows)
	}
	if wdec != cdec || wdec != int64(len(warm.Rows)) {
		t.Errorf("decoded %d rows cold, %d warm, for %d output rows", cdec, wdec, len(warm.Rows))
	}

	bytes := allocated(func() {
		if _, _, err := Run(db, q, opt); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := float64(bytes) / float64(len(xs)); perRow > warmLeftBytesPerRow {
		t.Errorf("warm run allocated %.1f B per left row, budget %d", perRow, warmLeftBytesPerRow)
	} else {
		t.Logf("warm run allocated %.1f B per left row, budget %d", perRow, warmLeftBytesPerRow)
	}
}

// A cold, spilled stored semijoin polls Options.Interrupt inside its
// external sort, before each run is formed and each merged run page is
// read: interrupted on the first of those polls — the first that finds the
// sort's spill file in SpillDir — it returns ErrInterrupted wrapping the
// cause, reads no further heap page, and leaves SpillDir empty.
func TestStoredColdSortInterruptsOnFirstSortPoll(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	db := storedTiedDB(t, tiedTuples(rng, 800, "x"), tiedTuples(rng, 700, "y"), func(int64) int { return 1 })
	pagesRead := func() int64 { return db.StoredIO("X").PagesRead + db.StoredIO("Y").PagesRead }
	opt := colOpt()
	opt.SortMemRows, opt.SpillDir = 50, t.TempDir()
	stop := errors.New("stop")
	fired, atFire := false, int64(0)
	opt.Interrupt = func() error {
		if fired {
			return stop
		}
		if files, _ := os.ReadDir(opt.SpillDir); len(files) == 0 {
			return nil
		}
		fired, atFire = true, pagesRead()
		return stop
	}
	_, _, err := Run(db, semijoinOf(algebra.KindContain), opt)
	if !fired {
		t.Fatalf("no poll found the sort's spill file; run error %v", err)
	}
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, stop) {
		t.Fatalf("error %v, want ErrInterrupted wrapping the cause", err)
	}
	if read := pagesRead() - atFire; read != 0 {
		t.Errorf("%d heap pages read after the interrupt", read)
	}
	if atFire != db.stored["X"].Pages()+db.stored["Y"].Pages() {
		t.Errorf("interrupted after %d heap pages, want both files' %d", atFire, db.stored["X"].Pages()+db.stored["Y"].Pages())
	}
	requireEmptySpillDir(t, opt.SpillDir, "after the interrupted sort")
}
