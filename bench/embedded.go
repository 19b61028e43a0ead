package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tdb/internal/algebra"
	"tdb/internal/core"
	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/partition"
	"tdb/internal/relation"
	"tdb/internal/storage"
	"tdb/internal/stream"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// batchQuery is one operation kind of an embedded workload: an algebra
// tree handed to engine.Run, or quel text taken through the whole
// Parse → Translate → Optimize → Run pipeline.
type batchQuery struct {
	name   string
	tree   algebra.Expr
	text   string
	join   bool // tree is a Join (else a Semijoin); unused for text
	kind   algebra.TemporalKind
	rowsIn int
	ref    resultHash
	// The program's own counts for this query, from *engine.Stats at the
	// gate; every later run must repeat them.
	comparisons, tuplesRead, workspace, sortedRows int64
}

// batchWorkload is join_wide, semijoin_narrow or stored_spill: serial
// engine.Run calls over X and Y, one caller, Parallelism 1.
type batchWorkload struct {
	name     string
	n        int // tuples per side
	faculty  int // members in Faculty; 0 leaves the Superstar query out
	storedOn bool
	perRound int // repetitions of each query per round

	db      *engine.DB
	opt     engine.Options
	queries []*batchQuery
	// The registered inputs, kept for the replay: StoreRelation releases
	// the relation's own row slice.
	xRows, yRows []relation.Row
	dir          string
	poolX, poolY int
	heapX, heapY *storage.HeapFile // the replay's own copies of the stored files
	sortIO       storage.SortStats // pages one replay's external sorts read and wrote
}

func newJoinWide() runner {
	return &batchWorkload{name: "join_wide", n: 8000, perRound: 4}
}

// semijoin_narrow runs at 40 000 tuples a side, not the 200 000 the issue
// sketched: a 200 000-row semijoin takes 0.8 s here, and a run has about
// ten seconds to collect its samples in.
func newSemijoinNarrow() runner {
	return &batchWorkload{name: "semijoin_narrow", n: 40000, faculty: 20000, perRound: 1}
}

func newStoredSpill() runner {
	return &batchWorkload{name: "stored_spill", n: 100000, storedOn: true, perRound: 2}
}

func (w *batchWorkload) sizes() map[string]int {
	s := map[string]int{"n_per_side": w.n, "queries_per_round": w.perRound * len(w.queries)}
	if w.faculty > 0 {
		s["faculty_members"] = w.faculty
	}
	if w.storedOn {
		s["pool_pages_x"], s["pool_pages_y"], s["sort_mem_rows"] = w.poolX, w.poolY, w.opt.SortMemRows
	}
	return s
}

func (w *batchWorkload) setUp(e *env) error {
	if e.tiny {
		w.n, w.perRound = 400, 1
		if w.faculty > 0 {
			w.faculty = 60
		}
	}
	xs, ys := genXY(w.n, 1, e.seed)
	x, y := shuffled("X", xs, e.seed), shuffled("Y", ys, e.seed+1)
	w.xRows, w.yRows = x.Rows, y.Rows
	w.db = engine.NewDB()
	w.opt = engine.Options{Parallelism: 1}
	if err := w.db.Register(x); err != nil {
		return err
	}
	if err := w.db.Register(y); err != nil {
		return err
	}

	switch w.name {
	case "join_wide":
		w.queries = []*batchQuery{
			{name: "contain-join", tree: joinXY(algebra.KindContain), join: true, kind: algebra.KindContain},
			{name: "overlap-join", tree: joinXY(algebra.KindOverlap), join: true, kind: algebra.KindOverlap},
		}
	case "semijoin_narrow":
		w.queries = []*batchQuery{
			{name: "contain-semijoin", tree: semijoinXY(algebra.KindContain), kind: algebra.KindContain},
			{name: "contained-semijoin", tree: semijoinXY(algebra.KindContained), kind: algebra.KindContained},
			{name: "overlap-semijoin", tree: semijoinXY(algebra.KindOverlap), kind: algebra.KindOverlap},
		}
	default:
		w.queries = []*batchQuery{
			{name: "contain-semijoin", tree: semijoinXY(algebra.KindContain), kind: algebra.KindContain},
		}
	}
	for _, q := range w.queries {
		q.rowsIn = 2 * w.n
	}
	if w.faculty > 0 {
		fac := workload.Faculty(workload.FacultyConfig{N: w.faculty, Seed: subSeed(e.seed, seedFaculty)})
		if err := w.db.Register(fac); err != nil {
			return err
		}
		if err := w.db.DeclareChronOrder(rankOrder()); err != nil {
			return err
		}
		// Three range variables scan Faculty.
		w.queries = append(w.queries, &batchQuery{name: "superstar-quel", text: superstarText, rowsIn: 3 * fac.Cardinality()})
	}

	if w.storedOn {
		dir, err := os.MkdirTemp(e.tmp, "stored-")
		if err != nil {
			return err
		}
		w.dir = dir
		spill := filepath.Join(dir, "spill")
		if err := os.Mkdir(spill, 0o755); err != nil {
			return err
		}
		// The pool holds an eighth of each file's pages and the sort an
		// eighth of its rows, so neither cache can hold its input.
		if w.poolX, err = poolFor(x, dir); err != nil {
			return err
		}
		if w.poolY, err = poolFor(y, dir); err != nil {
			return err
		}
		if err := w.db.StoreRelation("X", dir, w.poolX); err != nil {
			return err
		}
		if err := w.db.StoreRelation("Y", dir, w.poolY); err != nil {
			return err
		}
		w.opt.SortMemRows = w.n / 8
		w.opt.SpillDir = spill
	}

	// Warm-up: one run of every kind fills the sweep-arena pools and grows
	// the heap to its working size.
	for _, q := range w.queries {
		if _, _, err := w.exec(q, w.opt); err != nil {
			return fmt.Errorf("warm-up %s: %w", q.name, err)
		}
	}
	return nil
}

// poolFor writes the relation to a throw-away heap file to learn its page
// count, and returns an eighth of it.
func poolFor(rel *relation.Relation, dir string) (int, error) {
	path := filepath.Join(dir, "sizing-"+rel.Name+".tdb")
	hf, err := storage.Create(path, rel.Schema, 1)
	if err != nil {
		return 0, err
	}
	if err := hf.AppendAll(rel.Rows); err != nil {
		_ = hf.Close() // the append error wins
		return 0, err
	}
	if err := hf.Flush(); err != nil {
		_ = hf.Close() // the flush error wins
		return 0, err
	}
	pages := int(hf.Pages())
	if err := hf.Close(); err != nil {
		return 0, err
	}
	if err := os.Remove(path); err != nil {
		return 0, err
	}
	if pages < 8 {
		return 1, nil
	}
	return pages / 8, nil
}

func (w *batchWorkload) tearDown() error {
	var first error
	for _, hf := range []*storage.HeapFile{w.heapX, w.heapY} {
		if hf != nil {
			if err := hf.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	w.heapX, w.heapY = nil, nil
	if w.db != nil {
		if err := w.db.Close(); err != nil && first == nil {
			first = err
		}
		w.db = nil
	}
	if w.dir != "" {
		if err := os.RemoveAll(w.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// exec is one operation as an embedded caller sees it.
func (w *batchWorkload) exec(q *batchQuery, opt engine.Options) (*relation.Relation, *engine.Stats, error) {
	tree := q.tree
	if q.text != "" {
		var err error
		if tree, err = planQuel(nil, 0, 0, w.db, q.text, nil); err != nil {
			return nil, nil, err
		}
	}
	return engine.Run(w.db, tree, opt)
}

// gate requires the default columnar execution to return exactly the rows,
// in order, of the row-at-a-time reference, and records the reference.
func (w *batchWorkload) gate(e *env) {
	for _, q := range w.queries {
		out, st, err := w.exec(q, w.opt)
		if !e.tally.check(err == nil, "%s: %s: %v", w.name, q.name, err) {
			continue
		}
		q.ref = hashRows(out.Rows)
		q.comparisons, q.tuplesRead = st.TotalComparisons(), st.TotalTuplesRead()
		q.workspace, q.sortedRows = st.MaxWorkspace(), st.TotalSortedRows()
		rowOpt := w.opt
		rowOpt.RowExec = true
		ref, _, err := w.exec(q, rowOpt)
		if !e.tally.check(err == nil, "%s: %s (RowExec): %v", w.name, q.name, err) {
			continue
		}
		got := hashRows(ref.Rows)
		e.tally.check(got == q.ref, "%s: %s: columnar result %d rows hash %x, row reference %d rows hash %x",
			w.name, q.name, q.ref.rows, q.ref.sum, got.rows, got.sum)
		e.tally.check(q.ref.rows > 0, "%s: %s returned no rows", w.name, q.name)
	}
}

func (w *batchWorkload) kindNames() []string {
	names := make([]string, len(w.queries))
	for i, q := range w.queries {
		names[i] = q.name
	}
	return names
}

// checkRun counts one run: it must succeed, return the reference's row
// count, and repeat the program's own counts.
func (w *batchWorkload) checkRun(e *env, q *batchQuery, out *relation.Relation, st *engine.Stats, err error) bool {
	if !e.tally.check(err == nil, "%s: %s: %v", w.name, q.name, err) {
		return false
	}
	return e.tally.check(out.Cardinality() == q.ref.rows &&
		st.TotalComparisons() == q.comparisons && st.TotalTuplesRead() == q.tuplesRead &&
		st.MaxWorkspace() == q.workspace && st.TotalSortedRows() == q.sortedRows,
		"%s: %s: %d rows, %d comparisons; reference %d rows, %d comparisons",
		w.name, q.name, out.Cardinality(), st.TotalComparisons(), q.ref.rows, q.comparisons)
}

func (w *batchWorkload) measure(e *env, d time.Duration) *measurement {
	m := newMeasurement(w.kindNames()...)
	start := time.Now()
	forRounds(d, func(int) {
		var r round
		ops := 0
		before := totalAlloc()
		for rep := 0; rep < w.perRound; rep++ {
			for _, q := range w.queries {
				var out *relation.Relation
				var st *engine.Stats
				var err error
				sec := timed(func() { out, st, err = w.exec(q, w.opt) })
				if !w.checkRun(e, q, out, st, err) {
					continue
				}
				m.add(q.name, sec*1e3)
				ops++
				r.inSec += sec
				r.rowsIn += float64(q.rowsIn)
				r.rowsOut += float64(out.Cardinality())
			}
		}
		m.allocBytes += totalAlloc() - before
		m.ops += ops
		m.cut(m.kinds...)
		r.outSec = r.inSec
		if ops > 0 {
			m.rounds = append(m.rounds, r)
		}
	})
	m.seconds = time.Since(start).Seconds()
	var all []float64
	for _, k := range m.kinds {
		all = append(all, m.lat[k]...)
	}
	m.samples["query_ms_p50"] = len(all)
	m.scoped["bench.tail.query_ms_p90"] = tailPercentile(all, 90)
	return m
}

// spanned pairs a row with its lifespan, as the engine's stream drivers do.
type spanned struct {
	row  relation.Row
	span interval.Interval
}

func spanOf(s spanned) interval.Interval { return s.span }

func wrapRows(rows []relation.Row, schema *relation.Schema) []spanned {
	out := make([]spanned, len(rows))
	for i, r := range rows {
		out[i] = spanned{row: r, span: r.Span(schema)}
	}
	return out
}

// ordersFor gives the sort orders the engine establishes for a stream
// operator (Tables 1 and 2).
func ordersFor(join bool, kind algebra.TemporalKind) (l, r relation.Order) {
	ts, te := relation.Order{relation.TSAsc}, relation.Order{relation.TEAsc}
	if join {
		return ts, ts
	}
	switch kind {
	case algebra.KindContained:
		return te, ts
	case algebra.KindContain:
		return ts, te
	}
	return ts, ts
}

type pairIdx struct{ l, r int32 }

// replay is the harness's own decomposition of one stream join or semijoin
// node, layer by layer, with a span around each call. It mirrors the
// engine's serial columnar driver step for step — wrap and sort to the
// operator's order (relation.SortSpans, or storage.ExternalSort past the
// sort workspace), shred the lifespans to endpoint columns, sweep with the
// internal/core batch kernel, build the output rows once — so its stages
// add up to the engine.Run they explain and its rows must equal the
// engine's. It returns the rows and the number of kernel emissions.
func (w *batchWorkload) replay(rec *recorder, req int, q *batchQuery) ([]relation.Row, int64, error) {
	root := rec.begin(0, req, "engine", "replay")
	lo, ro := ordersFor(q.join, q.kind)
	var lw, rw []spanned
	if w.storedOn {
		id := rec.begin(root, req, "storage", "scan")
		before := w.heapX.Stats().PagesRead + w.heapY.Stats().PagesRead
		lrows, err := stream.Collect(w.heapX.Scan())
		if err != nil {
			return nil, 0, err
		}
		rrows, err := stream.Collect(w.heapY.Scan())
		if err != nil {
			return nil, 0, err
		}
		rec.end(id, w.heapX.Stats().PagesRead+w.heapY.Stats().PagesRead-before)

		id = rec.begin(root, req, "storage", "extsort")
		w.sortIO = storage.SortStats{}
		if lw, err = w.externalOrder(lrows, lo); err != nil {
			return nil, 0, err
		}
		if rw, err = w.externalOrder(rrows, ro); err != nil {
			return nil, 0, err
		}
		rec.end(id, w.sortIO.PagesRead+w.sortIO.PagesWritten)
	} else {
		id := rec.begin(root, req, "relation", "sort")
		lw, rw = wrapRows(w.xRows, relation.TupleSchema), wrapRows(w.yRows, relation.TupleSchema)
		if !relation.SortedSpans(lw, spanOf, lo) {
			relation.SortSpans(lw, spanOf, lo)
		}
		if !relation.SortedSpans(rw, spanOf, ro) {
			relation.SortSpans(rw, spanOf, ro)
		}
		rec.end(id, int64(len(lw)+len(rw)))
	}

	id := rec.begin(root, req, "relation", "shred")
	lc, rc := endpointCols(lw), endpointCols(rw)
	rec.end(id, int64(lc.Len()+rc.Len()))

	var probe metrics.Probe
	opt := core.Options{Probe: &probe}
	var rows []relation.Row
	var emitted int64
	if q.join {
		id = rec.begin(root, req, "core", "sweep")
		est := lc.Len()
		if rc.Len() > est {
			est = rc.Len()
		}
		pairs := make([]pairIdx, 0, est)
		var err error
		switch q.kind {
		case algebra.KindContain:
			err = core.BatchContainJoinTSTS(lc, rc, opt, func(xi, yi int32) { pairs = append(pairs, pairIdx{xi, yi}) })
		case algebra.KindContained:
			err = core.BatchContainJoinTSTS(rc, lc, opt, func(xi, yi int32) { pairs = append(pairs, pairIdx{yi, xi}) })
		default:
			err = core.BatchOverlapJoin(lc, rc, opt, func(xi, yi int32) { pairs = append(pairs, pairIdx{xi, yi}) })
		}
		if err != nil {
			return nil, 0, err
		}
		emitted = int64(len(pairs))
		rec.end(id, emitted)

		id = rec.begin(root, req, "relation", "materialize")
		rows = concatPairs(lw, rw, pairs)
		rec.end(id, int64(len(rows)))
	} else {
		id = rec.begin(root, req, "core", "sweep")
		idx := make([]int32, 0, lc.Len())
		emit := func(xi int32) { idx = append(idx, xi) }
		var err error
		switch q.kind {
		case algebra.KindContained:
			err = core.BatchContainedSemijoin(lc, rc, opt, emit)
		case algebra.KindContain:
			err = core.BatchContainSemijoin(lc, rc, opt, emit)
		default:
			err = core.BatchOverlapSemijoin(lc, rc, opt, emit)
		}
		if err != nil {
			return nil, 0, err
		}
		emitted = int64(len(idx))
		rec.end(id, emitted)

		// A semijoin's output rows are its qualifying input rows, by
		// reference: nothing is built.
		id = rec.begin(root, req, "relation", "materialize")
		for _, i := range idx {
			rows = append(rows, lw[i].row)
		}
		rec.end(id, int64(len(rows)))
	}
	rec.end(root, int64(len(rows)))
	return rows, emitted, nil
}

// externalOrder mirrors the engine's establishOrder under SortMemRows,
// adding the sort's page traffic to w.sortIO.
func (w *batchWorkload) externalOrder(rows []relation.Row, o relation.Order) ([]spanned, error) {
	sw := wrapRows(rows, relation.TupleSchema)
	if relation.SortedSpans(sw, spanOf, o) {
		return sw, nil
	}
	if len(rows) <= w.opt.SortMemRows {
		relation.SortSpans(sw, spanOf, o)
		return sw, nil
	}
	schema := relation.TupleSchema
	less := func(a, b relation.Row) bool { return o.Compare(a.Span(schema), b.Span(schema)) < 0 }
	var st storage.SortStats
	sorted, err := storage.ExternalSort(stream.FromSlice(rows), schema, less, w.opt.SortMemRows, w.opt.SpillDir, &st)
	if err != nil {
		return nil, err
	}
	out, err := stream.Collect(sorted)
	if err != nil {
		return nil, err
	}
	w.sortIO.Runs += st.Runs
	w.sortIO.PagesRead += st.PagesRead
	w.sortIO.PagesWritten += st.PagesWritten
	return wrapRows(out, schema), nil
}

func endpointCols(ws []spanned) core.Cols {
	ts := make([]interval.Time, 0, len(ws))
	te := make([]interval.Time, 0, len(ws))
	for i := range ws {
		ts = append(ts, ws[i].span.Start)
		te = append(te, ws[i].span.End)
	}
	return core.Cols{TS: ts, TE: te}
}

// concatPairs builds every output row of a join in one value arena, as
// the engine's materialization step does.
func concatPairs(lw, rw []spanned, pairs []pairIdx) []relation.Row {
	if len(pairs) == 0 {
		return nil
	}
	la := len(lw[pairs[0].l].row)
	width := la + len(rw[pairs[0].r].row)
	rows := make([]relation.Row, len(pairs))
	arena := make([]value.Value, len(pairs)*width)
	for i, p := range pairs {
		row := arena[i*width : (i+1)*width : (i+1)*width]
		copy(row, lw[p.l].row)
		copy(row[la:], rw[p.r].row)
		rows[i] = row
	}
	return rows
}

// openReplayFiles gives the stored replay heap files of its own, with the
// same pool sizes as the database's.
func (w *batchWorkload) openReplayFiles() error {
	open := func(name string, rows []relation.Row, pool int) (*storage.HeapFile, error) {
		hf, err := storage.Create(filepath.Join(w.dir, "replay-"+name+".tdb"), relation.TupleSchema, pool)
		if err != nil {
			return nil, err
		}
		if err := hf.AppendAll(rows); err != nil {
			_ = hf.Close() // the append error wins
			return nil, err
		}
		if err := hf.Flush(); err != nil {
			_ = hf.Close() // the flush error wins
			return nil, err
		}
		return hf, nil
	}
	var err error
	if w.heapX, err = open("X", w.xRows, w.poolX); err != nil {
		return err
	}
	w.heapY, err = open("Y", w.yRows, w.poolY)
	return err
}

// traced alternates, per query kind, one engine.Run under a span with one
// decomposed replay, and derives the layer ledger from the spans.
func (w *batchWorkload) traced(e *env, d time.Duration, rec *recorder, m *measurement) *layerReport {
	rep := &layerReport{values: map[string]float64{}}
	if w.storedOn {
		if err := w.openReplayFiles(); !e.tally.check(err == nil, "%s: replay files: %v", w.name, err) {
			return rep
		}
	}
	queryOf := map[int]string{} // request → query kind
	hashed := map[string]bool{}
	pairs := map[string]int64{}
	var ioBefore storage.IOStats
	if w.storedOn {
		ioBefore = w.storedIO()
	}
	runs := 0

	forRounds(d, func(int) {
		for _, q := range w.queries {
			req := rec.request()
			queryOf[req] = q.name
			runtime.GC()
			if q.text != "" {
				root := rec.begin(0, req, "bench", "pipeline")
				tree, err := planQuel(rec, root, req, w.db, q.text, nil)
				if !e.tally.check(err == nil, "%s: %s: plan: %v", w.name, q.name, err) {
					continue
				}
				id := rec.begin(root, req, "engine", "run")
				out, st, err := engine.Run(w.db, tree, w.opt)
				rec.end(id, 0)
				rec.end(root, 0)
				w.checkRun(e, q, out, st, err)
				continue
			}
			id := rec.begin(0, req, "engine", "run")
			out, st, err := engine.Run(w.db, q.tree, w.opt)
			rec.end(id, 0)
			runs++
			if !w.checkRun(e, q, out, st, err) {
				continue
			}
			out = nil // the replay must not pay for the engine's result still being live

			req = rec.request()
			queryOf[req] = q.name
			runtime.GC()
			rows, emitted, err := w.replay(rec, req, q)
			if !e.tally.check(err == nil, "%s: %s: replay: %v", w.name, q.name, err) {
				continue
			}
			pairs[q.name] = emitted
			// The replay explains the engine's run only if it computes the
			// same thing: same row count every time, same hash the first.
			if !hashed[q.name] {
				hashed[q.name] = true
				got := hashRows(rows)
				e.tally.check(got == q.ref, "%s: %s: replay %d rows hash %x, engine %d rows hash %x",
					w.name, q.name, got.rows, got.sum, q.ref.rows, q.ref.sum)
			} else {
				e.tally.check(len(rows) == q.ref.rows, "%s: %s: replay %d rows, engine %d", w.name, q.name, len(rows), q.ref.rows)
			}
		}
	})

	// Per kind: the median over its requests of each layer's self time;
	// then the mean over the decomposed kinds, so the ledger's lines add up.
	costs := requestCosts(rec.spans)
	type series map[string][]float64
	perKind := map[string]series{}
	alloc := map[string]series{}
	for req, layers := range costs {
		k := queryOf[req]
		if perKind[k] == nil {
			perKind[k], alloc[k] = series{}, series{}
		}
		for key, c := range layers {
			perKind[k][key] = append(perKind[k][key], float64(c.selfNS)/1e6)
			alloc[k][key] = append(alloc[k][key], float64(c.allocBytes)/1024)
		}
	}
	// Mallocs per run come from the span itself, not the folded costs.
	mallocs := map[string][]float64{}
	for _, s := range rec.spans {
		if s.Layer == "engine" && s.Name == "run" && s.Parent == 0 {
			k := queryOf[s.Request]
			mallocs[k] = append(mallocs[k], float64(s.Mallocs))
		}
	}
	overKinds := func(from map[string]series, key string) float64 {
		var ks []float64
		for _, q := range w.queries {
			if q.text == "" {
				ks = append(ks, median(from[q.name][key]))
			}
		}
		return mean(ks)
	}
	layerMS := func(key string) float64 { return overKinds(perKind, key) }
	layerKB := func(key string) float64 { return overKinds(alloc, key) }
	v := rep.values
	v["engine.run_ms"] = layerMS("engine.run")
	v["engine.alloc_kb_per_run"] = layerKB("engine.run")
	v["relation.sort_ms"] = layerMS("relation.sort")
	v["relation.shred_ms"] = layerMS("relation.shred")
	v["core.sweep_ms"] = layerMS("core.sweep")
	v["relation.materialize_ms"] = layerMS("relation.materialize")
	v["relation.materialize_alloc_kb"] = layerKB("relation.materialize")
	v["storage.scan_ms"] = layerMS("storage.scan")
	v["storage.extsort_ms"] = layerMS("storage.extsort")
	stages := []string{"storage.scan", "storage.extsort", "relation.sort", "relation.shred", "core.sweep", "relation.materialize"}
	sum := 0.0
	for _, s := range stages {
		sum += layerMS(s)
	}
	v["engine.residual_ms"] = v["engine.run_ms"] - sum

	// Counts add up over the kinds of one round (workspace: the largest);
	// timings average over them.
	var mal, perInput, overhead []float64
	for _, q := range w.queries {
		if q.text != "" {
			continue
		}
		v["engine.comparisons"] += float64(q.comparisons)
		v["engine.tuples_read"] += float64(q.tuplesRead)
		v["engine.sorted_rows"] += float64(q.sortedRows)
		v["core.sweep_pairs"] += float64(pairs[q.name])
		if ws := float64(q.workspace); ws > v["engine.workspace_max"] {
			v["engine.workspace_max"] = ws
		}
		mal = append(mal, median(mallocs[q.name]))
		perInput = append(perInput, median(perKind[q.name]["core.sweep"])*1e6/float64(q.rowsIn))
		if u := median(m.lat[q.name]); u > 0 {
			overhead = append(overhead, 100*(median(perKind[q.name]["engine.run"])-u)/u)
		}
	}
	v["engine.mallocs_per_run"] = mean(mal)
	v["core.sweep_ns_per_input"] = mean(perInput)
	v["bench.trace_overhead_pct"] = mean(overhead)
	v["bench.tail.query_ms_p90"] = m.scoped["bench.tail.query_ms_p90"]

	if w.faculty > 0 {
		k := perKind["superstar-quel"]
		v["quel.parse_us"] = median(k["quel.parse"]) * 1e3
		v["quel.translate_us"] = median(k["quel.translate"]) * 1e3
		v["optimizer.optimize_us"] = median(k["optimizer.optimize"]) * 1e3
		b := budget{Title: w.name + " superstar-quel pipeline"}
		for _, key := range []string{"quel.parse", "quel.translate", "optimizer.optimize", "engine.run", "bench.pipeline"} {
			b.Lines = append(b.Lines, budgetLine{Layer: key, SelfMS: median(k[key]), AllocKB: median(alloc["superstar-quel"][key])})
			b.TotalMS += median(k[key])
		}
		rep.budgets = append(rep.budgets, b)
	}

	if w.storedOn {
		io := w.storedIO()
		perRun := float64(runs)
		if runs > 0 {
			// Scan pages from the database's own counters; sort pages from
			// the replay's ExternalSort, which repeats the engine's.
			v["storage.pages_read"] = float64(io.PagesRead-ioBefore.PagesRead)/perRun + float64(w.sortIO.PagesRead)
			v["storage.pages_written"] = float64(w.sortIO.PagesWritten)
			hits, reads := float64(io.PoolHits-ioBefore.PoolHits), float64(io.PagesRead-ioBefore.PagesRead)
			if hits+reads > 0 {
				v["storage.pool_hit_ratio"] = hits / (hits + reads)
			}
		}
	} else {
		w.parallelLedger(e, v)
	}

	lines := []budgetLine{}
	residualKB := v["engine.alloc_kb_per_run"]
	for _, s := range stages {
		if ms, kb := layerMS(s), layerKB(s); ms > 0 || kb > 0 {
			lines = append(lines, budgetLine{Layer: s, SelfMS: ms, AllocKB: kb})
			residualKB -= kb
		}
	}
	lines = append(lines, budgetLine{Layer: "engine.residual", SelfMS: v["engine.residual_ms"], AllocKB: residualKB})
	rep.budgets = append([]budget{{
		Title:   fmt.Sprintf("%s engine.Run, mean over kinds (replay total %.3f ms)", w.name, layerMS("engine.replay")+sum),
		TotalMS: v["engine.run_ms"], Lines: lines,
	}}, rep.budgets...)
	return rep
}

func (w *batchWorkload) storedIO() storage.IOStats {
	var io storage.IOStats
	for _, name := range []string{"X", "Y"} {
		if s := w.db.StoredIO(name); s != nil {
			io.PagesRead += s.PagesRead
			io.PagesWritten += s.PagesWritten
			io.PoolHits += s.PoolHits
		}
	}
	return io
}

// parallelLedger records the informational parallel figures: the same
// queries fanned out to nproc shards, and the cost and replication of the
// range split itself. No end-to-end metric depends on them while the
// shard workers share this box's cores with everything else.
func (w *batchWorkload) parallelLedger(e *env, v map[string]float64) {
	k := runtime.NumCPU()
	if k < 2 {
		k = 2
	}
	opt := w.opt
	opt.Parallelism, opt.ForceParallel = k, true
	var par []float64
	for _, q := range w.queries {
		if q.text != "" {
			continue
		}
		var ts []float64
		for i := 0; i < 3; i++ {
			var out *relation.Relation
			var err error
			sec := timed(func() { out, _, err = engine.Run(w.db, q.tree, opt) })
			if e.tally.check(err == nil && out.Cardinality() == q.ref.rows, "%s: %s parallel: %v", w.name, q.name, err) {
				ts = append(ts, sec*1e3)
			}
		}
		par = append(par, median(ts))
	}
	v["engine.par_run_ms"] = mean(par)
	if v["engine.par_run_ms"] > 0 {
		v["engine.par_ratio"] = v["engine.run_ms"] / v["engine.par_run_ms"]
	}

	lw, rw := wrapRows(w.xRows, relation.TupleSchema), wrapRows(w.yRows, relation.TupleSchema)
	ts := relation.Order{relation.TSAsc}
	relation.SortSpans(lw, spanOf, ts)
	relation.SortSpans(rw, spanOf, ts)
	var cuts []interval.Time
	for i := 1; i < k; i++ {
		cuts = append(cuts, lw[len(lw)*i/k].span.Start)
	}
	ranges := partition.Ranges(cuts)
	var split []float64
	var repl float64
	for i := 0; i < 5; i++ {
		var shl, shr [][]spanned
		split = append(split, 1e3*timed(func() {
			shl = partition.Split(lw, spanOf, ranges)
			shr = partition.Split(rw, spanOf, ranges)
		}))
		repl = (partition.Replication(shl, len(lw))*float64(len(lw)) + partition.Replication(shr, len(rw))*float64(len(rw))) / float64(len(lw)+len(rw))
	}
	v["partition.split_ms"] = median(split)
	v["partition.replication"] = repl
}
