package main

import (
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	tdbdriver "tdb/driver"
	"tdb/internal/engine"
	"tdb/internal/live"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/server"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// serverMixed drives an in-process query server over real TCP through the
// public driver. Phase A: one reader connection (85 % point reads,
// alternating ad-hoc and prepared; 15 % wide joins; a fixed seeded schedule
// per round) beside one writer connection appending 16-row batches back to
// back. Phase B: one subscription stream beside one appender, timing each
// append until the delta it caused comes back.
type serverMixed struct {
	faculty, n    int
	readsPerRound int
	tripsPerRound int

	db    *engine.DB
	reg   *obs.Registry
	srv   *server.Server
	base  string
	sdb   *sql.DB
	stmt  *sql.Stmt
	conn  *tdbdriver.Connector
	plain *http.Client

	schedule []read // one round of reads, reused every round
	refs     map[string]resultHash
	clock    int64 // next ValidFrom to append; only ever grows, so no tuple is late
	resumes  int
}

type read struct {
	wide     bool
	rank     string
	prepared bool
}

func (r read) key() string {
	if r.wide {
		return "wide"
	}
	return "point:" + r.rank
}

const (
	appendBatch = 16
	subscribeBy = `range of a is LA
range of b is LB
subscribe watch (A=a.S, B=b.S, At=b.ValidFrom) where (a overlap b)`
)

func newServerMixed() runner {
	// Faculty of 4000 members: a point read returns 2000-4000 rows. X and
	// Y of 500: the wide join returns about 20 000.
	return &serverMixed{faculty: 4000, n: 500, readsPerRound: 40, tripsPerRound: 25}
}

func (w *serverMixed) sizes() map[string]int {
	return map[string]int{"faculty_members": w.faculty, "n_per_side": w.n,
		"reads_per_round": w.readsPerRound, "round_trips_per_round": w.tripsPerRound, "append_batch_rows": appendBatch}
}

func (w *serverMixed) setUp(e *env) error {
	if e.tiny {
		w.faculty, w.n, w.readsPerRound, w.tripsPerRound = 60, 60, 20, 5
	}
	w.db = engine.NewDB()
	if err := w.db.Register(workload.Faculty(workload.FacultyConfig{N: w.faculty, Seed: subSeed(e.seed, seedFaculty)})); err != nil {
		return err
	}
	if err := w.db.DeclareChronOrder(rankOrder()); err != nil {
		return err
	}
	xs, ys := genXY(w.n, 1, e.seed)
	for _, rel := range []*relation.Relation{
		shuffled("X", xs, e.seed), shuffled("Y", ys, e.seed+1),
		// Three empty live relations: LW takes phase A's appends, LA and LB
		// feed phase B's standing join. Phase A keeps its rows out of LA
		// and LB so that subscribing does not start by backfilling them.
		relation.New("LW", relation.TupleSchema), relation.New("LA", relation.TupleSchema), relation.New("LB", relation.TupleSchema),
	} {
		if err := w.db.Register(rel); err != nil {
			return err
		}
	}

	w.reg = obs.NewRegistry()
	w.srv = server.New(server.Config{DB: w.db, Registry: w.reg,
		Tenants: []server.TenantConfig{{Name: "default", MaxConcurrent: 16, MaxQueue: 256, QueueTimeout: 30 * time.Second}}})
	addr, err := w.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + addr
	if w.sdb, err = sql.Open("tdb", w.base); err != nil {
		return err
	}
	w.sdb.SetMaxOpenConns(1)
	ctx := context.Background()
	if w.stmt, err = w.sdb.PrepareContext(ctx, pointText); err != nil {
		return err
	}
	if w.conn, err = tdbdriver.NewConnector(w.base); err != nil {
		return err
	}
	w.plain = &http.Client{}

	rng := rand.New(rand.NewSource(subSeed(e.seed, seedReads)))
	points := 0
	for i := 0; i < w.readsPerRound; i++ {
		if rng.Float64() < 0.15 {
			w.schedule = append(w.schedule, read{wide: true})
			continue
		}
		w.schedule = append(w.schedule, read{rank: workload.Ranks[rng.Intn(len(workload.Ranks))], prepared: points%2 == 1})
		points++
	}

	// Warm-up: every read kind both ways, one append: plan caches, the
	// keep-alive connections and the live table exist before timing.
	for _, r := range []read{{rank: "Assistant"}, {rank: "Associate", prepared: true}, {rank: "Full"}, {wide: true}} {
		if _, err := w.read(ctx, r, nil); err != nil {
			return fmt.Errorf("warm-up %s: %w", r.key(), err)
		}
	}
	if _, err := w.conn.Append(ctx, "LW", w.batch("w"), 0, false); err != nil {
		return fmt.Errorf("warm-up append: %w", err)
	}
	return nil
}

func (w *serverMixed) tearDown() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if w.stmt != nil {
		keep(w.stmt.Close())
	}
	if w.sdb != nil {
		keep(w.sdb.Close())
	}
	if w.plain != nil {
		w.plain.CloseIdleConnections()
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(w.srv.Shutdown(ctx))
		cancel()
	}
	return first
}

// batch is the next appendBatch rows for a live relation, each starting
// one chronon after the last.
func (w *serverMixed) batch(prefix string) [][]any {
	rows := make([][]any, appendBatch)
	for i := range rows {
		rows[i] = []any{prefix + strconv.FormatInt(w.clock, 10), "v", w.clock, w.clock + 5}
		w.clock++
	}
	return rows
}

// read runs one read through database/sql and scans every row; with a
// hasher it also digests them.
func (w *serverMixed) read(ctx context.Context, r read, h *hasher) (int, error) {
	var rows *sql.Rows
	var err error
	switch {
	case r.wide:
		rows, err = w.sdb.QueryContext(ctx, wideText)
	case r.prepared:
		rows, err = w.stmt.QueryContext(ctx, r.rank)
	default:
		rows, err = w.sdb.QueryContext(ctx, pointText, r.rank)
	}
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return 0, err
	}
	vals := make([]any, len(cols))
	dest := make([]any, len(cols))
	for i := range dest {
		dest[i] = &vals[i]
	}
	n := 0
	for rows.Next() {
		if err := rows.Scan(dest...); err != nil {
			return n, err
		}
		n++
		if h == nil {
			continue
		}
		for _, v := range vals {
			switch x := v.(type) {
			case string:
				h.str(x)
			case int64:
				h.int(x)
			default:
				return n, fmt.Errorf("unexpected cell %T", v)
			}
		}
		h.endRow()
	}
	return n, rows.Err()
}

// statement is a read's quel text and parameters.
func (r read) statement() (string, []value.Value) {
	if r.wide {
		return wideText, nil
	}
	return pointText, []value.Value{value.String_(r.rank)}
}

// gate requires, per statement: wire result == embedded result, ad-hoc ==
// prepared, and columnar == row execution.
func (w *serverMixed) gate(e *env) {
	ctx := context.Background()
	w.refs = map[string]resultHash{}
	for _, r := range []read{{rank: "Assistant"}, {rank: "Associate"}, {rank: "Full"}, {wide: true}} {
		text, params := r.statement()
		tree, err := planQuel(nil, 0, 0, w.db, text, params)
		if !e.tally.check(err == nil, "server_mixed: plan %s: %v", r.key(), err) {
			continue
		}
		out, _, err := engine.Run(w.db, tree, engine.Options{})
		if !e.tally.check(err == nil, "server_mixed: embedded %s: %v", r.key(), err) {
			continue
		}
		ref := hashRows(out.Rows)
		w.refs[r.key()] = ref
		e.tally.check(ref.rows > 0, "server_mixed: %s returned no rows", r.key())
		if rowOut, _, err := engine.Run(w.db, tree, engine.Options{RowExec: true}); e.tally.check(err == nil, "server_mixed: RowExec %s: %v", r.key(), err) {
			got := hashRows(rowOut.Rows)
			e.tally.check(got == ref, "server_mixed: %s: columnar %d rows %x, row reference %d rows %x", r.key(), ref.rows, ref.sum, got.rows, got.sum)
		}
		for _, prepared := range []bool{false, true} {
			if r.wide && prepared {
				continue
			}
			r.prepared = prepared
			h := newHasher()
			_, err := w.read(ctx, r, h)
			got := h.result()
			e.tally.check(err == nil && got == ref, "server_mixed: %s (prepared %v): wire %d rows %x, embedded %d rows %x, err %v",
				r.key(), prepared, got.rows, got.sum, ref.rows, ref.sum, err)
		}
	}
}

// appended is what the writer goroutine hands back after a round.
type appended struct {
	ms     []float64 // latency of each successful append
	rows   int
	failed []string
}

// phaseA runs one round: the fixed read schedule on this goroutine, the
// writer beside it until the reads are done. It returns the round's rows
// and its completed operations per wall second.
func (w *serverMixed) phaseA(e *env, m *measurement) (round, float64) {
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var wr appended
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rows := w.batch("w")
			start := time.Now()
			res, err := w.conn.Append(ctx, "LW", rows, 0, false)
			ms := time.Since(start).Seconds() * 1e3
			if err != nil || res.Appended != appendBatch {
				wr.failed = append(wr.failed, fmt.Sprintf("server_mixed: append: %d rows, %v", res.Appended, err))
				continue
			}
			wr.ms = append(wr.ms, ms)
			wr.rows += res.Appended
		}
	}()

	var r round
	reads := 0
	start := time.Now()
	for _, rd := range w.schedule {
		t0 := time.Now()
		n, err := w.read(ctx, rd, nil)
		sec := time.Since(t0).Seconds()
		if !e.tally.check(err == nil && n == w.refs[rd.key()].rows, "server_mixed: %s: %d rows (want %d), %v", rd.key(), n, w.refs[rd.key()].rows, err) {
			continue
		}
		reads++
		if rd.wide {
			m.add("wide", sec*1e3)
			r.rowsOut += float64(n)
			r.outSec += sec
		} else {
			m.add("point", sec*1e3)
		}
	}
	close(stop)
	wg.Wait()
	wall := time.Since(start).Seconds()

	for _, ms := range wr.ms {
		m.add("append", ms)
	}
	e.tally.add(len(wr.ms)+len(wr.failed), wr.failed)
	m.ops += reads + len(wr.ms)
	r.rowsIn, r.inSec = float64(wr.rows), wall
	return r, float64(reads+len(wr.ms)) / wall
}

// delta is one batch seen by the subscriber: the newest round it carries
// and when Next returned it.
type delta struct {
	round int
	at    time.Time
}

// phaseB subscribes once and times round trips for about d.
func (w *serverMixed) phaseB(e *env, m *measurement, d time.Duration) {
	ctx := context.Background()
	sub, err := w.conn.Subscribe(ctx, subscribeBy, 1)
	if !e.tally.check(err == nil, "server_mixed: subscribe: %v", err) {
		return
	}
	// Buffered so the subscriber can park the stragglers of one round (a
	// round's deltas may arrive as several batches) while the appender is
	// inside its next Append.
	seen := make(chan delta, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			ds, err := sub.Next()
			if err != nil {
				return // Close cancels the stream; a real failure shows as a round timing out
			}
			now := time.Now()
			newest := -1
			for _, row := range ds.Rows {
				if len(row) < 2 {
					continue
				}
				if r, ok := roundOf(row[1]); ok && r > newest {
					newest = r
				}
			}
			select {
			case seen <- delta{round: newest, at: now}:
			case <-stop:
				return
			}
		}
	}()

	trip := 0
	forRounds(d, func(int) {
		for i := 0; i < w.tripsPerRound; i++ {
			// Sixteen LA lifespans, then sixteen LB lifespans inside them:
			// the LB append completes pairs the standing join can emit at
			// once. The last LB row starts after every LA row so the sweep
			// consumes the whole LA batch.
			base := w.clock
			w.clock += 100
			la, lb := make([][]any, appendBatch), make([][]any, appendBatch)
			for j := range la {
				la[j] = []any{fmt.Sprintf("a%d_%d", trip, j), "v", base + int64(j), base + int64(j) + 20}
				lb[j] = []any{fmt.Sprintf("b%d_%d", trip, j), "v", base + int64(j) + 1, base + int64(j) + 4}
			}
			lb[appendBatch-1] = []any{fmt.Sprintf("b%d_%d", trip, appendBatch-1), "v", base + 40, base + 41}
			_, err := w.conn.Append(ctx, "LA", la, 0, false)
			if !e.tally.check(err == nil, "server_mixed: append LA: %v", err) {
				continue
			}
			start := time.Now()
			_, err = w.conn.Append(ctx, "LB", lb, 0, false)
			ok := err == nil
			var at time.Time
			deadline := time.NewTimer(10 * time.Second)
			for ok && at.IsZero() {
				select {
				case dl := <-seen:
					if dl.round >= trip {
						at = dl.at
					}
				case <-deadline.C:
					ok = false
				}
			}
			deadline.Stop()
			if e.tally.check(ok, "server_mixed: round trip %d: no delta (append error %v)", trip, err) {
				m.add("delta", at.Sub(start).Seconds()*1e3)
			}
			trip++
		}
		m.cut("delta")
	})

	// The stream must have carried a prefix of exactly what a batch
	// execution over the final relations produces.
	verr := w.srv.WithLive(func(mgr *live.Manager) error {
		qs := mgr.Queries()
		if len(qs) != 1 {
			return fmt.Errorf("%d standing queries registered, want 1", len(qs))
		}
		_, _, err := qs[0].Verify()
		return err
	})
	e.tally.check(verr == nil, "server_mixed: standing query Verify: %v", verr)
	w.resumes += sub.Stats().Resumes
	close(stop)
	e.tally.check(sub.Close() == nil, "server_mixed: close subscription")
	wg.Wait()
}

// roundOf reads the round number out of an LB surrogate "b<round>_<j>".
func roundOf(cell any) (int, bool) {
	s, ok := cell.(string)
	if !ok || !strings.HasPrefix(s, "b") {
		return 0, false
	}
	num, _, ok := strings.Cut(s[1:], "_")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	return n, err == nil
}

func (w *serverMixed) measure(e *env, d time.Duration) *measurement {
	m := newMeasurement("point", "wide", "append", "delta")
	start := time.Now()
	before := totalAlloc()
	// Two thirds of the pass for phase A, a third for phase B. The phases
	// do not interleave: an open subscription polls under the exclusive
	// catalog lock every millisecond, which phase A's readers would pay for.
	var opsPerS []float64
	forRounds(d*2/3, func(int) {
		r, rate := w.phaseA(e, m)
		m.cut("point", "wide", "append")
		if r.outSec > 0 && r.rowsIn > 0 {
			m.rounds = append(m.rounds, r)
			opsPerS = append(opsPerS, rate)
		}
	})
	w.phaseB(e, m, d/3)
	m.ops += len(m.lat["delta"])
	m.allocBytes = totalAlloc() - before
	m.seconds = time.Since(start).Seconds()

	m.scoped["point_ms_p50"] = median(m.lat["point"])
	m.scoped["wide_ms_p50"] = median(m.lat["wide"])
	m.scoped["append_ms_p50"] = median(m.lat["append"])
	m.scoped["delta_ms_p50"] = median(m.lat["delta"])
	m.scoped["ops_per_s"] = median(opsPerS)
	m.samples["ops_per_s"], m.series["ops_per_s"] = len(opsPerS), opsPerS
	m.scoped["bench.tail.point_ms_p99"] = tailPercentile(m.lat["point"], 99)
	m.scoped["bench.tail.wide_ms_p90"] = tailPercentile(m.lat["wide"], 90)
	m.scoped["bench.tail.append_ms_p99"] = tailPercentile(m.lat["append"], 99)
	m.scoped["bench.tail.delta_ms_p90"] = tailPercentile(m.lat["delta"], 90)
	n := 0
	for _, k := range m.kinds {
		m.samples[k+"_ms_p50"] = len(m.lat[k])
		m.series[k+"_ms_p50"] = m.roundMedians(k)
		n += len(m.lat[k])
	}
	m.samples["query_ms_p50"] = n
	return m
}

// rawQuery posts the statement to /v1/query with net/http and reads the
// body to EOF without decoding it: the server's whole share of a request,
// none of the driver's.
func (w *serverMixed) rawQuery(r read) (int64, error) {
	req := map[string]any{"quel": pointText, "params": []any{r.rank}}
	if r.wide {
		req = map[string]any{"quel": wideText}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := w.plain.Post(w.base+"/"+server.Protocol+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %s", resp.Status)
	}
	return n, err
}

// traced measures, serially and with no writer running, the same
// statement three ways — through the driver, as a raw HTTP exchange, and
// embedded, stage by stage through parse, translate, optimize and
// engine.Run — and accounts a request by differencing.
func (w *serverMixed) traced(e *env, d time.Duration, rec *recorder, _ *measurement) *layerReport {
	rep := &layerReport{values: map[string]float64{}}
	ctx := context.Background()
	kindOf := map[int]string{} // request → "point" or "wide"
	unspanned := map[string][]float64{}
	var bytesPerRow []float64

	forRounds(d, func(int) {
		for _, r := range []read{{rank: "Associate"}, {wide: true}} {
			name := "point"
			if r.wide {
				name = "wide"
			}
			rows := w.refs[r.key()].rows
			request := func() int {
				req := rec.request()
				kindOf[req] = name
				return req
			}

			// The same read with no span around it: what recording costs.
			t0 := time.Now()
			n, err := w.read(ctx, r, nil)
			if e.tally.check(err == nil && n == rows, "server_mixed: serial %s: %d rows, %v", name, n, err) {
				unspanned[name] = append(unspanned[name], time.Since(t0).Seconds()*1e3)
			}

			req := request()
			id := rec.begin(0, req, "driver", "query")
			n, err = w.read(ctx, r, nil)
			rec.end(id, int64(n))
			e.tally.check(err == nil && n == rows, "server_mixed: traced driver %s: %d rows, %v", name, n, err)

			req = request()
			id = rec.begin(0, req, "server", "raw")
			size, err := w.rawQuery(r)
			rec.end(id, size)
			if e.tally.check(err == nil, "server_mixed: traced raw %s: %v", name, err) && r.wide {
				bytesPerRow = append(bytesPerRow, float64(size)/float64(rows))
			}

			req = request()
			root := rec.begin(0, req, "bench", "pipeline")
			text, params := r.statement()
			tree, err := planQuel(rec, root, req, w.db, text, params)
			if e.tally.check(err == nil, "server_mixed: traced plan %s: %v", name, err) {
				id = rec.begin(root, req, "engine", "run")
				out, _, err := engine.Run(w.db, tree, engine.Options{})
				rec.end(id, int64(rows))
				e.tally.check(err == nil && out.Cardinality() == rows, "server_mixed: traced embedded %s: %v", name, err)
			}
			rec.end(root, 0)
		}
	})

	ms := map[string]map[string][]float64{"point": {}, "wide": {}}
	for req, layers := range requestCosts(rec.spans) {
		for key, c := range layers {
			k := ms[kindOf[req]]
			k[key] = append(k[key], float64(c.selfNS)/1e6)
		}
	}
	for name, xs := range unspanned {
		ms[name]["unspanned"] = xs
	}

	v := rep.values
	var parse, translate, optimize, overhead []float64
	for _, name := range []string{"point", "wide"} {
		k := ms[name]
		drv, raw, run := median(k["driver.query"]), median(k["server.raw"]), median(k["engine.run"])
		v["server.raw_ms_"+name] = raw
		v["server.overhead_ms_"+name] = raw - run
		v["driver.decode_ms_"+name] = drv - raw
		parse = append(parse, k["quel.parse"]...)
		translate = append(translate, k["quel.translate"]...)
		optimize = append(optimize, k["optimizer.optimize"]...)
		front := median(k["quel.parse"]) + median(k["quel.translate"]) + median(k["optimizer.optimize"])
		rep.budgets = append(rep.budgets, budget{
			Title:   fmt.Sprintf("server_mixed %s read through the driver (server.raw %.3f ms)", name, raw),
			TotalMS: drv,
			Lines: []budgetLine{
				{Layer: "quel.parse", SelfMS: median(k["quel.parse"])},
				{Layer: "quel.translate", SelfMS: median(k["quel.translate"])},
				{Layer: "optimizer.optimize", SelfMS: median(k["optimizer.optimize"])},
				{Layer: "engine.run", SelfMS: run},
				{Layer: "server (admit, encode, write)", SelfMS: raw - run - front},
				{Layer: "driver (decode, scan)", SelfMS: drv - raw},
			},
		})
		// The untraced pass reads beside a writer and the traced pass does
		// not, so the overhead is taken against the unspanned serial read.
		if u := median(k["unspanned"]); u > 0 {
			overhead = append(overhead, 100*(drv-u)/u)
		}
	}
	v["bench.trace_overhead_pct"] = mean(overhead)
	v["quel.parse_us"] = median(parse) * 1e3
	v["quel.translate_us"] = median(translate) * 1e3
	v["optimizer.optimize_us"] = median(optimize) * 1e3
	v["server.resp_bytes_per_row"] = median(bytesPerRow)
	counter := func(name string) float64 { return float64(w.reg.Counter(name, "").Value()) }
	v["server.admitted"] = counter("tdb_server_tenant_default_queries_total")
	v["server.rejected"] = counter("tdb_server_tenant_default_rejected_total")
	// Every retry the driver makes is caused by a rejection, a failed
	// request, a replayed append or a severed stream; all four are counted
	// where they happen.
	v["driver.retries"] = v["server.rejected"] + counter("tdb_server_tenant_default_errors_total") +
		counter("tdb_server_append_dedup_hits_total") + float64(w.resumes)
	return rep
}
