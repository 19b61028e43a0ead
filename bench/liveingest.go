package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/live"
	"tdb/internal/relation"
)

// liveIngest is the E23 shape on an embedded live.Manager: two streams
// with reorder slack 8, arrivals jittered within the slack, three standing
// queries (contain-semijoin and overlap-join evaluated incrementally, a
// before-semijoin degraded to batch re-execution). A repetition ingests
// one phase's arrivals into a fresh manager; a round is one repetition at
// lambda 0.5 (lo) and one at lambda 10 (hi), so the same code runs at
// operator workspaces about 20x apart.
type liveIngest struct {
	phases []*livePhase
}

const (
	liveSlack  = 8
	pollEvery  = 64   // appends per micro-batch: one Poll of the incremental queries ends it
	batchEvery = 1024 // appends between polls of the degraded query
)

var liveQueries = []string{"semijoin-contain", "join-overlap", "semijoin-before"}

type arrival struct {
	rel string
	row relation.Row
}

type livePhase struct {
	name     string // "lo" or "hi"
	lambda   float64
	n        int // tuples per stream
	arrivals []arrival
	// What the gate's verified repetition produced; every later
	// repetition must reproduce it.
	deltas    map[string]int
	hashes    map[string]uint64
	workspace map[string]int64
	bound     map[string]float64
	modes     map[string]live.Mode
}

func newLiveIngest() runner {
	return &liveIngest{phases: []*livePhase{
		{name: "lo", lambda: 0.5, n: 4096},
		{name: "hi", lambda: 10, n: 1000},
	}}
}

func (w *liveIngest) sizes() map[string]int {
	s := map[string]int{"slack": liveSlack, "poll_every": pollEvery}
	for _, p := range w.phases {
		s["n_per_stream_"+p.name] = p.n
	}
	return s
}

func (w *liveIngest) setUp(e *env) error {
	for i, p := range w.phases {
		if e.tiny {
			p.n = 256
		}
		p.arrivals = genArrivals(p.n, p.lambda, e.seed+int64(i))
		// Warm-up: one whole repetition per phase.
		_, mgr, err := w.ingest(p, nil)
		if mgr != nil {
			mgr.Close()
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", p.name, err)
		}
	}
	return nil
}

func (w *liveIngest) tearDown() error { return nil }

// genArrivals merges the two streams in arrival order: each tuple arrives
// at its ValidFrom plus a uniform offset below the slack, so arrival
// deviates from ValidFrom order by less than the reorder buffer absorbs
// and no tuple is rejected as late.
func genArrivals(n int, lambda float64, seed int64) []arrival {
	xs, ys := genXY(n, lambda, seed)
	rng := rand.New(rand.NewSource(subSeed(seed, seedJitter)))
	type keyed struct {
		arrival
		key interval.Time
	}
	var all []keyed
	for _, src := range []struct {
		rel string
		ts  []relation.Tuple
	}{{"X", xs}, {"Y", ys}} {
		for _, t := range src.ts {
			all = append(all, keyed{
				arrival: arrival{rel: src.rel, row: relation.TupleToRow(t)},
				key:     t.Span.Start + interval.Time(rng.Int63n(liveSlack)),
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].key < all[j].key })
	out := make([]arrival, len(all))
	for i, k := range all {
		out[i] = k.arrival
	}
	return out
}

func standingTrees() map[string]algebra.Expr {
	x, y := &algebra.Scan{Relation: "X", As: "x"}, &algebra.Scan{Relation: "Y", As: "y"}
	return map[string]algebra.Expr{
		"semijoin-contain": &algebra.Semijoin{L: x, R: y, Kind: algebra.KindContain, LSpan: lifespan("x"), RSpan: lifespan("y")},
		"join-overlap":     &algebra.Join{L: x, R: y, Kind: algebra.KindOverlap, LSpan: lifespan("x"), RSpan: lifespan("y")},
		"semijoin-before": &algebra.Semijoin{L: x, R: y, Kind: algebra.KindBefore,
			LSpan: algebra.SpanRef{TS: algebra.ColRef{Var: "x", Col: "ValidTo"}, TE: algebra.ColRef{Var: "x", Col: "ValidTo"}},
			RSpan: lifespan("y")},
	}
}

// repTiming is what one repetition cost. The untraced pass fills wall,
// steps and the delta count; the traced pass also splits the time by call.
type repTiming struct {
	wall     float64   // seconds from the first Append to the last Finish
	steps    []float64 // ms per micro-batch: pollEvery appends and the Poll that ends them
	deltas   int
	appendNS int64 // time inside Manager.Append
	pollNS   int64 // time inside StandingQuery.Poll
	flushNS  int64 // time inside Manager.Flush and StandingQuery.Finish
	appends  int
	polls    int
	rejected int64
}

// ingest is one repetition: the phase's arrivals into a fresh manager —
// Append each, Poll the incremental queries every pollEvery appends and the
// degraded one every batchEvery, Flush, Finish. With a recorder it also
// times every call and records one span per micro-batch of appends and per
// Poll. It returns the manager still open, so the gate can Verify its
// queries; the caller closes it.
func (w *liveIngest) ingest(p *livePhase, rec *recorder) (repTiming, *live.Manager, error) {
	var t repTiming
	db := engine.NewDB()
	for _, name := range []string{"X", "Y"} {
		if err := db.Register(relation.New(name, relation.TupleSchema)); err != nil {
			return t, nil, err
		}
	}
	mgr := live.NewManager(db, nil, engine.Options{})
	for _, name := range []string{"X", "Y"} {
		if _, err := mgr.Live(name, liveSlack); err != nil {
			return t, mgr, err
		}
	}
	trees := standingTrees()
	for _, name := range liveQueries {
		if _, err := mgr.Register(name, trees[name], live.RegisterOptions{AllowDegrade: true}); err != nil {
			return t, mgr, err
		}
	}
	incremental := []*live.StandingQuery{mgr.Query("semijoin-contain"), mgr.Query("join-overlap")}
	degraded := mgr.Query("semijoin-before")

	req := rec.request()
	root := rec.begin(0, req, "live", "repetition:"+p.name)
	// The per-call clock reads are skipped in the untraced pass: two per
	// Append would be a percent of a 2.5 us call.
	traced := rec != nil
	poll := func(q *live.StandingQuery) error {
		id := rec.begin(root, req, "live", "poll")
		var s time.Time
		if traced {
			s = time.Now()
		}
		rows, err := q.Poll()
		if traced {
			t.pollNS += time.Since(s).Nanoseconds()
			t.polls++
		}
		rec.end(id, int64(len(rows)))
		return err
	}

	start := time.Now()
	stepStart := start
	batchSpan, batchStart := 0, 0
	for i, a := range p.arrivals {
		if i%pollEvery == 0 {
			batchSpan, batchStart = rec.begin(root, req, "live", "append"), i
		}
		var s time.Time
		if traced {
			s = time.Now()
		}
		if err := mgr.Append(a.rel, a.row); err != nil {
			return t, mgr, err
		}
		if traced {
			t.appendNS += time.Since(s).Nanoseconds()
		}
		if i%pollEvery == pollEvery-1 || i == len(p.arrivals)-1 {
			rec.end(batchSpan, int64(i+1-batchStart))
		}
		if i%pollEvery == pollEvery-1 {
			for _, q := range incremental {
				if err := poll(q); err != nil {
					return t, mgr, err
				}
			}
			now := time.Now()
			t.steps = append(t.steps, now.Sub(stepStart).Seconds()*1e3)
			stepStart = now
		}
		if i%batchEvery == batchEvery-1 {
			if err := poll(degraded); err != nil {
				return t, mgr, err
			}
			stepStart = time.Now() // the degraded query's re-execution is not part of a micro-batch
		}
	}
	t.appends = len(p.arrivals)

	flushStart := time.Now()
	flushSpan := rec.begin(root, req, "live", "flush")
	if err := mgr.Flush(); err != nil {
		return t, mgr, err
	}
	for _, name := range liveQueries {
		if _, err := mgr.Query(name).Finish(); err != nil {
			return t, mgr, err
		}
	}
	t.flushNS = time.Since(flushStart).Nanoseconds()
	t.wall = time.Since(start).Seconds()
	for _, name := range liveQueries {
		t.deltas += len(mgr.Query(name).Deltas())
	}
	rec.end(flushSpan, int64(t.deltas))
	rec.end(root, int64(t.appends))
	for _, tbl := range mgr.Tables() {
		t.rejected += tbl.Rejected()
	}
	return t, mgr, nil
}

// gate runs one repetition per phase and requires every standing query's
// accumulated deltas to Verify against a batch execution over the final
// relation contents, and the incremental workspaces to stay under their
// Tables 1-3 ceilings. The verified delta counts and hashes become the
// reference every timed repetition is held to.
func (w *liveIngest) gate(e *env) {
	for _, p := range w.phases {
		t, mgr, err := w.ingest(p, nil)
		if !e.tally.check(err == nil, "live_ingest: %s: %v", p.name, err) {
			if mgr != nil {
				mgr.Close()
			}
			continue
		}
		e.tally.check(t.rejected == 0, "live_ingest: %s: %d late tuples rejected", p.name, t.rejected)
		p.deltas, p.hashes = map[string]int{}, map[string]uint64{}
		p.workspace, p.bound, p.modes = map[string]int64{}, map[string]float64{}, map[string]live.Mode{}
		for _, name := range liveQueries {
			q := mgr.Query(name)
			n, ref, err := q.Verify()
			e.tally.check(err == nil && n == ref, "live_ingest: %s: %s: Verify %d deltas vs %d reference rows: %v", p.name, name, n, ref, err)
			p.deltas[name], p.hashes[name] = n, q.DeltaHash()
			p.workspace[name], p.bound[name], p.modes[name] = q.Workspace(), q.Bound(), q.Mode()
			if q.Mode() == live.ModeIncremental {
				e.tally.check(float64(q.Workspace()) <= q.Bound(), "live_ingest: %s: %s: workspace %d over its ceiling %.0f", p.name, name, q.Workspace(), q.Bound())
			}
		}
		mgr.Close()
	}
}

// checkRep holds a timed repetition to the gate's verified reference. The
// operators are deterministic functions of their input sequence, so equal
// delta counts and sequence hashes mean the repetition emitted exactly the
// verified deltas; Verify itself costs several times the ingest.
func (w *liveIngest) checkRep(e *env, p *livePhase, mgr *live.Manager, err error) bool {
	if mgr != nil {
		defer mgr.Close()
	}
	if !e.tally.check(err == nil, "live_ingest: %s: %v", p.name, err) {
		return false
	}
	ok := true
	for _, name := range liveQueries {
		q := mgr.Query(name)
		if len(q.Deltas()) != p.deltas[name] || q.DeltaHash() != p.hashes[name] {
			ok = false
		}
	}
	return e.tally.check(ok, "live_ingest: %s: deltas differ from the verified reference", p.name)
}

func (w *liveIngest) measure(e *env, d time.Duration) *measurement {
	m := newMeasurement("step-lo", "step-hi")
	rates := map[string][]float64{}
	start := time.Now()
	forRounds(d, func(int) {
		var r round
		before := totalAlloc()
		complete := true
		for _, p := range w.phases {
			var t repTiming
			var mgr *live.Manager
			var err error
			timed(func() { t, mgr, err = w.ingest(p, nil) })
			if !w.checkRep(e, p, mgr, err) {
				complete = false
				continue
			}
			// One latency sample per repetition: its mean micro-batch time.
			// A micro-batch is a handful of goroutine hand-offs, and single
			// ones scatter too widely on a shared box for their median to
			// repeat from run to run.
			m.add("step-"+p.name, mean(t.steps))
			rates[p.name] = append(rates[p.name], float64(t.appends)/t.wall)
			m.ops += len(t.steps)
			r.inSec += t.wall
			r.rowsIn += float64(t.appends)
			r.rowsOut += float64(t.deltas)
		}
		m.allocBytes += totalAlloc() - before
		m.cut(m.kinds...)
		r.outSec = r.inSec
		if complete {
			m.rounds = append(m.rounds, r)
		}
	})
	m.seconds = time.Since(start).Seconds()
	for _, p := range w.phases {
		name := "ingest_" + p.name + "_rows_per_s"
		m.scoped[name] = median(rates[p.name])
		m.samples[name] = len(rates[p.name])
		m.series[name] = rates[p.name]
	}
	m.samples["query_ms_p50"] = len(m.lat["step-lo"]) + len(m.lat["step-hi"])
	return m
}

// traced repeats the repetitions with every Append, Poll, Flush and
// Finish timed from outside.
func (w *liveIngest) traced(e *env, d time.Duration, rec *recorder, m *measurement) *layerReport {
	rep := &layerReport{values: map[string]float64{}}
	type acc struct{ appendUS, pollUS, flushMS, share, wall []float64 }
	per := map[string]*acc{"lo": {}, "hi": {}}
	var rejected int64
	rec.timeOnly = true // a micro-batch lasts a few milliseconds
	forRounds(d, func(int) {
		for _, p := range w.phases {
			var t repTiming
			var mgr *live.Manager
			var err error
			timed(func() { t, mgr, err = w.ingest(p, rec) })
			if !w.checkRep(e, p, mgr, err) {
				continue
			}
			a := per[p.name]
			a.appendUS = append(a.appendUS, float64(t.appendNS)/1e3/float64(t.appends))
			a.pollUS = append(a.pollUS, float64(t.pollNS)/1e3/float64(t.polls))
			a.flushMS = append(a.flushMS, float64(t.flushNS)/1e6)
			a.share = append(a.share, float64(t.pollNS+t.flushNS)/1e9/t.wall)
			a.wall = append(a.wall, t.wall)
			rejected += t.rejected
		}
	})
	v := rep.values
	var overhead []float64
	for _, p := range w.phases {
		a := per[p.name]
		v["live.append_us_"+p.name] = median(a.appendUS)
		v["live.poll_us_"+p.name] = median(a.pollUS)
		v["live.flush_ms_"+p.name] = median(a.flushMS)
		v["live.step_share_"+p.name] = median(a.share)
		var deltas int
		var ws int64
		var bound float64
		for _, name := range liveQueries {
			deltas += p.deltas[name]
			if p.workspace[name] > ws {
				ws, bound = p.workspace[name], p.bound[name]
			}
		}
		v["live.deltas_"+p.name] = float64(deltas)
		v["live.workspace_max_"+p.name] = float64(ws)
		v["live.bound_"+p.name] = bound
		if rate := m.scoped["ingest_"+p.name+"_rows_per_s"]; rate > 0 && len(a.wall) > 0 {
			untraced := float64(len(p.arrivals)) / rate
			overhead = append(overhead, 100*(median(a.wall)-untraced)/untraced)
		}
		wall := median(a.wall) * 1e3
		appendMS := median(a.appendUS) * float64(len(p.arrivals)) / 1e3
		pollMS := median(a.share)*wall - median(a.flushMS)
		rep.budgets = append(rep.budgets, budget{
			Title:   fmt.Sprintf("live_ingest %s repetition (lambda %g, %d appends)", p.name, p.lambda, len(p.arrivals)),
			TotalMS: wall,
			Lines: []budgetLine{
				{Layer: "live.append", SelfMS: appendMS},
				{Layer: "live.poll", SelfMS: pollMS},
				{Layer: "live.flush+finish", SelfMS: median(a.flushMS)},
				{Layer: "bench (loop, clock reads)", SelfMS: wall - appendMS - pollMS - median(a.flushMS)},
			},
		})
	}
	for _, name := range liveQueries {
		if w.phases[0].modes[name] == live.ModeIncremental {
			v["live.mode."+name] = 1
		}
	}
	v["live.rejected_late"] = float64(rejected)
	v["bench.trace_overhead_pct"] = mean(overhead)
	return rep
}
