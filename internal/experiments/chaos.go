package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/fault"
	"tdb/internal/interval"
	"tdb/internal/live"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// ChaosPoint is one row of the E24 degradation sweep: a governed engine run
// at a drift level, a breaker-ladder rung, or a batch of seeded fault-
// injection runs.
type ChaosPoint struct {
	Scenario  string // engine-governor | live-breaker | fault-survival
	Param     string // drift=N, ladder=rung, p=F
	Runs      int    // executions behind this row
	OK        int    // runs that completed cleanly
	TypedErr  int    // runs that failed with a clean typed error
	Fallbacks int64  // tdb_governor_fallbacks_total after the row
	Mode      string // terminal execution mode
	Verified  bool   // output contract held (byte/multiset identity or typed error)
}

// ChaosResult is the E24 document: the sweep plus the run configuration.
type ChaosResult struct {
	N         int   // tuples per operand stream in the fault-survival batches
	FaultRuns int   // seeded runs per fault-probability point
	Seed      int64 // base seed
	Points    []ChaosPoint
}

// Chaos is experiment E24: graceful degradation under statistics drift and
// injected faults. Three scenarios share one table. (1) engine-governor: a
// serial temporal join over relations whose catalog statistics are
// deliberately stale-low runs with the workspace governor armed; past the
// drift threshold the measured workspace breaches the admission ceiling and
// the run degrades to the baseline sort-merge, producing the same rows.
// (2) live-breaker: a governed standing query is driven through the breaker
// ladder — one trip re-admits it under refreshed statistics, exhausted
// re-admissions degrade it to batch mode or, with degradation disallowed,
// decline it with the typed ErrBreakerOpen. (3) fault-survival: seeded
// probabilistic faults hit the parallel workers; every run must end in
// byte-identical output or a clean typed error — never a partial result.
func Chaos(n, runs int, seed int64) (*ChaosResult, *Table, error) {
	res := &ChaosResult{N: n, FaultRuns: runs, Seed: seed}

	for _, drift := range []int{0, 12, 40} {
		p, err := chaosGovernorPoint(drift)
		if err != nil {
			return nil, nil, fmt.Errorf("engine-governor drift=%d: %w", drift, err)
		}
		res.Points = append(res.Points, *p)
	}
	for _, rung := range []string{"readmit", "degrade", "decline"} {
		p, err := chaosBreakerPoint(rung)
		if err != nil {
			return nil, nil, fmt.Errorf("live-breaker %s: %w", rung, err)
		}
		res.Points = append(res.Points, *p)
	}
	for _, prob := range []float64{0.2, 0.4} {
		p, err := chaosSurvivalPoint(n, runs, prob, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("fault-survival p=%.2f: %w", prob, err)
		}
		res.Points = append(res.Points, *p)
	}

	tab := &Table{
		Title: fmt.Sprintf("E24 — degradation sweep: workspace governor, breaker ladder, fault survival (%d×2 tuples, %d runs/point)",
			n, runs),
		Header: []string{"scenario", "param", "runs", "ok", "typed-err", "fallbacks", "mode", "verified"},
	}
	for _, p := range res.Points {
		tab.Add(p.Scenario, p.Param, p.Runs, p.OK, p.TypedErr, p.Fallbacks, p.Mode, p.Verified)
	}
	tab.Note("engine-governor: governed output is multiset-identical to the ungoverned stream path")
	tab.Note("live-breaker: the ladder is trip→re-admit (in place), exhausted→batch degrade or typed decline")
	tab.Note("fault-survival: every run is byte-identical to the serial reference or a clean typed error")
	return res, tab, nil
}

// chaosSchema is the three-column temporal schema the governed scenarios
// share: a surrogate plus the lifespan.
func chaosSchema() *relation.Schema {
	return relation.MustSchema([]relation.Column{
		{Name: "Id", Kind: value.KindInt},
		{Name: "ValidFrom", Kind: value.KindTime},
		{Name: "ValidTo", Kind: value.KindTime},
	}, 1, 2)
}

func chaosRow(id int, from, to interval.Time) relation.Row {
	return relation.Row{value.Int(int64(id)), value.TimeVal(from), value.TimeVal(to)}
}

func chaosSpan(v string) algebra.SpanRef {
	return algebra.SpanRef{
		TS: algebra.ColRef{Var: v, Col: "ValidFrom"},
		TE: algebra.ColRef{Var: v, Col: "ValidTo"},
	}
}

// chaosGovernorDB registers A and B with a handful of disjoint lifespans —
// so the analyzed concurrency is 1 — then grows them by direct row
// insertion with `drift` tuples that all cover one common window. The
// catalog never sees the growth: this is the statistics-drift scenario the
// workspace governor exists to catch.
func chaosGovernorDB(drift int) (*engine.DB, error) {
	db := engine.NewDB()
	for ri, name := range []string{"A", "B"} {
		rel := relation.New(name, chaosSchema())
		for i := 0; i < 4; i++ {
			s := interval.Time(i * 10)
			rel.MustInsert(chaosRow(ri*1000+i, s, s+3))
		}
		if err := db.Register(rel); err != nil {
			return nil, err
		}
		for i := 0; i < drift; i++ {
			rel.Rows = append(rel.Rows,
				chaosRow(ri*1000+100+i, 100+interval.Time(i%7), 200+interval.Time(i%5)))
		}
	}
	return db, nil
}

func chaosGovernorJoin() algebra.Expr {
	return &algebra.Join{
		L: &algebra.Scan{Relation: "A", As: "a"}, R: &algebra.Scan{Relation: "B", As: "b"},
		Kind: algebra.KindOverlap, LSpan: chaosSpan("a"), RSpan: chaosSpan("b"),
	}
}

// chaosGovernorPoint runs one drift level governed and ungoverned and
// checks the degradation contract: identical multiset either way, fallback
// fired exactly when the drift breaches the stale ceiling.
func chaosGovernorPoint(drift int) (*ChaosPoint, error) {
	db, err := chaosGovernorDB(drift)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	res, st, err := engine.Run(db, chaosGovernorJoin(), engine.Options{GovernWorkspace: true, Registry: reg})
	if err != nil {
		return nil, fmt.Errorf("governed run: %w", err)
	}
	plain, _, err := engine.Run(db, chaosGovernorJoin(), engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("ungoverned run: %w", err)
	}
	if err := sameMultiset(res.Rows, plain.Rows); err != nil {
		return nil, fmt.Errorf("governed output diverges from the stream path: %w", err)
	}
	mode := "stream"
	for _, node := range st.Nodes {
		if strings.Contains(node.Algorithm, "baseline sort-merge (governed)") {
			mode = "governed-baseline"
		}
	}
	fallbacks := reg.Counter("tdb_governor_fallbacks_total", "").Value()
	if drift == 0 && fallbacks != 0 {
		return nil, fmt.Errorf("undrifted run fell back %d times", fallbacks)
	}
	if drift >= 40 && fallbacks != 1 {
		return nil, fmt.Errorf("drifted run recorded %d fallbacks, want 1", fallbacks)
	}
	return &ChaosPoint{
		Scenario: "engine-governor", Param: fmt.Sprintf("drift=%d", drift),
		Runs: 1, OK: 1, Fallbacks: fallbacks, Mode: mode, Verified: true,
	}, nil
}

// chaosBreakerManager is the breaker fixture: X and Y registered while
// empty, so the catalog keeps stale-zero statistics until a trip refreshes
// them.
func chaosBreakerManager(opts live.RegisterOptions) (*live.Manager, *live.StandingQuery, *obs.Registry, error) {
	db := engine.NewDB()
	for _, name := range []string{"X", "Y"} {
		if err := db.Register(relation.New(name, chaosSchema())); err != nil {
			return nil, nil, nil, err
		}
	}
	reg := obs.NewRegistry()
	mgr := live.NewManager(db, reg, engine.Options{})
	for _, name := range []string{"X", "Y"} {
		if _, err := mgr.Live(name, 0); err != nil {
			mgr.Close()
			return nil, nil, nil, err
		}
	}
	tree := &algebra.Join{
		L: &algebra.Scan{Relation: "X", As: "x"}, R: &algebra.Scan{Relation: "Y", As: "y"},
		Kind: algebra.KindOverlap, LSpan: chaosSpan("x"), RSpan: chaosSpan("y"),
	}
	q, err := mgr.Register("gov", tree, opts)
	if err != nil {
		mgr.Close()
		return nil, nil, nil, err
	}
	return mgr, q, reg, nil
}

// chaosDriftRound ingests n rows per relation, ValidFrom strictly
// increasing, all ending at 1000 — every lifespan overlaps every other, so
// the true concurrency is the full row count while the catalog lags.
func chaosDriftRound(mgr *live.Manager, next *int, n int) error {
	for i := 0; i < n; i++ {
		ts := interval.Time(*next)
		if err := mgr.Append("X", chaosRow(*next, ts, 1000)); err != nil {
			return err
		}
		if err := mgr.Append("Y", chaosRow(10000+*next, ts, 1000)); err != nil {
			return err
		}
		*next++
	}
	return nil
}

// chaosBreakerPoint drives one rung of the ladder: a single trip re-admits,
// exhausted trips degrade to batch when allowed, decline otherwise.
func chaosBreakerPoint(rung string) (*ChaosPoint, error) {
	opts := live.RegisterOptions{Govern: true}
	if rung == "degrade" {
		opts.AllowDegrade = true
	}
	mgr, q, reg, err := chaosBreakerManager(opts)
	if err != nil {
		return nil, err
	}
	defer mgr.Close()

	rounds := []int{6}
	if rung != "readmit" {
		rounds = []int{6, 12, 30} // exhaust the re-admission budget
	}
	next := 0
	for _, n := range rounds {
		if err := chaosDriftRound(mgr, &next, n); err != nil {
			return nil, err
		}
		if _, err := q.Poll(); err != nil {
			if q.Broken() != nil {
				break // terminal decline surfaced mid-escalation
			}
			return nil, fmt.Errorf("poll: %w", err)
		}
	}

	pt := &ChaosPoint{
		Scenario: "live-breaker", Param: "ladder=" + rung,
		Runs: 1, Fallbacks: reg.Counter("tdb_governor_fallbacks_total", "").Value(),
	}
	switch rung {
	case "readmit":
		if q.Trips() != 1 || q.Mode() != live.ModeIncremental {
			return nil, fmt.Errorf("trips=%d mode=%v, want one trip and incremental re-admission", q.Trips(), q.Mode())
		}
		if _, err := q.Finish(); err != nil {
			return nil, fmt.Errorf("finish: %w", err)
		}
		if _, _, err := q.Verify(); err != nil {
			return nil, fmt.Errorf("verify after re-admission: %w", err)
		}
		pt.OK, pt.Mode, pt.Verified = 1, "incremental", true
	case "degrade":
		if q.Mode() != live.ModeBatch {
			return nil, fmt.Errorf("mode %v after %d trips, want batch", q.Mode(), q.Trips())
		}
		if _, _, err := q.Verify(); err != nil {
			return nil, fmt.Errorf("degraded verify: %w", err)
		}
		pt.OK, pt.Mode, pt.Verified = 1, "batch", true
	case "decline":
		if q.Broken() == nil {
			return nil, fmt.Errorf("breaker never opened (trips %d, mode %v)", q.Trips(), q.Mode())
		}
		if _, err := q.Poll(); !errors.Is(err, live.ErrBreakerOpen) {
			return nil, fmt.Errorf("poll error %v, want the typed ErrBreakerOpen", err)
		}
		// A declined query must not fail ingestion.
		if err := mgr.Append("X", chaosRow(99999, 999, 1001)); err != nil {
			return nil, fmt.Errorf("append after decline: %w", err)
		}
		pt.TypedErr, pt.Mode, pt.Verified = 1, "declined", true
	}
	return pt, nil
}

// chaosSurvivalPoint runs `runs` seeded executions of a parallel overlap
// join with probabilistic worker faults armed. Each run must either match
// the fault-free serial reference byte for byte or fail with a clean typed
// error; anything else fails the experiment.
func chaosSurvivalPoint(n, runs int, prob float64, seed int64) (*ChaosPoint, error) {
	defer fault.Reset()
	db := engine.NewDB()
	for _, src := range []struct {
		rel string
		cfg workload.Config
	}{
		{"X", workload.Config{N: n, Lambda: 1.0, MeanDur: 25, LongFrac: 0.1, Seed: seed}},
		{"Y", workload.Config{N: n, Lambda: 1.0, MeanDur: 4, Seed: seed + 1}},
	} {
		if err := db.Register(relation.FromTuples(src.rel, workload.Tuples(src.cfg, src.rel))); err != nil {
			return nil, err
		}
	}
	tree := &algebra.Join{
		L: &algebra.Scan{Relation: "X", As: "x"}, R: &algebra.Scan{Relation: "Y", As: "y"},
		Kind: algebra.KindOverlap, LSpan: chaosSpan("x"), RSpan: chaosSpan("y"),
	}
	serial, _, err := engine.Run(db, tree, engine.Options{Parallelism: 1})
	if err != nil {
		return nil, fmt.Errorf("fault-free reference: %w", err)
	}

	par := engine.Options{Parallelism: 4, VerifyOrder: true}
	rng := rand.New(rand.NewSource(seed))
	pt := &ChaosPoint{
		Scenario: "fault-survival", Param: fmt.Sprintf("p=%.2f", prob),
		Runs: runs, Mode: "parallel×4", Verified: true,
	}
	for r := 0; r < runs; r++ {
		fault.Reset()
		specs := []string{
			fmt.Sprintf("engine/parallel-worker=error:p=%g:seed=%d", prob, rng.Int63()),
			fmt.Sprintf("engine/parallel-worker=panic:p=%g:seed=%d", prob/2, rng.Int63()),
		}
		for _, s := range specs {
			if err := fault.Arm(s); err != nil {
				return nil, err
			}
		}
		res, _, err := engine.Run(db, tree, par)
		fault.Reset()
		if err != nil {
			if !errors.Is(err, fault.ErrInjected) && !errors.Is(err, engine.ErrWorkerPanic) {
				return nil, fmt.Errorf("run %d: untyped chaos error: %w", r, err)
			}
			pt.TypedErr++
			continue
		}
		if len(res.Rows) != len(serial.Rows) {
			return nil, fmt.Errorf("run %d: %d rows, serial reference has %d", r, len(res.Rows), len(serial.Rows))
		}
		for i := range serial.Rows {
			if !res.Rows[i].Equal(serial.Rows[i]) {
				return nil, fmt.Errorf("run %d: row %d diverges from the serial reference", r, i)
			}
		}
		pt.OK++
	}
	if prob >= 0.4 && pt.TypedErr == 0 {
		return nil, fmt.Errorf("no schedule fired at p=%.2f; the sweep is not exercising the fault paths", prob)
	}
	return pt, nil
}

// sameMultiset reports whether two row sets are identical as multisets of
// row keys, order disregarded.
func sameMultiset(a, b []relation.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = a[i].Key()
		kb[i] = b[i].Key()
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("multisets diverge at sorted position %d", i)
		}
	}
	return nil
}
