package engine

import (
	"errors"
	"fmt"

	"tdb/internal/algebra"
	"tdb/internal/baseline"
	"tdb/internal/catalog"
	"tdb/internal/core"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/partition"
	"tdb/internal/relation"
)

func (ex *executor) evalJoin(n *algebra.Join) (*result, error) {
	l, err := ex.eval(n.L)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(n.R)
	if err != nil {
		return nil, err
	}
	outSchema := relation.Concat(l.schema, r.schema, "", "")

	if !ex.opt.ForceNestedLoop && n.Kind != algebra.KindTheta {
		if !ex.opt.CostBased || ex.chooseStream(n, l, r) {
			res, cost, err := ex.streamJoin(n, l, r)
			if err != nil {
				return nil, err
			}
			cost.Label = n.Label()
			ex.stats.add(*cost)
			return &result{schema: outSchema, rows: res}, nil
		}
	}

	// Conventional path: the hash join for an equi-join, the nested loop
	// for anything else or under Options.ForceNoHash.
	lk, rk, residual := equiKeys(n.Pred, l.schema, r.schema)
	if len(lk) > 0 && !ex.opt.ForceNoHash {
		rows, cost, err := ex.hashJoin(l, r, lk, rk, residual)
		if err != nil {
			return nil, err
		}
		cost.Label = n.Label()
		ex.stats.add(*cost)
		return &result{schema: outSchema, rows: rows}, nil
	}
	pred, err := compilePairPred(n.Pred, l.schema, r.schema)
	if err != nil {
		return nil, err
	}
	rows, cost, err := ex.nestedLoopJoin(l, r, pred)
	if err != nil {
		return nil, err
	}
	cost.Label = n.Label()
	ex.stats.add(*cost)
	return &result{schema: outSchema, rows: rows}, nil
}

// columnar reports whether a stream join or semijoin node of kind runs the
// columnar batch path whatever its inputs hold: the plan shape and the
// options alone decide it, before the inputs are evaluated. It is the one
// place that decides: a semijoin key-scans its stored inputs only when it
// holds, and the stream operators take the batch path exactly then.
func (ex *executor) columnar(kind algebra.TemporalKind) bool {
	switch kind {
	case algebra.KindContain, algebra.KindContained, algebra.KindOverlap:
		return !ex.opt.ForceNestedLoop && !ex.opt.RowExec
	}
	return false
}

// streamInput evaluates one input of a stream semijoin node. When keyed
// (the node is columnar) and the input is a Scan of a stored
// relation, it runs as a key scan over the node's span, keeping the page
// images only if the node may emit the input's rows (keep); anything else
// evaluates as usual.
func (ex *executor) streamInput(e algebra.Expr, sr algebra.SpanRef, keyed, keep bool) (*result, error) {
	if s, ok := e.(*algebra.Scan); ok && keyed {
		if hf, ok := ex.db.stored[s.Relation]; ok {
			return ex.evalAs(e, func() (*result, error) { return ex.evalKeyScan(s, hf, sr, keep) })
		}
	}
	return ex.eval(e)
}

// chooseStream consults the Section 6 cost model over the materialized
// inputs: statistics are collected from the actual intermediate lifespans
// (cheap, one pass) and the stream plan is taken only when its estimated
// cost, including any sorting, beats the nested loop.
func (ex *executor) chooseStream(n *algebra.Join, l, r *result) bool {
	lspan, err := spanAccessor(n.LSpan, l.schema)
	if err != nil {
		return true // let the stream path surface the error
	}
	rspan, err := spanAccessor(n.RSpan, r.schema)
	if err != nil {
		return true
	}
	statsOf := func(rows []relation.Row, span core.Span[relation.Row]) *catalog.Stats {
		spans := make([]interval.Interval, len(rows))
		for i, row := range rows {
			spans[i] = span(row)
		}
		st := catalog.FromSpans(spans)
		id := func(iv interval.Interval) interval.Interval { return iv }
		st.SortedTS = relation.SortedSpans(spans, id, relation.Order{relation.TSAsc})
		st.SortedTE = relation.SortedSpans(spans, id, relation.Order{relation.TEAsc})
		return st
	}
	sx, sy := statsOf(l.rows, lspan), statsOf(r.rows, rspan)
	var est optimizer.JoinEstimate
	switch n.Kind {
	case algebra.KindOverlap:
		est = optimizer.EstimateOverlapJoin(sx, sy)
	case algebra.KindBefore:
		// The before-join's output is near-Cartesian either way; the
		// sorted variant always wins on inner-scan avoidance.
		return true
	default:
		est = optimizer.EstimateContainJoin(sx, sy)
	}
	return est.UseStream()
}

// streamJoin dispatches a recognized temporal join to the Section 4 stream
// algorithms, sorting each side by the required ordering of Table 1/2.
func (ex *executor) streamJoin(n *algebra.Join, l, r *result) ([]relation.Row, *NodeCost, error) {
	lspan, err := spanAccessor(n.LSpan, l.schema)
	if err != nil {
		return nil, nil, err
	}
	rspan, err := spanAccessor(n.RSpan, r.schema)
	if err != nil {
		return nil, nil, err
	}
	cost := &NodeCost{}
	opt := core.Options{Probe: &cost.Probe, VerifyOrder: ex.opt.VerifyOrder, Sampler: ex.cur.Sampler()}

	var lOrder, rOrder relation.Order
	switch n.Kind {
	case algebra.KindContain:
		cost.Algorithm = "stream contain-join [TS↑,TS↑]"
		lOrder, rOrder = relation.Order{relation.TSAsc}, relation.Order{relation.TSAsc}
	case algebra.KindContained:
		cost.Algorithm = "stream contain-join [TS↑,TS↑] (sides swapped)"
		lOrder, rOrder = relation.Order{relation.TSAsc}, relation.Order{relation.TSAsc}
	case algebra.KindOverlap:
		cost.Algorithm = "stream overlap-join [TS↑,TS↑]"
		lOrder, rOrder = relation.Order{relation.TSAsc}, relation.Order{relation.TSAsc}
	case algebra.KindBefore:
		cost.Algorithm = "before-join [TE↑; inner sorted TS↑]"
		lOrder, rOrder = relation.Order{relation.TEAsc}, relation.Order{relation.TSAsc}
	default:
		return nil, nil, fmt.Errorf("engine: unhandled join kind %v", n.Kind)
	}
	lo, err := ex.establishOrder(l, lspan, lOrder, cost)
	if err != nil {
		return nil, nil, err
	}
	ro, err := ex.establishOrder(r, rspan, rOrder, cost)
	if err != nil {
		return nil, nil, err
	}

	// The row reference never fans out; otherwise planParallel decides, and
	// it accepts only contain, contained and overlap joins.
	var shards []partition.Range
	if !ex.opt.RowExec {
		shards = ex.planParallel(n.Kind, false, lo.cols, ro.cols, cost)
	}

	// The serial stream join is the governed operator: its retained state
	// (the Table 1–2 spanning sets) is what statistics drift can blow past
	// the admission ceiling. A fan-out cancels on error instead; the
	// semijoin scans are buffers-only and cannot breach.
	if shards == nil && ex.opt.GovernWorkspace {
		if bound := ex.governBound(n.Kind, n.L, n.R, cost); bound > 0 {
			opt.Limit = int64(bound)
		}
	}

	// Columnar batch path (the default): one kernel step over the ordered
	// inputs' endpoint columns — the whole columns serially, or each time
	// shard's under a fan-out — then output rows materialized once from
	// the matched index pairs. The row path below remains the serial
	// reference implementation (Options.RowExec) and still serves the
	// before-join.
	if ex.columnar(n.Kind) {
		cost.Notes = append(cost.Notes, "columnar batch kernels")
		var rows []relation.Row
		var pairs pairChunks
		if shards != nil {
			pairs, err = ex.parallelJoinPairs(n.Kind, lo.cols, ro.cols, shards, cost)
			cost.Algorithm += fmt.Sprintf(" ×%d", len(shards))
		} else {
			pairs, err = columnarJoinPairs(n.Kind, lo.cols, ro.cols, opt)
		}
		if err != nil {
			if opt.Limit <= 0 || !errors.Is(err, core.ErrWorkspaceBreach) {
				return nil, nil, err
			}
			// Governed degradation, identically to the row path: the batch
			// kernel honors the same admission ceiling and breaches at the
			// same state append.
			rows = ex.governedJoinFallback(n.Kind, lo.spanned(), ro.spanned(), opt.Limit, cost)
		} else {
			rows = materializeJoin(lo, ro, pairs)
		}
		cost.OutRows = int64(len(rows))
		return rows, cost, nil
	}

	lw, rw := lo.spanned(), ro.spanned()
	var rows []relation.Row
	emitLR := func(a, b spanned) { rows = append(rows, relation.ConcatRows(a.row, b.row)) }
	emitRL := func(a, b spanned) { rows = append(rows, relation.ConcatRows(b.row, a.row)) }

	switch n.Kind {
	case algebra.KindContain:
		err = core.ContainJoinTSTS(wrappedStream(lw), wrappedStream(rw), spannedSpan, opt, emitLR)
	case algebra.KindContained:
		// Left during right ⇔ Contain-join(right, left).
		err = core.ContainJoinTSTS(wrappedStream(rw), wrappedStream(lw), spannedSpan, opt, emitRL)
	case algebra.KindOverlap:
		err = core.OverlapJoin(wrappedStream(lw), wrappedStream(rw), spannedSpan, opt, emitLR)
	case algebra.KindBefore:
		err = core.BeforeJoinSorted(wrappedStream(lw), rw, spannedSpan, opt, emitLR)
	}
	if err != nil {
		if opt.Limit <= 0 || !errors.Is(err, core.ErrWorkspaceBreach) {
			return nil, nil, err
		}
		// Governed degradation: the operator overran the predicted ceiling,
		// so its partial output is discarded and the node re-evaluated by
		// the baseline band scan, whose workspace cannot grow with the
		// (mispredicted) lifespan concurrency.
		rows = ex.governedJoinFallback(n.Kind, lw, rw, opt.Limit, cost)
	}
	cost.OutRows = int64(len(rows))
	return rows, cost, nil
}

// governBound derives the workspace admission ceiling of a serial stream
// join from the *catalog* statistics of its base-relation inputs — the
// optimizer's prediction, deliberately not remeasured from the materialized
// rows, so drift between catalog and data is what the governor detects.
// Returns 0 (ungoverned, with an explain note) for derived inputs, missing
// statistics, or operator kinds whose Tables 1–3 entry is unbounded.
func (ex *executor) governBound(kind algebra.TemporalKind, l, r algebra.Expr, cost *NodeCost) float64 {
	ln, rn := baseRelName(l), baseRelName(r)
	if ln == "" || rn == "" {
		cost.Notes = append(cost.Notes, "governor: derived input, no catalog bound; ungoverned")
		return 0
	}
	sx, sy := ex.db.Stats(ln), ex.db.Stats(rn)
	if sx == nil || sy == nil {
		cost.Notes = append(cost.Notes, "governor: missing catalog statistics; ungoverned")
		return 0
	}
	est := optimizer.EstimateStanding(kind, false, sx, sy)
	if !est.Bounded {
		cost.Notes = append(cost.Notes, "governor: "+est.Note+"; ungoverned")
		return 0
	}
	cost.Notes = append(cost.Notes, fmt.Sprintf("governor: workspace ceiling %.0f tuples (%s)", est.Bound, est.Note))
	return est.Bound
}

// baseRelName resolves the base relation beneath an optional Select, or ""
// when the input is derived and catalog statistics do not describe it.
func baseRelName(e algebra.Expr) string {
	switch n := e.(type) {
	case *algebra.Scan:
		return n.Relation
	case *algebra.Select:
		return baseRelName(n.Input)
	}
	return ""
}

// governedJoinFallback re-evaluates a breached join with the baseline
// sort-merge band scan over the already-materialized (and sorted) inputs,
// resetting the probe so the cost record reflects the algorithm that
// actually produced the output. The breach itself is preserved as a note
// and counted in tdb_governor_fallbacks_total.
func (ex *executor) governedJoinFallback(kind algebra.TemporalKind, lw, rw []spanned, limit int64, cost *NodeCost) []relation.Row {
	breached := cost.Probe.Workspace()
	cost.Probe = metrics.Probe{}
	var theta func(x, y interval.Interval) bool
	switch kind {
	case algebra.KindContain:
		theta = func(x, y interval.Interval) bool { return x.ContainsInterval(y) }
	case algebra.KindContained:
		theta = func(x, y interval.Interval) bool { return y.ContainsInterval(x) }
	default: // KindOverlap — before/θ are never governed (unbounded entry)
		theta = func(x, y interval.Interval) bool { return x.Intersects(y) }
	}
	var rows []relation.Row
	baseline.SortMergeJoin(lw, rw, spannedSpan, theta, &cost.Probe,
		func(a, b spanned) { rows = append(rows, relation.ConcatRows(a.row, b.row)) })
	cost.Algorithm += " → baseline sort-merge (governed)"
	cost.Notes = append(cost.Notes, fmt.Sprintf(
		"governor: workspace %d breached ceiling %d; degraded to baseline sort-merge", breached, limit))
	ex.opt.Registry.Counter("tdb_governor_fallbacks_total",
		"workspace-governor breaches that degraded a query").Inc()
	ex.opt.Events.Emit(obs.EventGovernor, cost.Label, map[string]string{
		"workspace": fmt.Sprintf("%d", breached),
		"ceiling":   fmt.Sprintf("%d", limit),
		"algorithm": cost.Algorithm,
	})
	return rows
}

// nestedLoopJoin polls the interrupt hook per pair block, not per outer
// row: a selective theta join can touch millions of pairs from a few
// hundred outer rows, and cancellation latency follows the pair count.
func (ex *executor) nestedLoopJoin(l, r *result, pred pairPred) ([]relation.Row, *NodeCost, error) {
	cost := &NodeCost{Algorithm: "nested-loop join"}
	var rows []relation.Row
	pairs := 0
	for _, lr := range l.rows {
		cost.Probe.IncReadLeft()
		for _, rr := range r.rows {
			if pairs%interruptEvery == 0 {
				if err := ex.checkInterrupt(); err != nil {
					return nil, nil, err
				}
			}
			pairs++
			cost.Probe.IncReadRight()
			cost.Probe.IncComparisons(1)
			if pred(lr, rr) {
				rows = append(rows, relation.ConcatRows(lr, rr))
			}
		}
		cost.Probe.IncPasses()
	}
	cost.Probe.IncEmitted(int64(len(rows)))
	cost.OutRows = int64(len(rows))
	return rows, cost, nil
}

// hashJoin keys both sides with relation.AppendKey into one reused buffer,
// so keys match exactly when the nested loop's equality does; the probe's
// table[string(key)] lookup does not allocate.
func (ex *executor) hashJoin(l, r *result, lk, rk []int, residual algebra.Predicate) ([]relation.Row, *NodeCost, error) {
	cost := &NodeCost{Algorithm: "hash equi-join"}
	res, err := compilePairPred(residual, l.schema, r.schema)
	if err != nil {
		return nil, nil, err
	}
	// Build on the smaller side; probe with the larger.
	buildLeft := len(l.rows) <= len(r.rows)
	build, probeSide := l, r
	bk, pk := lk, rk
	if !buildLeft {
		build, probeSide = r, l
		bk, pk = rk, lk
	}
	table := make(map[string][]relation.Row, len(build.rows))
	var key []byte
	for _, row := range build.rows {
		cost.Probe.IncReadLeft()
		cost.Probe.StateAdd(1)
		key = relation.AppendKey(key[:0], row, bk)
		table[string(key)] = append(table[string(key)], row)
	}
	var rows []relation.Row
	for i, row := range probeSide.rows {
		if i%interruptEvery == 0 {
			if err := ex.checkInterrupt(); err != nil {
				return nil, nil, err
			}
		}
		cost.Probe.IncReadRight()
		key = relation.AppendKey(key[:0], row, pk)
		for _, m := range table[string(key)] {
			cost.Probe.IncComparisons(1)
			lr, rr := m, row
			if !buildLeft {
				lr, rr = row, m
			}
			if res(lr, rr) {
				rows = append(rows, relation.ConcatRows(lr, rr))
			}
		}
	}
	cost.Probe.StateRemove(int64(len(build.rows)))
	cost.Probe.IncEmitted(int64(len(rows)))
	cost.OutRows = int64(len(rows))
	return rows, cost, nil
}

func (ex *executor) evalSemijoin(n *algebra.Semijoin) (*result, error) {
	// A detected self semijoin evaluates its (shared) input once and runs
	// the single-scan, single-state-tuple algorithm of Figure 7 — the
	// right subtree is never executed.
	if n.Self && !ex.opt.ForceNestedLoop {
		return ex.evalSelfSemijoin(n)
	}
	// A columnar semijoin emits only left rows: a key scan on its right
	// keeps no pages.
	keyed := ex.columnar(n.Kind)
	l, err := ex.streamInput(n.L, n.LSpan, keyed, true)
	if err != nil {
		return nil, err
	}
	r, err := ex.streamInput(n.R, n.RSpan, keyed, false)
	if err != nil {
		return nil, err
	}

	if !ex.opt.ForceNestedLoop && n.Kind != algebra.KindTheta {
		rows, cost, err := ex.streamSemijoin(n, l, r)
		if err != nil {
			return nil, err
		}
		cost.Label = n.Label()
		ex.stats.add(*cost)
		return &result{schema: l.schema, rows: rows}, nil
	}

	pred, err := compilePairPred(n.Pred, l.schema, r.schema)
	if err != nil {
		return nil, err
	}
	cost := &NodeCost{Label: n.Label(), Algorithm: "nested-loop semijoin"}
	var rows []relation.Row
	pairs := 0
	for _, lr := range l.rows {
		cost.Probe.IncReadLeft()
		for _, rr := range r.rows {
			if pairs%interruptEvery == 0 {
				if err := ex.checkInterrupt(); err != nil {
					return nil, err
				}
			}
			pairs++
			cost.Probe.IncReadRight()
			cost.Probe.IncComparisons(1)
			if pred(lr, rr) {
				rows = append(rows, lr)
				break
			}
		}
		cost.Probe.IncPasses()
	}
	cost.Probe.IncEmitted(int64(len(rows)))
	cost.OutRows = int64(len(rows))
	ex.stats.add(*cost)
	return &result{schema: l.schema, rows: rows}, nil
}

func (ex *executor) evalSelfSemijoin(n *algebra.Semijoin) (*result, error) {
	l, err := ex.eval(n.L)
	if err != nil {
		return nil, err
	}
	lspan, err := spanAccessor(n.LSpan, l.schema)
	if err != nil {
		return nil, err
	}
	cost := &NodeCost{Label: n.Label()}
	opt := core.Options{Probe: &cost.Probe, VerifyOrder: ex.opt.VerifyOrder, Sampler: ex.cur.Sampler()}

	var order relation.Order
	switch n.Kind {
	case algebra.KindContained:
		cost.Algorithm = "single-scan contained-semijoin(X,X) (Fig 7)"
		order = relation.Order{relation.TSAsc, relation.TEAsc}
	case algebra.KindContain:
		cost.Algorithm = "single-scan contain-semijoin(X,X) (TS↓)"
		order = relation.Order{relation.TSDesc, relation.TEDesc}
	default:
		return nil, fmt.Errorf("engine: self semijoin of kind %v", n.Kind)
	}
	lo, err := ex.establishOrder(l, lspan, order, cost)
	if err != nil {
		return nil, err
	}
	lw := lo.spanned()

	var rows []relation.Row
	emit := func(s spanned) { rows = append(rows, s.row) }
	switch n.Kind {
	case algebra.KindContained:
		err = core.ContainedSelfSemijoin(wrappedStream(lw), spannedSpan, opt, emit)
	case algebra.KindContain:
		err = core.ContainSelfSemijoin(wrappedStream(lw), spannedSpan, opt, emit)
	}
	if err != nil {
		return nil, err
	}
	cost.OutRows = int64(len(rows))
	ex.stats.add(*cost)
	return &result{schema: l.schema, rows: rows}, nil
}

func (ex *executor) streamSemijoin(n *algebra.Semijoin, l, r *result) ([]relation.Row, *NodeCost, error) {
	lspan, err := spanAccessor(n.LSpan, l.schema)
	if err != nil {
		return nil, nil, err
	}
	rspan, err := spanAccessor(n.RSpan, r.schema)
	if err != nil {
		return nil, nil, err
	}
	cost := &NodeCost{}
	opt := core.Options{Probe: &cost.Probe, VerifyOrder: ex.opt.VerifyOrder, Sampler: ex.cur.Sampler()}

	var lOrder, rOrder relation.Order
	switch n.Kind {
	case algebra.KindContained:
		cost.Algorithm = "stream contained-semijoin [TE↑,TS↑] (Fig 6)"
		lOrder, rOrder = relation.Order{relation.TEAsc}, relation.Order{relation.TSAsc}
	case algebra.KindContain:
		cost.Algorithm = "stream contain-semijoin [TS↑,TE↑] (Fig 6)"
		lOrder, rOrder = relation.Order{relation.TSAsc}, relation.Order{relation.TEAsc}
	case algebra.KindOverlap:
		cost.Algorithm = "stream overlap-semijoin [TS↑,TS↑]"
		lOrder, rOrder = relation.Order{relation.TSAsc}, relation.Order{relation.TSAsc}
	case algebra.KindBefore:
		cost.Algorithm = "before-semijoin (sort-independent)"
	default:
		return nil, nil, fmt.Errorf("engine: unhandled semijoin kind %v", n.Kind)
	}
	var lw, rw []spanned
	if lOrder == nil {
		lw, rw = wrap(l.rows, lspan), wrap(r.rows, rspan)
	} else {
		lo, err := ex.establishOrder(l, lspan, lOrder, cost)
		if err != nil {
			return nil, nil, err
		}
		ro, err := ex.establishOrder(r, rspan, rOrder, cost)
		if err != nil {
			return nil, nil, err
		}
		// Columnar batch path (the default) for the sorted semijoin scans:
		// one kernel step, serially or per time shard. The before-semijoin
		// (lOrder == nil) and Options.RowExec take the serial row reference
		// path below.
		if ex.columnar(n.Kind) {
			shards := ex.planParallel(n.Kind, true, lo.cols, ro.cols, cost)
			cost.Notes = append(cost.Notes, "columnar batch kernels")
			var idxs []int32
			if shards != nil {
				idxs, err = ex.parallelSemijoinIdx(n.Kind, lo.cols, ro.cols, shards, cost)
				cost.Algorithm += fmt.Sprintf(" ×%d", len(shards))
			} else {
				idxs, err = columnarSemijoinIdx(n.Kind, lo.cols, ro.cols, opt)
			}
			if err != nil {
				return nil, nil, err
			}
			cost.OutRows = int64(len(idxs))
			rows, err := ex.gather(lo, idxs)
			return rows, cost, err
		}
		lw, rw = lo.spanned(), ro.spanned()
	}

	var rows []relation.Row
	emit := func(s spanned) { rows = append(rows, s.row) }

	switch n.Kind {
	case algebra.KindContained:
		err = core.ContainedSemijoin(wrappedStream(lw), wrappedStream(rw), spannedSpan, opt, emit)
	case algebra.KindContain:
		err = core.ContainSemijoin(wrappedStream(lw), wrappedStream(rw), spannedSpan, opt, emit)
	case algebra.KindOverlap:
		err = core.OverlapSemijoin(wrappedStream(lw), wrappedStream(rw), spannedSpan, opt, emit)
	case algebra.KindBefore:
		err = core.BeforeSemijoin(wrappedStream(lw), wrappedStream(rw), spannedSpan, opt, emit)
	}
	if err != nil {
		return nil, nil, err
	}
	cost.OutRows = int64(len(rows))
	return rows, cost, nil
}
