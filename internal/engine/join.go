package engine

import (
	"errors"
	"fmt"
	"slices"

	"tdb/internal/algebra"
	"tdb/internal/baseline"
	"tdb/internal/core"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
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
	l.v, r.v = l.v.flat(), r.v.flat()
	out := &result{schema: relation.Concat(l.schema, r.schema, "", "")}

	var pairs pairChunks
	var cost *obs.Node
	switch lk, rk, residual := equiKeys(n.Pred, l.schema, r.schema); {
	case !ex.opt.ForceNestedLoop && n.Kind != algebra.KindTheta:
		pairs, cost, err = ex.streamJoin(n, l, r)
	case len(lk) > 0 && !ex.opt.ForceNoHash && n.Kind == algebra.KindTheta:
		// Conventional path: the hash join for an equi-join, the nested
		// loop for anything else (a recognized kind included) or under
		// Options.ForceNoHash.
		pairs, cost, err = ex.hashJoin(l, r, lk, rk, residual)
	default:
		var pred pairPred
		if pred, err = pairTest(n.Pred, n.Kind, n.LSpan, n.RSpan, l.schema, r.schema); err != nil {
			return nil, err
		}
		pairs, cost, err = ex.nestedLoopJoin(l, r, pred)
	}
	if err != nil {
		return nil, err
	}
	out.v = joinView(l.v, r.v, pairs)
	cost.Label = n.Label()
	cost.OutRows = int64(out.v.n)
	ex.stats.add(*cost)
	return out, nil
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
// (the node is columnar) and the input is a Scan of a stored relation, it
// runs as a key scan over the node's span, which the node sweeps in order
// o, keeping the page images only if the node may emit the input's rows
// (keep); anything else evaluates as usual.
func (ex *executor) streamInput(e algebra.Expr, sr algebra.SpanRef, o relation.Order, keyed, keep bool) (*result, error) {
	if s, ok := e.(*algebra.Scan); ok && keyed {
		if hf, ok := ex.db.owner(s.Relation).stored[s.Relation]; ok {
			return ex.evalAs(e, func() (*result, error) { return ex.evalKeyScan(s, hf, sr, o, keep) })
		}
	}
	return ex.eval(e)
}

// streamJoin dispatches a recognized temporal join to the Section 4 stream
// algorithms, sorting each side by the required ordering of Table 1/2, and
// returns its matches as positions of the two input views.
func (ex *executor) streamJoin(n *algebra.Join, l, r *result) (pairChunks, *obs.Node, error) {
	lspan, err := spanAccessor(n.LSpan, l.schema)
	if err != nil {
		return nil, nil, err
	}
	rspan, err := spanAccessor(n.RSpan, r.schema)
	if err != nil {
		return nil, nil, err
	}
	cost := &obs.Node{}
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
	lo, err := ex.establishOrder(l, lspan, lOrder, cost, true)
	if err != nil {
		return nil, nil, err
	}
	ro, err := ex.establishOrder(r, rspan, rOrder, cost, true)
	if err != nil {
		return nil, nil, err
	}

	// The stream join is the governed operator: its retained state (the
	// Table 1–2 spanning sets) is what statistics drift can blow past the
	// admission ceiling. The semijoin scans are buffers-only and cannot
	// breach.
	if ex.opt.GovernWorkspace {
		if bound := ex.governBound(n.Kind, n.L, n.R, cost); bound > 0 {
			opt.Limit = int64(bound)
		}
	}

	// Columnar batch path (the default): one kernel step over the ordered
	// inputs' endpoint columns, whose matched index pairs map back through
	// the sorts to input positions. The row path below remains the
	// reference implementation (Options.RowExec) and still serves the
	// before-join.
	if ex.columnar(n.Kind) {
		cost.Notes = append(cost.Notes, "columnar batch kernels")
		pairs, err := columnarJoinPairs(n.Kind, lo.cols, ro.cols, opt)
		if err != nil {
			if opt.Limit <= 0 || !errors.Is(err, core.ErrWorkspaceBreach) {
				return nil, nil, err
			}
			// Governed degradation, identically to the row path: the batch
			// kernel honors the same admission ceiling and breaches at the
			// same state append.
			return ex.governedJoinFallback(n.Kind, lo.spans(), ro.spans(), opt.Limit, cost), cost, nil
		}
		unsort(pairs, lo, ro)
		return pairs, cost, nil
	}

	lw, rw := lo.spans(), ro.spans()
	pl := newPairList(max(len(lw), len(rw)))
	emitLR := func(a, b spanned) { pl.add(a.pos, b.pos) }
	emitRL := func(a, b spanned) { pl.add(b.pos, a.pos) }

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
		return ex.governedJoinFallback(n.Kind, lw, rw, opt.Limit, cost), cost, nil
	}
	return pl.chunks(), cost, nil
}

// unsort maps a columnar join's matches from positions of the sorted
// inputs to positions of the input views, in place.
func unsort(pairs pairChunks, lo, ro ordered) {
	if lo.perm == nil && ro.perm == nil {
		return
	}
	for _, c := range pairs {
		//tdb:hotpath
		for i := range c {
			c[i] = pairIdx{l: lo.pos(c[i].l), r: ro.pos(c[i].r)}
		}
	}
}

// governBound derives the workspace admission ceiling of a stream join
// from the *catalog* statistics of its base-relation inputs — the
// optimizer's prediction, deliberately not remeasured from the
// materialized rows, so drift between catalog and data is what the
// governor detects.
// Returns 0 (ungoverned, with an explain note) for derived inputs, missing
// statistics, or operator kinds whose Tables 1–3 entry is unbounded.
func (ex *executor) governBound(kind algebra.TemporalKind, l, r algebra.Expr, cost *obs.Node) float64 {
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
// sort-merge band scan over the already-ordered inputs,
// resetting the probe so the cost record reflects the algorithm that
// actually produced the output. The breach itself is preserved as a note
// and counted in tdb_governor_fallbacks_total.
func (ex *executor) governedJoinFallback(kind algebra.TemporalKind, lw, rw []spanned, limit int64, cost *obs.Node) pairChunks {
	breached := cost.Probe.Workspace()
	cost.Probe = metrics.Probe{}
	pl := newPairList(max(len(lw), len(rw)))
	baseline.SortMergeJoin(lw, rw, spannedSpan, kindTest(kind), &cost.Probe,
		func(a, b spanned) { pl.add(a.pos, b.pos) })
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
	return pl.chunks()
}

// kindTest returns the lifespan test of a recognized temporal kind on the
// left lifespan x and the right y, or nil for KindTheta.
func kindTest(kind algebra.TemporalKind) func(x, y interval.Interval) bool {
	switch kind {
	case algebra.KindContain:
		return interval.Interval.ContainsInterval
	case algebra.KindContained:
		return interval.Interval.During
	case algebra.KindOverlap:
		return interval.Interval.Intersects
	case algebra.KindBefore:
		return interval.Interval.Before
	}
	return nil
}

// pairTest compiles what a nested loop tests of a pair: p's atoms and,
// for a recognized temporal kind, the kind's lifespan test on the node's
// spans — all its stream path tests, so both pair the same rows whatever
// atoms the node holds.
func pairTest(p algebra.Predicate, kind algebra.TemporalKind, lsr, rsr algebra.SpanRef, ls, rs *relation.Schema) (pairPred, error) {
	atoms, err := compilePairPred(p, ls, rs)
	test := kindTest(kind)
	if err != nil || test == nil {
		return atoms, err
	}
	lsp, err := spanAccessor(lsr, ls)
	if err != nil {
		return nil, err
	}
	rsp, err := spanAccessor(rsr, rs)
	if err != nil {
		return nil, err
	}
	return func(l, r relation.Row) bool { return test(lsp.of(l), rsp.of(r)) && atoms(l, r) }, nil
}

// nestedLoopJoin polls the interrupt hook per pair block, not per outer
// row: a selective theta join can touch millions of pairs from a few
// hundred outer rows, and cancellation latency follows the pair count.
func (ex *executor) nestedLoopJoin(l, r *result, pred pairPred) (pairChunks, *obs.Node, error) {
	cost := &obs.Node{Algorithm: "nested-loop join"}
	lrows, err := ex.rows(l)
	if err != nil {
		return nil, nil, err
	}
	rrows, err := ex.rows(r)
	if err != nil {
		return nil, nil, err
	}
	pl := newPairList(max(len(lrows), len(rrows)))
	pairs := 0
	for i, lr := range lrows {
		cost.Probe.IncReadLeft()
		for j, rr := range rrows {
			if pairs%interruptEvery == 0 {
				if err := ex.checkInterrupt(); err != nil {
					return nil, nil, err
				}
			}
			pairs++
			cost.Probe.IncReadRight()
			cost.Probe.IncComparisons(1)
			if pred(lr, rr) {
				pl.add(int32(i), int32(j))
			}
		}
		cost.Probe.IncPasses()
	}
	out := pl.chunks()
	cost.Probe.IncEmitted(int64(out.count()))
	return out, cost, nil
}

// hashJoin chains the build side's positions by key — heads gives a
// slot's first position and next the one after each — and walks the probe
// row's chain. Keys match exactly when the nested loop's equality does:
// both sides are keyed with relation.AppendKey into one reused buffer and
// a map assigns slots, or, when both read one column of the same base
// relation (a self equi-join), a key's slot is the column's code
// (codes.go) and neither side is keyed. The matches come out in probe
// order, each probe row's in build order. A node of a recognized temporal
// kind never comes here: its kind is tested by the nested loop.
func (ex *executor) hashJoin(l, r *result, lk, rk []int, residual algebra.Predicate) (pairChunks, *obs.Node, error) {
	cost := &obs.Node{Algorithm: "hash equi-join"}
	var res pairPred
	if len(residual.Atoms) > 0 {
		var err error
		if res, err = compilePairPred(residual, l.schema, r.schema); err != nil {
			return nil, nil, err
		}
	}
	// Build on the smaller side; probe with the larger.
	buildLeft := l.v.n <= r.v.n
	build, probeSide := l, r
	bk, pk := lk, rk
	if !buildLeft {
		build, probeSide = r, l
		bk, pk = rk, lk
	}
	bn := build.v.n
	brd, prd := build.v.reader(), probeSide.v.reader()
	var heads []int32
	// buildSlot and probeSlot give a build or probe position's slot; a
	// probe key no build row has gets -1.
	var buildSlot, probeSlot func(i int32) int32
	if codes := ex.selfJoinCodes(l, r, lk, rk); codes != nil {
		cost.Notes = append(cost.Notes, "hash on column codes")
		heads = slices.Repeat([]int32{-1}, codes.len())
		bp, pp := build.v.parts[0], probeSide.v.parts[0]
		buildSlot = func(i int32) int32 { return codes.codes[bp.pos(i)] }
		probeSlot = func(i int32) int32 { return codes.codes[pp.pos(i)] }
	} else {
		slots := make(map[string]int32, bn)
		heads = make([]int32, 0, bn)
		var key []byte
		buildSlot = func(i int32) int32 {
			key = relation.AppendKey(key[:0], brd.at(i), bk)
			s, ok := slots[string(key)]
			if !ok {
				s = int32(len(slots))
				slots[string(key)] = s
			}
			return s
		}
		probeSlot = func(i int32) int32 {
			key = relation.AppendKey(key[:0], prd.at(i), pk)
			if s, ok := slots[string(key)]; ok {
				return s
			}
			return -1
		}
	}
	next := make([]int32, bn)
	// Walking the build side backwards and pushing each position on its
	// chain leaves every chain in build order.
	for i := int32(bn) - 1; i >= 0; i-- {
		cost.Probe.IncReadLeft()
		cost.Probe.StateAdd(1)
		s := buildSlot(i)
		if int(s) == len(heads) {
			heads = append(heads, -1)
		}
		next[i], heads[s] = heads[s], i
	}
	pl := newPairList(max(l.v.n, r.v.n))
	for i := range int32(probeSide.v.n) {
		if i%interruptEvery == 0 {
			if err := ex.checkInterrupt(); err != nil {
				return nil, nil, err
			}
		}
		cost.Probe.IncReadRight()
		s := probeSlot(i)
		if s < 0 {
			continue
		}
		var row relation.Row
		if res != nil {
			row = prd.at(i)
		}
		for m := heads[s]; m >= 0; m = next[m] {
			cost.Probe.IncComparisons(1)
			li, ri := m, i
			if !buildLeft {
				li, ri = i, m
			}
			if res != nil {
				lr, rr := brd.at(m), row
				if !buildLeft {
					lr, rr = row, lr
				}
				if !res(lr, rr) {
					continue
				}
			}
			pl.add(li, ri)
		}
	}
	cost.Probe.StateRemove(int64(bn))
	out := pl.chunks()
	cost.Probe.IncEmitted(int64(out.count()))
	return out, cost, nil
}

// selfJoinCodes returns the codes that key a hash join whose one key
// column is the same column of the same base relation on both sides, or
// nil.
func (ex *executor) selfJoinCodes(l, r *result, lk, rk []int) *columnCodes {
	if len(lk) != 1 || lk[0] != rk[0] || l.reads == nil || l.reads != r.reads {
		return nil
	}
	return ex.db.index.codes(l.reads, lk[0])
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
	_, lOrder, rOrder := semijoinOrders(n.Kind)
	l, err := ex.streamInput(n.L, n.LSpan, lOrder, keyed, true)
	if err != nil {
		return nil, err
	}
	r, err := ex.streamInput(n.R, n.RSpan, rOrder, keyed, false)
	if err != nil {
		return nil, err
	}
	l.v = l.v.flat()

	var sel []int32
	var cost *obs.Node
	if !ex.opt.ForceNestedLoop && n.Kind != algebra.KindTheta {
		sel, cost, err = ex.streamSemijoin(n, l, r)
	} else {
		var pred pairPred
		if pred, err = pairTest(n.Pred, n.Kind, n.LSpan, n.RSpan, l.schema, r.schema); err != nil {
			return nil, err
		}
		sel, cost, err = ex.nestedLoopSemijoin(l, r, pred)
	}
	if err != nil {
		return nil, err
	}
	cost.Label = n.Label()
	cost.OutRows = int64(len(sel))
	out, err := ex.semijoinOut(l, sel)
	if err != nil {
		return nil, err
	}
	ex.stats.add(*cost)
	return out, nil
}

// nestedLoopSemijoin returns the positions of the left rows with a partner
// that satisfies pred, polling the interrupt hook per pair block as
// nestedLoopJoin does.
func (ex *executor) nestedLoopSemijoin(l, r *result, pred pairPred) ([]int32, *obs.Node, error) {
	lrows, err := ex.rows(l)
	if err != nil {
		return nil, nil, err
	}
	rrows, err := ex.rows(r)
	if err != nil {
		return nil, nil, err
	}
	cost := &obs.Node{Algorithm: "nested-loop semijoin"}
	sel := make([]int32, 0, len(lrows))
	pairs := 0
	for i, lr := range lrows {
		cost.Probe.IncReadLeft()
		for _, rr := range rrows {
			if pairs%interruptEvery == 0 {
				if err := ex.checkInterrupt(); err != nil {
					return nil, nil, err
				}
			}
			pairs++
			cost.Probe.IncReadRight()
			cost.Probe.IncComparisons(1)
			if pred(lr, rr) {
				sel = append(sel, int32(i))
				break
			}
		}
		cost.Probe.IncPasses()
	}
	cost.Probe.IncEmitted(int64(len(sel)))
	return sel, cost, nil
}

// semijoinOut is a semijoin's output: its left input's rows at the
// emitted positions, picked from the input view or, behind a key scan,
// decoded from their pages in one file-order pass, in emission order.
func (ex *executor) semijoinOut(l *result, sel []int32) (*result, error) {
	if l.keys == nil {
		return &result{schema: l.schema, v: l.v.pick(sel)}, nil
	}
	rows, err := l.keys.Rows.Decode(sel, ex.checkInterrupt)
	if err != nil {
		return nil, err
	}
	return &result{schema: l.schema, v: rowsView(rows, l.schema.Arity())}, nil
}

func (ex *executor) evalSelfSemijoin(n *algebra.Semijoin) (*result, error) {
	l, err := ex.eval(n.L)
	if err != nil {
		return nil, err
	}
	l.v = l.v.flat()
	lspan, err := spanAccessor(n.LSpan, l.schema)
	if err != nil {
		return nil, err
	}
	cost := &obs.Node{Label: n.Label()}
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
	lo, err := ex.establishOrder(l, lspan, order, cost, true)
	if err != nil {
		return nil, err
	}
	lw := lo.spans()

	sel := make([]int32, 0, len(lw))
	emit := func(s spanned) { sel = append(sel, s.pos) }
	switch n.Kind {
	case algebra.KindContained:
		err = core.ContainedSelfSemijoin(wrappedStream(lw), spannedSpan, opt, emit)
	case algebra.KindContain:
		err = core.ContainSelfSemijoin(wrappedStream(lw), spannedSpan, opt, emit)
	}
	if err != nil {
		return nil, err
	}
	cost.OutRows = int64(len(sel))
	ex.stats.add(*cost)
	return &result{schema: l.schema, v: l.v.pick(sel)}, nil
}

// streamSemijoin runs a recognized temporal semijoin and returns the
// emitted left input positions in emission order.
func (ex *executor) streamSemijoin(n *algebra.Semijoin, l, r *result) ([]int32, *obs.Node, error) {
	lspan, err := spanAccessor(n.LSpan, l.schema)
	if err != nil {
		return nil, nil, err
	}
	rspan, err := spanAccessor(n.RSpan, r.schema)
	if err != nil {
		return nil, nil, err
	}
	alg, lOrder, rOrder := semijoinOrders(n.Kind)
	if alg == "" {
		return nil, nil, fmt.Errorf("engine: unhandled semijoin kind %v", n.Kind)
	}
	cost := &obs.Node{Algorithm: alg}
	opt := core.Options{Probe: &cost.Probe, VerifyOrder: ex.opt.VerifyOrder, Sampler: ex.cur.Sampler()}

	var lw, rw []spanned
	if lOrder == nil {
		lw, rw = inputSpans(l.v, lspan.of), inputSpans(r.v, rspan.of)
	} else {
		columnar := ex.columnar(n.Kind)
		lo, err := ex.establishOrder(l, lspan, lOrder, cost, true)
		if err != nil {
			return nil, nil, err
		}
		// The columnar path never reads a right row, so its right input
		// gets ordered columns and no permutation.
		ro, err := ex.establishOrder(r, rspan, rOrder, cost, !columnar)
		if err != nil {
			return nil, nil, err
		}
		// Columnar batch path (the default) for the sorted semijoin scans:
		// one kernel step. The before-semijoin (lOrder == nil) and
		// Options.RowExec take the row reference path below.
		if columnar {
			cost.Notes = append(cost.Notes, "columnar batch kernels")
			sel, err := columnarSemijoinIdx(n.Kind, lo.cols, ro.cols, opt)
			if err != nil {
				return nil, nil, err
			}
			if lo.perm != nil {
				//tdb:hotpath
				for k, j := range sel {
					sel[k] = lo.perm[j]
				}
			}
			return sel, cost, nil
		}
		lw, rw = lo.spans(), ro.spans()
	}

	sel := make([]int32, 0, len(lw))
	emit := func(s spanned) { sel = append(sel, s.pos) }

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
	return sel, cost, nil
}

// tsAsc and teAsc are the one-key orders semijoinOrders hands out, shared
// and never written.
var (
	tsAsc = relation.Order{relation.TSAsc}
	teAsc = relation.Order{relation.TEAsc}
)

// semijoinOrders returns the algorithm of a stream semijoin of kind and
// the orders it sweeps its inputs in: none for the before-semijoin, and no
// algorithm for a kind without a stream semijoin.
func semijoinOrders(kind algebra.TemporalKind) (alg string, lOrder, rOrder relation.Order) {
	switch kind {
	case algebra.KindContained:
		return "stream contained-semijoin [TE↑,TS↑] (Fig 6)", teAsc, tsAsc
	case algebra.KindContain:
		return "stream contain-semijoin [TS↑,TE↑] (Fig 6)", tsAsc, teAsc
	case algebra.KindOverlap:
		return "stream overlap-semijoin [TS↑,TS↑]", tsAsc, tsAsc
	case algebra.KindBefore:
		return "before-semijoin (sort-independent)", nil, nil
	}
	return "", nil, nil
}

// inputSpans lists a view's lifespans with their positions, in view order.
func inputSpans(v view, span core.Span[relation.Row]) []spanned {
	rd := v.reader()
	out := make([]spanned, v.n)
	for i := range out {
		out[i] = spanned{pos: int32(i), span: span(rd.at(int32(i)))}
	}
	return out
}
