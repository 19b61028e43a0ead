package engine

// Time-range partitioned parallel execution. An eligible stream join or
// semijoin node partitions its sorted, materialized inputs into k time
// shards (equi-depth ValidFrom cuts from catalog statistics), runs the
// unchanged single-pass core algorithm per shard on worker goroutines,
// and recombines through the order-preserving k-way merge of
// internal/stream. Boundary-spanning tuples are replicated into every
// shard they intersect; exactness is restored by the owner rule (each
// join pair is kept only by the shard owning its canonical sweep point)
// or by position tags with adjacent dedup (semijoins). The output is
// byte-identical to serial execution: the merge is deterministic, worker
// results live in per-shard slots, and no map or scheduling order ever
// reaches the output. See DESIGN.md "Parallel execution" for the
// per-operator ownership rules and the determinism argument.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"tdb/internal/algebra"
	"tdb/internal/catalog"
	"tdb/internal/core"
	"tdb/internal/fault"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/obs"
	"tdb/internal/obs/prof"
	"tdb/internal/optimizer"
	"tdb/internal/partition"
	"tdb/internal/relation"
	"tdb/internal/storage"
	"tdb/internal/stream"
)

func init() {
	fault.Declare("engine/parallel-worker", "shard worker entry; panic mode exercises recovery")
}

// ErrWorkerPanic wraps a panic recovered inside a shard worker, turning
// it into an ordinary first-error cancellation instead of a process
// crash with sibling goroutines left running.
var ErrWorkerPanic = errors.New("engine: panic in parallel worker")

// DefaultParallelMinRows is the combined-input floor below which join and
// semijoin nodes always run serially: partitioning, worker setup and the
// recombination merge dominate at small sizes.
const DefaultParallelMinRows = 4096

// parallelScanMinPages gates the parallel stored scan; below it a single
// scan is already cheap.
const parallelScanMinPages = 8

// workers resolves Options.Parallelism: 0 means one worker per available
// processor.
func (ex *executor) workers() int {
	k := ex.opt.Parallelism
	if k == 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k < 1 {
		k = 1
	}
	return k
}

func (ex *executor) parallelMinRows() int {
	if ex.opt.ParallelMinRows > 0 {
		return ex.opt.ParallelMinRows
	}
	return DefaultParallelMinRows
}

// parallelPlan is a node's accepted fan-out decision.
type parallelPlan struct {
	ranges []partition.Range
	est    optimizer.ParallelEstimate
}

// appendSpans appends the columns' lifespans to spans.
func appendSpans(spans []interval.Interval, c core.Cols) []interval.Interval {
	for i := range c.TS {
		spans = append(spans, c.Span(i))
	}
	return spans
}

// planParallel decides whether to fan a stream join (semi=false) or
// semijoin (semi=true) node out across time shards. The correctness gates
// — operator kind, read policy, distinct cut points — always apply;
// Options.ForceParallel bypasses only the size and cost-model gates. A
// nil return means serial. Once a decision is genuinely considered, the
// evidence is recorded in the node's notes for the plan explain.
func (ex *executor) planParallel(kind algebra.TemporalKind, semi bool, lc, rc core.Cols, cost *NodeCost) *parallelPlan {
	k := ex.workers()
	if k < 2 {
		return nil
	}
	switch kind {
	case algebra.KindContain, algebra.KindContained, algebra.KindOverlap:
	default:
		// Before pairs tuples across arbitrary time distance: no range
		// partitioning keeps its state local to a shard.
		return nil
	}
	if n := lc.Len() + rc.Len(); !ex.opt.ForceParallel && n < ex.parallelMinRows() {
		return nil
	}
	if !semi && ex.opt.Policy != core.ReadSweep {
		// The λ policy picks the next read from the observed state of
		// both streams — a global interleaving per-shard runs cannot
		// reproduce, so the emission order would diverge from serial.
		// (The Figure 6 semijoin scans never consult the policy.)
		cost.Notes = append(cost.Notes, "parallel: declined (λ read policy orders reads globally)")
		return nil
	}
	// One span list, left then right: each side's statistics come from its
	// half, the cut points from the whole.
	all := appendSpans(appendSpans(make([]interval.Interval, 0, lc.Len()+rc.Len()), lc), rc)
	sx, sy := catalog.FromSpans(all[:lc.Len()]), catalog.FromSpans(all[lc.Len():])
	ranges := partition.Ranges(catalog.FromSpans(all).EquiDepthTSCuts(k))
	if len(ranges) < 2 {
		cost.Notes = append(cost.Notes, "parallel: declined (no distinct TS cut points)")
		return nil
	}
	var base optimizer.JoinEstimate
	switch {
	case semi:
		base = optimizer.EstimateSemijoin(sx, sy, true, true)
	case kind == algebra.KindOverlap:
		base = optimizer.EstimateOverlapJoin(sx, sy)
	case kind == algebra.KindContained:
		// Contained runs as Contain-join with the sides swapped, so the
		// state-bearing X of the algorithm is the right input.
		base = optimizer.EstimateContainJoin(sy, sx)
	default:
		base = optimizer.EstimateContainJoin(sx, sy)
	}
	est := optimizer.EstimateParallel(base, sx, sy, len(ranges))
	if !ex.opt.ForceParallel && !est.Use() {
		cost.Notes = append(cost.Notes, "parallel: declined ("+est.String()+")")
		return nil
	}
	cost.Notes = append(cost.Notes, "parallel "+est.String())
	return &parallelPlan{ranges: ranges, est: est}
}

// runWorkers fans k shard workers out under the current node span: one
// child span and probe per worker, results written to per-shard slots (no
// channels anywhere, so no send can ever block a worker), the
// tdb_parallel_workers gauge held high for the duration, and worker spans
// finished in shard order so traces are deterministic.
//
// Failure semantics: the first worker to fail cancels the shared context,
// so sibling shards unwind at their next input poll (their streams are
// Cancelable-wrapped); a panic inside a worker is recovered into
// ErrWorkerPanic and treated the same way. wg.Wait guarantees every
// goroutine has exited before runWorkers returns — no leaks on any path.
// The returned error is the lowest-indexed *genuine* failure: shards that
// merely observed the cancellation never mask the root cause.
func (ex *executor) runWorkers(labels []string, cost *NodeCost, run func(ctx context.Context, i int, o core.Options) (int64, error)) error {
	k := len(labels)
	tr := ex.opt.Tracer
	spans := make([]*obs.Span, k)
	for i := range spans {
		spans[i] = tr.Begin(ex.cur, labels[i])
	}
	var gauge *obs.Gauge
	if reg := ex.opt.Registry; reg != nil {
		gauge = reg.Gauge("tdb_parallel_workers", "shard workers currently running parallel operators")
		reg.Counter("tdb_parallel_nodes_total", "plan nodes executed with time-range parallelism").Inc()
	}
	gauge.Add(int64(k))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probes := make([]metrics.Probe, k)
	outRows := make([]int64, k)
	errs := make([]error, k)
	profQuery := "q0"
	if ex.cur != nil {
		profQuery = fmt.Sprintf("q%d", ex.cur.QueryID)
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("%s: %w: %v", labels[i], ErrWorkerPanic, r)
				}
				if errs[i] != nil {
					cancel()
				}
			}()
			if err := fault.Check("engine/parallel-worker"); err != nil {
				errs[i] = fmt.Errorf("%s: %w", labels[i], err)
				return
			}
			o := core.Options{Probe: &probes[i], Policy: ex.opt.Policy,
				VerifyOrder: ex.opt.VerifyOrder, Sampler: spans[i].Sampler()}
			if ex.opt.Profile {
				// Label the worker goroutine so profiles attribute shard
				// CPU/heap samples to the node; alloc-delta accounting
				// stays at the node span (worker windows overlap).
				prof.Do(profQuery, labels[i], "shard-worker", func() {
					outRows[i], errs[i] = run(ctx, i, o)
				})
			} else {
				outRows[i], errs[i] = run(ctx, i, o)
			}
		}(i)
	}
	wg.Wait()
	gauge.Add(-int64(k))
	for i, sp := range spans {
		if errs[i] != nil {
			sp.Fail(tr, errs[i])
			continue
		}
		sp.Finish(tr, probes[i], obs.NodeStats{Algorithm: "shard worker", OutRows: outRows[i]})
	}
	for i := range probes {
		cost.Probe.Merge(&probes[i])
	}
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

func shardLabels(prefix string, rs []partition.Range) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("%s %d/%d %s", prefix, i+1, len(rs), r)
	}
	return out
}

// ownedRow is a join output row tagged with its canonical sweep point —
// the chronon that assigns the pair to exactly one owning shard and keys
// the recombination merge.
type ownedRow struct {
	key interval.Time
	row relation.Row
}

func ownedCmp(a, b ownedRow) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

// parallelJoin executes an accepted join fan-out. Each shard runs the
// serial algorithm on its replicated inputs and keeps only the pairs
// whose sweep point its range owns; because shard key ranges ascend
// disjointly and per-shard emission keys are non-decreasing under the
// sweep policy, the stable k-way merge reproduces the serial output
// sequence exactly.
func (ex *executor) parallelJoin(kind algebra.TemporalKind, lw, rw []spanned, plan *parallelPlan, cost *NodeCost) ([]relation.Row, error) {
	k := len(plan.ranges)
	shL := partition.Split(lw, spannedSpan, plan.ranges)
	shR := partition.Split(rw, spannedSpan, plan.ranges)
	noteMeasuredReplication(cost, shL, shR, len(lw)+len(rw))
	outs := make([][]ownedRow, k)
	err := ex.runWorkers(shardLabels("join shard", plan.ranges), cost, func(ctx context.Context, i int, o core.Options) (int64, error) {
		var err error
		outs[i], err = runJoinShard(ctx, kind, shL[i], shR[i], plan.ranges[i], o)
		return int64(len(outs[i])), err
	})
	if err != nil {
		return nil, err
	}
	parts := make([]stream.Stream[ownedRow], k)
	for i := range outs {
		parts[i] = stream.FromSlice(outs[i])
	}
	merged, err := stream.Collect(stream.MergeK(ownedCmp, parts...))
	if err != nil {
		return nil, err
	}
	rows := make([]relation.Row, len(merged))
	//tdb:hotpath
	for i, m := range merged {
		rows[i] = m.row
	}
	return rows, nil
}

// runJoinShard runs the serial stream join on one shard, keeping only the
// pairs the shard owns. The canonical sweep point of a contain pair is
// the containee's ValidFrom (the read event that emits it under the sweep
// policy); for an overlap pair it is the later of the two ValidFroms.
// Every pair's members both span its sweep point, so the owning shard is
// guaranteed to hold both — no pair is lost, and each is kept exactly
// once.
func runJoinShard(ctx context.Context, kind algebra.TemporalKind, xs, ys []spanned, rng partition.Range, o core.Options) ([]ownedRow, error) {
	px := stream.Cancelable(ctx, wrappedStream(xs))
	py := stream.Cancelable(ctx, wrappedStream(ys))
	out := make([]ownedRow, 0, len(xs))
	keep := func(key interval.Time, row relation.Row) {
		if rng.OwnsPoint(key) {
			out = append(out, ownedRow{key: key, row: row})
		}
	}
	var err error
	switch kind {
	case algebra.KindContain:
		err = core.ContainJoinTSTS(px, py, spannedSpan, o, func(a, b spanned) {
			keep(b.span.Start, relation.ConcatRows(a.row, b.row))
		})
	case algebra.KindContained:
		// Left during right ⇔ Contain-join(right, left); the containee
		// (the emitted left row) still owns the pair.
		err = core.ContainJoinTSTS(py, px, spannedSpan, o, func(a, b spanned) {
			keep(b.span.Start, relation.ConcatRows(b.row, a.row))
		})
	case algebra.KindOverlap:
		err = core.OverlapJoin(px, py, spannedSpan, o, func(a, b spanned) {
			key := a.span.Start
			if interval.CmpStart(a.span, b.span) < 0 {
				key = b.span.Start
			}
			keep(key, relation.ConcatRows(a.row, b.row))
		})
	default:
		err = fmt.Errorf("engine: parallel join of kind %v", kind)
	}
	return out, err
}

// parallelSemijoin executes an accepted semijoin fan-out. The Figure 6
// scans preserve left-input order and never consult the read policy, so
// each shard emits a position-tagged subsequence of its left shard; the
// position-ordered merge with adjacent dedup yields the qualifying left
// rows in global input order — exactly the serial output.
func (ex *executor) parallelSemijoin(kind algebra.TemporalKind, lw, rw []spanned, plan *parallelPlan, cost *NodeCost) ([]relation.Row, error) {
	k := len(plan.ranges)
	shL := partition.SplitTagged(lw, spannedSpan, plan.ranges)
	shR := partition.SplitTagged(rw, spannedSpan, plan.ranges)
	noteMeasuredReplication(cost, shL, shR, len(lw)+len(rw))
	outs := make([][]partition.Tagged[spanned], k)
	err := ex.runWorkers(shardLabels("semijoin shard", plan.ranges), cost, func(ctx context.Context, i int, o core.Options) (int64, error) {
		var err error
		outs[i], err = runSemijoinShard(ctx, kind, shL[i], shR[i], o)
		return int64(len(outs[i])), err
	})
	if err != nil {
		return nil, err
	}
	parts := make([]stream.Stream[partition.Tagged[spanned]], k)
	for i := range outs {
		parts[i] = stream.FromSlice(outs[i])
	}
	posCmp := func(a, b partition.Tagged[spanned]) int { return a.Pos - b.Pos }
	samePos := func(a, b partition.Tagged[spanned]) bool { return a.Pos == b.Pos }
	merged, err := stream.Collect(stream.Dedup(stream.MergeK(posCmp, parts...), samePos))
	if err != nil {
		return nil, err
	}
	rows := make([]relation.Row, len(merged))
	//tdb:hotpath
	for i, m := range merged {
		rows[i] = m.Elem.row
	}
	return rows, nil
}

// runSemijoinShard runs the serial semijoin scan on one shard. A
// qualifying left row and any witness share at least one chronon, so the
// shard owning that chronon holds both and emits the row; the per-shard
// result is a subsequence of the tagged left shard, hence sorted by
// position.
func runSemijoinShard(ctx context.Context, kind algebra.TemporalKind, xs, ys []partition.Tagged[spanned], o core.Options) ([]partition.Tagged[spanned], error) {
	span := func(t partition.Tagged[spanned]) interval.Interval { return t.Elem.span }
	px := stream.Cancelable(ctx, stream.FromSlice(xs))
	py := stream.Cancelable(ctx, stream.FromSlice(ys))
	out := make([]partition.Tagged[spanned], 0, len(xs))
	emit := func(t partition.Tagged[spanned]) { out = append(out, t) }
	var err error
	switch kind {
	case algebra.KindContained:
		err = core.ContainedSemijoin(px, py, span, o, emit)
	case algebra.KindContain:
		err = core.ContainSemijoin(px, py, span, o, emit)
	case algebra.KindOverlap:
		err = core.OverlapSemijoin(px, py, span, o, emit)
	default:
		err = fmt.Errorf("engine: parallel semijoin of kind %v", kind)
	}
	return out, err
}

// noteMeasuredReplication records the realized boundary-replication rate
// next to the optimizer's prediction, so explain output shows both.
func noteMeasuredReplication[T any](cost *NodeCost, shL, shR [][]T, n int) {
	if n == 0 {
		return
	}
	total := 0
	for i := range shL {
		total += len(shL[i])
	}
	for i := range shR {
		total += len(shR[i])
	}
	cost.Notes = append(cost.Notes,
		fmt.Sprintf("parallel: measured boundary replication %.1f%%", 100*float64(total-n)/float64(n)))
}

// parallelScan fans a large stored scan out over disjoint flushed-page
// ranges. Ranges are contiguous and concatenated in order, so the result
// is byte-identical to a serial Scan (file order); the page ranges are
// disjoint, so page-read accounting stays deterministic.
func (ex *executor) parallelScan(hf *storage.HeapFile, cost *NodeCost) ([]relation.Row, bool, error) {
	k := ex.workers()
	pages := hf.Pages()
	minPages := int64(parallelScanMinPages)
	if ex.opt.ForceParallel {
		minPages = 2
	}
	if k < 2 || pages < minPages {
		return nil, false, nil
	}
	if int64(k) > pages {
		k = int(pages)
	}
	labels := make([]string, k)
	bounds := make([]int64, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = pages * int64(i) / int64(k)
	}
	for i := 0; i < k; i++ {
		labels[i] = fmt.Sprintf("scan shard %d/%d pages [%d,%d)", i+1, k, bounds[i], bounds[i+1])
	}
	outs := make([][]relation.Row, k)
	err := ex.runWorkers(labels, cost, func(ctx context.Context, i int, o core.Options) (int64, error) {
		hi := bounds[i+1]
		if i == k-1 {
			hi = pages + 1 // the last shard also drains the open tail page
		}
		rows, err := stream.Collect(stream.Cancelable(ctx, hf.ScanRange(bounds[i], hi)))
		if err != nil {
			return 0, err
		}
		outs[i] = rows
		o.Probe.ReadLeft = int64(len(rows))
		return int64(len(rows)), nil
	})
	if err != nil {
		return nil, false, err
	}
	var rows []relation.Row
	for _, o := range outs {
		rows = append(rows, o...)
	}
	cost.Notes = append(cost.Notes, fmt.Sprintf("parallel stored scan ×%d over %d pages", k, pages))
	return rows, true, nil
}
