package engine

// Time-range partitioned parallel execution, run only when a caller asks
// for it with Options.Parallelism ≥ 2. A columnar contain, contained or
// overlap join or semijoin node splits its sorted endpoint columns into k
// time shards (equi-depth ValidFrom cuts read off the node's sorted TS
// column) as index lists, runs the node's serial kernel step (columnar.go)
// per shard on worker goroutines, and recombines the shards' global row
// indexes before the node materializes once. Boundary-spanning tuples are
// replicated into every shard they intersect; exactness is restored by the
// owner rule (each join pair is kept only by the shard owning its
// canonical sweep point, and the shards concatenate in range order) or by
// the global-index k-way merge with adjacent dedup (semijoins). The output
// is byte-identical to serial execution: worker results live in per-shard
// slots, the recombination is deterministic, and no map or scheduling
// order ever reaches the output. Options.RowExec never fans out. See
// DESIGN.md "Parallel execution" for the per-operator ownership rules and
// the determinism argument.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"tdb/internal/algebra"
	"tdb/internal/core"
	"tdb/internal/fault"
	"tdb/internal/metrics"
	"tdb/internal/obs"
	"tdb/internal/obs/prof"
	"tdb/internal/partition"
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

// planParallel decides whether to fan a stream join (semi=false) or
// semijoin (semi=true) node out across time shards. Only correctness gates
// apply: Parallelism of at least 2, a contain, contained or overlap
// operator, and at least one distinct cut point. The cuts come from the
// node's TS-ascending input — the left one, except for the contained-
// semijoin, whose left input is TE-ascending — in O(k). A nil return
// means serial.
func (ex *executor) planParallel(kind algebra.TemporalKind, semi bool, lc, rc core.Cols, cost *NodeCost) []partition.Range {
	k := ex.opt.Parallelism
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
	ts := lc.TS
	if semi && kind == algebra.KindContained {
		ts = rc.TS
	}
	ranges := partition.Ranges(partition.Cuts(ts, k))
	if len(ranges) < 2 {
		cost.Notes = append(cost.Notes, "parallel: declined (no distinct TS cut points)")
		return nil
	}
	cost.Notes = append(cost.Notes, fmt.Sprintf("parallel ×%d time shards", len(ranges)))
	return ranges
}

// runWorkers fans k shard workers out under the current node span: one
// child span and probe per worker, results written to per-shard slots (no
// channels anywhere, so no send can ever block a worker), the
// tdb_parallel_workers gauge held high for the duration, and worker spans
// finished in shard order so traces are deterministic.
//
// Failure semantics: the first worker to fail cancels the shared context,
// so sibling shards unwind at their next poll (a kernel shard at entry, a
// scan shard before its next page); a panic inside a
// worker is recovered into ErrWorkerPanic and treated the same way.
// wg.Wait guarantees every goroutine has exited before runWorkers returns
// — no leaks on any path.
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
			o := core.Options{Probe: &probes[i], VerifyOrder: ex.opt.VerifyOrder, Sampler: spans[i].Sampler()}
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

// runShards fans a columnar node out over its time shards.
// partition.SplitIndex replicates row *indexes* into every shard a
// lifespan intersects; each worker gathers its compact local columns and
// runs step over them, which returns the shard's result and its output
// row count, and the per-shard results come back in shard order.
// The kernels run the sweep without cancellation polls, so cancellation is
// honored at shard entry; a canceled sibling at worst lets a shard finish
// its bounded sweep.
func runShards[T any](ex *executor, label string, lc, rc core.Cols, shards []partition.Range, cost *NodeCost,
	step func(lcs, rcs core.Cols, li, ri []int32, rng partition.Range, o core.Options) (T, int, error)) ([]T, error) {

	shL := partition.SplitIndex(lc.TS, lc.TE, shards)
	shR := partition.SplitIndex(rc.TS, rc.TE, shards)
	noteMeasuredReplication(cost, shL, shR, lc.Len()+rc.Len())
	outs := make([]T, len(shards))
	err := ex.runWorkers(shardLabels(label, shards), cost, func(ctx context.Context, i int, o core.Options) (int64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var n int
		var err error
		outs[i], n, err = step(gatherCols(lc, shL[i]), gatherCols(rc, shR[i]), shL[i], shR[i], shards[i], o)
		return int64(n), err
	})
	return outs, err
}

// parallelJoinPairs executes an accepted join fan-out. Each shard runs
// columnarJoinPairs on its gathered columns and keeps, rewritten in place
// as global indexes, only the pairs whose sweep point (ownerKey) its range
// owns; a chunk left empty is dropped. Shard ranges ascend disjointly and a
// shard emits its pairs in non-decreasing sweep-point order, so
// concatenating the shards' chunk lists in range order reproduces the
// serial emission sequence exactly, and no pair is copied twice.
func (ex *executor) parallelJoinPairs(kind algebra.TemporalKind, lc, rc core.Cols, shards []partition.Range, cost *NodeCost) (pairChunks, error) {
	outs, err := runShards(ex, "join shard", lc, rc, shards, cost, func(lcs, rcs core.Cols, li, ri []int32, rng partition.Range, o core.Options) (pairChunks, int, error) {
		chunks, err := columnarJoinPairs(kind, lcs, rcs, o)
		kept, n := chunks[:0], 0
		for _, c := range chunks {
			k := 0
			//tdb:hotpath
			for _, p := range c {
				g := pairIdx{l: li[p.l], r: ri[p.r]}
				if rng.OwnsPoint(ownerKey(kind, lc, rc, g)) {
					c[k] = g
					k++
				}
			}
			if k > 0 {
				kept = append(kept, c[:k])
				n += k
			}
		}
		return kept, n, err
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(outs...), nil
}

// parallelSemijoinIdx executes an accepted semijoin fan-out. The Figure 6
// scans preserve left input order and never consult the read policy, so
// each shard yields an ascending subsequence of global left indexes. A
// qualifying row and any witness share at least one chronon, so the shard
// owning that chronon emits the row; replicas emitted by several shards
// share their global index, and the index-ordered merge with adjacent dedup
// yields the qualifying rows in global input order — exactly the serial
// output.
func (ex *executor) parallelSemijoinIdx(kind algebra.TemporalKind, lc, rc core.Cols, shards []partition.Range, cost *NodeCost) ([]int32, error) {
	outs, err := runShards(ex, "semijoin shard", lc, rc, shards, cost, func(lcs, rcs core.Cols, li, _ []int32, _ partition.Range, o core.Options) ([]int32, int, error) {
		idxs, err := columnarSemijoinIdx(kind, lcs, rcs, o)
		//tdb:hotpath
		for i, x := range idxs {
			idxs[i] = li[x]
		}
		return idxs, len(idxs), err
	})
	if err != nil {
		return nil, err
	}
	parts := make([]stream.Stream[int32], len(outs))
	for i := range outs {
		parts[i] = stream.FromSlice(outs[i])
	}
	idxCmp := func(a, b int32) int { return int(a) - int(b) }
	sameIdx := func(a, b int32) bool { return a == b }
	return stream.Collect(stream.Dedup(stream.MergeK(idxCmp, parts...), sameIdx))
}

// noteMeasuredReplication records the realized boundary-replication rate
// of a fan-out in the node's explain notes.
func noteMeasuredReplication(cost *NodeCost, shL, shR [][]int32, n int) {
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

// scanPages is the one page-range walker of a stored scan, row scan and
// key scan alike: it cuts the file's flushed pages into k contiguous
// ranges, the last of which also drains the open tail page, and runs scan
// on each with a check to poll before every page. Serially — below 2
// flushed pages or at Parallelism 0 or 1 — k is 1 and the one range runs
// on the query goroutine; otherwise min(Parallelism, pages) shard workers
// run them. The ranges are disjoint and come back in file order,
// so the result and the page-read accounting equal the serial scan's.
// scan returns its range's result and row count.
func scanPages[T any](ex *executor, hf *storage.HeapFile, cost *NodeCost,
	scan func(lo, hi int64, check func() error) (T, int, error)) ([]T, error) {

	k := ex.opt.Parallelism
	pages := hf.Pages()
	if k < 2 || pages < 2 {
		out, n, err := scan(0, pages+1, ex.checkInterrupt)
		if err != nil {
			return nil, err
		}
		cost.Probe.ReadLeft = int64(n)
		return []T{out}, nil
	}
	k = int(min(int64(k), pages))
	labels := make([]string, k)
	bounds := make([]int64, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = pages * int64(i) / int64(k)
	}
	for i := 0; i < k; i++ {
		labels[i] = fmt.Sprintf("scan shard %d/%d pages [%d,%d)", i+1, k, bounds[i], bounds[i+1])
	}
	outs := make([]T, k)
	err := ex.runWorkers(labels, cost, func(ctx context.Context, i int, o core.Options) (int64, error) {
		hi := bounds[i+1]
		if i == k-1 {
			hi = pages + 1 // the last shard also drains the open tail page
		}
		check := func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return ex.checkInterrupt()
		}
		out, n, err := scan(bounds[i], hi, check)
		if err != nil {
			return 0, err
		}
		outs[i] = out
		o.Probe.ReadLeft = int64(n)
		return int64(n), nil
	})
	if err != nil {
		return nil, err
	}
	cost.Notes = append(cost.Notes, fmt.Sprintf("parallel stored scan ×%d over %d pages", k, pages))
	return outs, nil
}
