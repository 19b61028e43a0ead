package experiments

import (
	"fmt"

	"tdb/internal/baseline"
	"tdb/internal/catalog"
	"tdb/internal/core"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/relation"
	"tdb/internal/storage"
	"tdb/internal/stream"
	"tdb/internal/value"
	"tdb/internal/workload"
)

func rankVal(s string) value.Value { return value.String_(s) }

// TradeoffRow is one line of the Section 4.1 tradeoff experiment.
type TradeoffRow struct {
	N           int
	Strategy    string
	Comparisons int64
	TuplesRead  int64
	Workspace   int64
	SortRuns    int // external-sort runs written (0 = input pre-sorted)
	PagesMoved  int64
}

// TradeoffsResult carries the measured rows.
type TradeoffsResult struct {
	Rows []TradeoffRow
}

// Tradeoffs reproduces the Section 4.1 discussion: the three-way tension
// among sort order, workspace, and passes over the input. For a contain
// join at growing sizes it measures (1) the stream algorithm on pre-sorted
// input (single pass, bounded state), (2) the stream algorithm on unsorted
// input paying an external sort with a small memory budget (extra
// read/write passes), and (3) the conventional nested-loop join (no sort,
// no bounded state, quadratic comparisons). The crossover structure — the
// stream approach wins as n grows even when it must sort first — is the
// paper's core performance claim.
func Tradeoffs(sizes []int, memRows int, dir string, seed int64) (*TradeoffsResult, *Table, error) {
	res := &TradeoffsResult{}
	tab := &Table{
		Title:  fmt.Sprintf("Section 4.1 — sort order vs. workspace vs. passes (external-sort memory = %d rows)", memRows),
		Header: []string{"n", "strategy", "comparisons", "tuples read", "workspace", "sort runs", "pages moved"},
	}
	containTheta := func(a, b interval.Interval) bool { return a.ContainsInterval(b) }

	for _, n := range sizes {
		xs := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 10, LongFrac: 0.1, Seed: seed}, "x")
		ys := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 10, LongFrac: 0.1, Seed: seed + 1}, "y")
		// Shuffle into "stored unsorted" variants via ValidTo order (an
		// order useless for this operator).
		xu := sortedTuples(xs, relation.Order{relation.TEAsc})
		yu := sortedTuples(ys, relation.Order{relation.TEAsc})
		xsorted := sortedTuples(xs, relation.Order{relation.TSAsc})
		ysorted := sortedTuples(ys, relation.Order{relation.TSAsc})

		add := func(strategy string, probe *metrics.Probe, runs int, pages int64) {
			row := TradeoffRow{
				N: n, Strategy: strategy,
				Comparisons: probe.Comparisons, TuplesRead: probe.TuplesRead(),
				Workspace: probe.Workspace(), SortRuns: runs, PagesMoved: pages,
			}
			res.Rows = append(res.Rows, row)
			tab.Add(n, strategy, row.Comparisons, row.TuplesRead, row.Workspace, runs, pages)
		}

		// 1. Pre-sorted stream join: single pass, no sorting.
		probe := &metrics.Probe{}
		err := core.ContainJoinTSTS(stream.FromSlice(xsorted), stream.FromSlice(ysorted),
			tupleSpan, core.Options{Probe: probe}, func(a, b relation.Tuple) {})
		if err != nil {
			return nil, nil, err
		}
		add("stream, pre-sorted", probe, 0, 0)

		// 2. Unsorted input: external sort both sides, then stream join.
		probe = &metrics.Probe{}
		var sortStats storage.SortStats
		// The sort spills (key, index) records, as the engine's does; the
		// tuples move once, by the permutation it returns.
		sortSide := func(tuples []relation.Tuple) ([]relation.Tuple, error) {
			ts, te := relation.ShredSpans(tuples, tupleSpan)
			var st storage.SortStats
			perm, err := storage.ExternalSortKeys(ts, te, relation.Order{relation.TSAsc}, memRows, dir, &st, nil)
			if err != nil {
				return nil, err
			}
			sortStats.Runs += st.Runs
			sortStats.PagesRead += st.PagesRead
			sortStats.PagesWritten += st.PagesWritten
			out := make([]relation.Tuple, len(perm))
			for i, j := range perm {
				out[i] = tuples[j]
			}
			return out, nil
		}
		xss, err := sortSide(xu)
		if err != nil {
			return nil, nil, err
		}
		yss, err := sortSide(yu)
		if err != nil {
			return nil, nil, err
		}
		err = core.ContainJoinTSTS(stream.FromSlice(xss), stream.FromSlice(yss),
			tupleSpan, core.Options{Probe: probe}, func(a, b relation.Tuple) {})
		if err != nil {
			return nil, nil, err
		}
		add("stream, sort first", probe, sortStats.Runs, sortStats.PagesRead+sortStats.PagesWritten)

		// 3. Conventional nested loop on the stored (unsorted) data.
		probe = &metrics.Probe{}
		baseline.NestedLoopJoin(xu, yu, tupleSpan, containTheta, probe, func(a, b relation.Tuple) {})
		add("nested loop", probe, 0, 0)
	}
	return res, tab, nil
}

// StatisticsRow is one λ point of the workspace-prediction experiment.
type StatisticsRow struct {
	Lambda    float64
	MeanDur   float64
	Predicted float64 // Little's law λ·E[D]
	MaxConc   int     // exact maximum concurrency
	Measured  int64   // overlap-join state high-water mark
}

// StatisticsResult carries the sweep.
type StatisticsResult struct {
	Rows []StatisticsRow
}

// Statistics reproduces the Section 6 claim that workspace estimation
// belongs in the optimizer's statistics: across an arrival-rate sweep, the
// Little's-law prediction λ·E[duration] tracks the measured state
// high-water mark of the overlap join.
func Statistics(n int, lambdas []float64, meanDur float64, seed int64) (*StatisticsResult, *Table, error) {
	res := &StatisticsResult{}
	tab := &Table{
		Title:  fmt.Sprintf("Section 6 — workspace prediction by Little's law (n=%d, E[dur]=%.0f)", n, meanDur),
		Header: []string{"λ", "predicted λ·E[D]", "max concurrency", "measured state hwm", "measured/predicted"},
	}
	for _, lam := range lambdas {
		xs := workload.Tuples(workload.Config{N: n, Lambda: lam, MeanDur: meanDur, Seed: seed}, "x")
		ys := workload.Tuples(workload.Config{N: n, Lambda: lam, MeanDur: meanDur, Seed: seed + 1}, "y")
		stats := catalog.FromSpans(spansOf(xs))
		probe := &metrics.Probe{}
		err := core.OverlapJoin(
			stream.FromSlice(sortedTuples(xs, relation.Order{relation.TSAsc})),
			stream.FromSlice(sortedTuples(ys, relation.Order{relation.TSAsc})),
			tupleSpan, core.Options{Probe: probe}, func(a, b relation.Tuple) {})
		if err != nil {
			return nil, nil, err
		}
		// Both sides contribute a spanning set; predict with both.
		statsY := catalog.FromSpans(spansOf(ys))
		pred := stats.PredictedWorkspace() + statsY.PredictedWorkspace()
		row := StatisticsRow{
			Lambda:    lam,
			MeanDur:   meanDur,
			Predicted: pred,
			MaxConc:   stats.MaxConcurrency + statsY.MaxConcurrency,
			Measured:  probe.StateHighWater,
		}
		res.Rows = append(res.Rows, row)
		ratio := float64(row.Measured) / pred
		tab.Add(fmt.Sprintf("%.2f", lam), fmt.Sprintf("%.1f", pred), row.MaxConc, row.Measured, fmt.Sprintf("%.2f", ratio))
	}
	tab.Note("the ratio stays near 1 across two orders of magnitude of λ: cheap statistics predict workspace")
	return res, tab, nil
}
