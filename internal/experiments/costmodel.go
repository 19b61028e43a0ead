package experiments

import (
	"fmt"

	"tdb/internal/catalog"
	"tdb/internal/core"
	"tdb/internal/metrics"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
	"tdb/internal/stream"
	"tdb/internal/workload"
)

// CostModelRow is one validation point: predicted vs. measured comparisons
// for the stream contain join, beside the nested loop's.
type CostModelRow struct {
	N          int
	Predicted  float64
	Measured   int64
	NestedLoop float64
}

// CostModelResult carries the sweep.
type CostModelResult struct {
	Rows []CostModelRow
}

// CostModel validates the Section 6 optimizer statistics end to end: for a
// size sweep, the Little's-law-based comparison estimate of the stream
// contain join is checked against the measured count and set beside the
// nested loop's |X|·|Y|.
func CostModel(sizes []int, seed int64) (*CostModelResult, *Table, error) {
	res := &CostModelResult{}
	tab := &Table{
		Title:  "Section 6 — cost model validation (stream contain-join)",
		Header: []string{"n", "predicted cmp", "measured cmp", "ratio", "nested-loop cmp"},
	}
	for _, n := range sizes {
		xs := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 12, Seed: seed}, "x")
		ys := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 12, Seed: seed + 1}, "y")
		sx := catalog.FromSpans(spansOf(xs))
		sy := catalog.FromSpans(spansOf(ys))
		est := optimizer.EstimateContainJoin(sx, sy)

		probe := &metrics.Probe{}
		err := core.ContainJoinTSTS(
			stream.FromSlice(sortedTuples(xs, relation.Order{relation.TSAsc})),
			stream.FromSlice(sortedTuples(ys, relation.Order{relation.TSAsc})),
			tupleSpan, core.Options{Probe: probe}, func(a, b relation.Tuple) {})
		if err != nil {
			return nil, nil, err
		}
		row := CostModelRow{
			N: n, Predicted: est.Stream, Measured: probe.Comparisons,
			NestedLoop: est.NestedLoop,
		}
		res.Rows = append(res.Rows, row)
		tab.Add(n, fmt.Sprintf("%.0f", row.Predicted), row.Measured,
			fmt.Sprintf("%.2f", float64(row.Measured)/row.Predicted),
			fmt.Sprintf("%.0f", row.NestedLoop))
	}
	return res, tab, nil
}
