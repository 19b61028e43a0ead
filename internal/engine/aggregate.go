package engine

import (
	"fmt"
	"slices"

	"tdb/internal/algebra"
	"tdb/internal/metrics"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// evalAggregate groups the materialized input and folds each group through
// the aggregate terms — the Figure 4 processor as a physical operator. The
// groups are keyed by relation.AppendKey over the group columns and emitted
// sorted by their key cells under value.Compare; the retained state is one
// accumulator row per group.
func (ex *executor) evalAggregate(n *algebra.Aggregate) (*result, error) {
	in, err := ex.eval(n.Input)
	if err != nil {
		return nil, err
	}
	groupIdx := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		groupIdx[i] = in.schema.ColumnIndex(g.Name())
		if groupIdx[i] < 0 {
			return nil, fmt.Errorf("engine: group column %s not in %s", g, in.schema)
		}
	}
	type termState struct {
		kind  algebra.AggKind
		col   int
		count int64
		sum   int64
		min   value.Value
		max   value.Value
		seen  bool
	}
	termCol := make([]int, len(n.Terms))
	for i, t := range n.Terms {
		termCol[i] = -1
		if t.Kind != algebra.AggCount {
			termCol[i] = in.schema.ColumnIndex(t.Of.Name())
			if termCol[i] < 0 {
				return nil, fmt.Errorf("engine: aggregate column %s not in %s", t.Of, in.schema)
			}
		}
	}

	probe := metrics.Probe{}
	type group struct {
		key   []value.Value
		terms []termState
	}
	groups := map[string]*group{}
	var order []*group
	var k []byte
	for _, row := range in.rows {
		probe.IncReadLeft()
		k = relation.AppendKey(k[:0], row, groupIdx)
		g, ok := groups[string(k)]
		if !ok {
			g = &group{key: make([]value.Value, len(groupIdx)), terms: make([]termState, len(n.Terms))}
			for i, gi := range groupIdx {
				g.key[i] = row[gi]
			}
			for i, t := range n.Terms {
				g.terms[i] = termState{kind: t.Kind, col: termCol[i]}
			}
			groups[string(k)] = g
			order = append(order, g)
			probe.StateAdd(1)
		}
		for i := range g.terms {
			ts := &g.terms[i]
			switch ts.kind {
			case algebra.AggCount:
				ts.count++
			case algebra.AggSum:
				ts.sum += row[ts.col].AsInt()
			case algebra.AggMin:
				if !ts.seen || row[ts.col].Less(ts.min) {
					ts.min = row[ts.col]
				}
				ts.seen = true
			case algebra.AggMax:
				if !ts.seen || ts.max.Less(row[ts.col]) {
					ts.max = row[ts.col]
				}
				ts.seen = true
			}
		}
	}

	schema, err := aggregateOutputSchema(n, in.schema)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(order, func(a, b *group) int {
		return slices.CompareFunc(a.key, b.key, value.Value.Compare)
	})
	rows := make([]relation.Row, 0, len(order))
	for _, g := range order {
		row := make(relation.Row, 0, len(g.key)+len(g.terms))
		row = append(row, g.key...)
		for _, ts := range g.terms {
			switch ts.kind {
			case algebra.AggCount:
				row = append(row, value.Int(ts.count))
			case algebra.AggSum:
				row = append(row, value.Int(ts.sum))
			case algebra.AggMin:
				row = append(row, ts.min)
			case algebra.AggMax:
				row = append(row, ts.max)
			}
		}
		rows = append(rows, row)
	}
	probe.IncEmitted(int64(len(rows)))
	probe.StateRemove(int64(len(groups)))
	ex.stats.add(NodeCost{Label: n.Label(), Algorithm: "hash aggregate", Probe: probe, OutRows: int64(len(rows))})
	return &result{schema: schema, rows: rows}, nil
}

// aggregateOutputSchema mirrors algebra's schema computation locally (the
// algebra version works through OutputSchema; here the input schema is
// already resolved).
func aggregateOutputSchema(a *algebra.Aggregate, in *relation.Schema) (*relation.Schema, error) {
	cols := make([]relation.Column, 0, len(a.GroupBy)+len(a.Terms))
	for _, g := range a.GroupBy {
		idx := in.ColumnIndex(g.Name())
		if idx < 0 {
			return nil, fmt.Errorf("engine: group column %s not in %s", g, in)
		}
		cols = append(cols, relation.Column{Name: g.Name(), Kind: in.Cols[idx].Kind})
	}
	for _, t := range a.Terms {
		kind := value.KindInt
		if t.Kind == algebra.AggMin || t.Kind == algebra.AggMax {
			idx := in.ColumnIndex(t.Of.Name())
			if idx < 0 {
				return nil, fmt.Errorf("engine: aggregate column %s not in %s", t.Of, in)
			}
			kind = in.Cols[idx].Kind
		}
		cols = append(cols, relation.Column{Name: t.As, Kind: kind})
	}
	return relation.NewSchema(cols, -1, -1)
}
