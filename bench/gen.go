package main

import (
	"fmt"
	"math/rand"

	"tdb/internal/algebra"
	"tdb/internal/constraints"
	"tdb/internal/engine"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// Every input is a function of the run's seed and a fixed per-use offset,
// so one seed names one set of inputs for all five workloads.
const (
	seedX       = 1
	seedY       = 2
	seedShuffle = 3
	seedFaculty = 4
	seedJitter  = 5
	seedReads   = 6
)

func subSeed(seed int64, use int64) int64 { return seed*1000 + use }

// genXY draws the E22/E25 pair of interval populations: X long lifespans
// (mean 25, a tenth ten times longer), Y short ones (mean 4), both Poisson
// arrivals at rate lambda.
func genXY(n int, lambda float64, seed int64) (xs, ys []relation.Tuple) {
	xs = workload.Tuples(workload.Config{N: n, Lambda: lambda, MeanDur: 25, LongFrac: 0.1, Seed: subSeed(seed, seedX)}, "x")
	ys = workload.Tuples(workload.Config{N: n, Lambda: lambda, MeanDur: 4, Seed: subSeed(seed, seedY)}, "y")
	return xs, ys
}

// shuffled registers the tuples out of ValidFrom order. The generator
// emits them sorted on ValidFrom, which every TS-ordered operator would
// recognise as an interesting order and skip its sort: stored in arrival
// order the sort layer would never run, and no workload could own it.
func shuffled(name string, ts []relation.Tuple, seed int64) *relation.Relation {
	ts = append([]relation.Tuple(nil), ts...)
	rng := rand.New(rand.NewSource(subSeed(seed, seedShuffle)))
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return relation.FromTuples(name, ts)
}

func lifespan(v string) algebra.SpanRef {
	return algebra.SpanRef{
		TS: algebra.ColRef{Var: v, Col: "ValidFrom"},
		TE: algebra.ColRef{Var: v, Col: "ValidTo"},
	}
}

func joinXY(kind algebra.TemporalKind) algebra.Expr {
	return &algebra.Join{
		L:    &algebra.Scan{Relation: "X", As: "a"},
		R:    &algebra.Scan{Relation: "Y", As: "b"},
		Kind: kind, LSpan: lifespan("a"), RSpan: lifespan("b"),
	}
}

func semijoinXY(kind algebra.TemporalKind) algebra.Expr {
	return &algebra.Semijoin{
		L:    &algebra.Scan{Relation: "X", As: "a"},
		R:    &algebra.Scan{Relation: "Y", As: "b"},
		Kind: kind, LSpan: lifespan("a"), RSpan: lifespan("b"),
	}
}

func rankOrder() constraints.ChronOrder {
	return constraints.ChronOrder{
		Relation: "Faculty", KeyCol: "Name", ValCol: "Rank",
		Order: append([]string{}, workload.Ranks...),
	}
}

// The paper's running query, as the shell and the wire take it.
const superstarText = `range of f1 is Faculty
range of f2 is Faculty
range of f3 is Faculty
retrieve (Name=f1.Name, ValidFrom=f1.ValidFrom, ValidTo=f2.ValidTo)
where f3.Rank="Associate" and f1.Name=f2.Name and f1.Rank="Assistant"
  and f2.Rank="Full" and (f1 overlap f3) and (f2 overlap f3)`

const (
	pointText = `range of f is Faculty retrieve (f.Name, f.ValidFrom) where f.Rank = $1`
	wideText  = `range of a is X range of b is Y retrieve (XS=a.S, XFrom=a.ValidFrom, YS=b.S, YFrom=b.ValidFrom) where (a overlap b)`
)

// planQuel takes one quel statement to its optimized tree the way the
// shell and the server do — parse, translate, bind, optimize under the
// catalog's integrity constraints — with a span around each stage.
func planQuel(rec *recorder, parent, req int, db *engine.DB, text string, params []value.Value) (algebra.Expr, error) {
	id := rec.begin(parent, req, "quel", "parse")
	prog, err := quel.Parse(text)
	rec.end(id, int64(len(text)))
	if err != nil {
		return nil, err
	}
	id = rec.begin(parent, req, "quel", "translate")
	qs, err := quel.Translate(prog, db)
	rec.end(id, int64(len(qs)))
	if err != nil {
		return nil, err
	}
	if len(qs) != 1 {
		return nil, fmt.Errorf("%d statements in %q", len(qs), text)
	}
	id = rec.begin(parent, req, "optimizer", "optimize")
	defer rec.end(id, 0)
	tree, err := quel.BindParams(&qs[0], params)
	if err != nil {
		return nil, err
	}
	res, err := optimizer.Optimize(tree, db, optimizer.Options{ICs: db.ChronOrders()})
	if err != nil {
		return nil, err
	}
	return res.Tree, nil
}
