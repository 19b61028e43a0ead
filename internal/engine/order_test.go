package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// tiedTuples draws n tuples whose endpoints collide constantly — ValidFrom
// from a dozen chronons, three durations — each with a distinct surrogate,
// so how a sort orders equal keys is visible in any result sequence.
func tiedTuples(rng *rand.Rand, n int, prefix string) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		s := interval.Time(rng.Intn(12))
		out[i] = relation.Tuple{
			S:    fmt.Sprintf("%s%03d", prefix, i),
			V:    value.String_("v"),
			Span: interval.Interval{Start: s, End: s + 1 + interval.Time(rng.Intn(3))},
		}
	}
	return out
}

func tiedDB(t *testing.T, xs, ys []relation.Tuple) *DB {
	t.Helper()
	db := NewDB()
	for name, ts := range map[string][]relation.Tuple{"X": xs, "Y": ys} {
		if err := db.Register(relation.FromTuples(name, ts)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

type orderedQuery struct {
	name string
	tree algebra.Expr
	// lKey and rKey are the endpoints the operator orders its inputs on
	// (Tables 1 and 2); sequenced is false for the one operator that
	// establishes no order and emits in left input order.
	lKey, rKey interval.Endpoint
	sequenced  bool
}

func orderedQueries() []orderedQuery {
	ts, te := interval.TS, interval.TE
	return []orderedQuery{
		{"contain-join", joinOf(algebra.KindContain), ts, ts, true},
		{"contained-join", joinOf(algebra.KindContained), ts, ts, true},
		{"overlap-join", joinOf(algebra.KindOverlap), ts, ts, true},
		{"before-join", joinOf(algebra.KindBefore), te, ts, true},
		{"contained-semijoin", semijoinOf(algebra.KindContained), te, ts, true},
		{"contain-semijoin", semijoinOf(algebra.KindContain), ts, te, true},
		{"overlap-semijoin", semijoinOf(algebra.KindOverlap), ts, ts, true},
		{"before-semijoin", semijoinOf(algebra.KindBefore), ts, ts, false},
	}
}

// The result sequence must not depend on whether an ordering was
// established in memory or through spilled runs: both sorts are stable, so
// equal-key rows keep their input order either way, at any workspace.
func TestSpilledSortByteIdenticalToInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	db := tiedDB(t, tiedTuples(rng, 400, "x"), tiedTuples(rng, 300, "y"))
	for _, q := range orderedQueries() {
		for _, opt := range []Options{colOpt(), rowOpt()} {
			ref, _, err := Run(db, q.tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, mem := range []int{5, 64, 299} {
				opt.SortMemRows, opt.SpillDir = mem, t.TempDir()
				got, st, err := Run(db, q.tree, opt)
				if err != nil {
					t.Fatal(err)
				}
				identicalRows(t, fmt.Sprintf("%s SortMemRows=%d RowExec=%v", q.name, mem, opt.RowExec), ref, got)
				if runs := st.Nodes[len(st.Nodes)-1].SortRuns; q.sequenced && runs == 0 {
					t.Fatalf("%s SortMemRows=%d: nothing spilled", q.name, mem)
				}
			}
		}
	}
}

// The same at the workspace's extremes — one record (a run per row), an
// eighth of the larger input, the whole of it — on inputs small enough for
// a file per row.
func TestSpilledSortAtWorkspaceExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 64
	db := tiedDB(t, tiedTuples(rng, n, "x"), tiedTuples(rng, n-16, "y"))
	for _, q := range orderedQueries() {
		for _, opt := range []Options{colOpt(), rowOpt()} {
			ref, _, err := Run(db, q.tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, mem := range []int{1, n / 8, n} {
				opt.SortMemRows, opt.SpillDir = mem, t.TempDir()
				got, _, err := Run(db, q.tree, opt)
				if err != nil {
					t.Fatal(err)
				}
				identicalRows(t, fmt.Sprintf("%s SortMemRows=%d RowExec=%v", q.name, mem, opt.RowExec), ref, got)
			}
		}
	}
}

// shuffleKeepingTies permutes the tuples at random but leaves the relative
// order of tuples that share the given endpoint as it was: the slots each
// tie class lands on are refilled with the class in its original order.
func shuffleKeepingTies(rng *rand.Rand, ts []relation.Tuple, e interval.Endpoint) []relation.Tuple {
	key := func(t relation.Tuple) interval.Time {
		if e == interval.TS {
			return t.Span.Start
		}
		return t.Span.End
	}
	out := append([]relation.Tuple(nil), ts...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	class := map[interval.Time][]relation.Tuple{}
	for _, t := range ts {
		class[key(t)] = append(class[key(t)], t)
	}
	for i, t := range out {
		k := key(t)
		out[i], class[k] = class[k][0], class[k][1:]
	}
	return out
}

// Metamorphic relations of every stream operator over its input order: any
// permutation of the inputs yields the same multiset, and a permutation
// that keeps equal-key rows in their relative order yields the same
// sequence — the stability contract seen from outside the sort.
func TestResultsUnderInputPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs, ys := tiedTuples(rng, 250, "x"), tiedTuples(rng, 200, "y")
	base := tiedDB(t, xs, ys)
	for _, q := range orderedQueries() {
		for _, opt := range []Options{colOpt(), rowOpt()} {
			ref, _, err := Run(base, q.tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Cardinality() == 0 {
				t.Fatalf("%s: empty reference result", q.name)
			}
			for round := 0; round < 4; round++ {
				px := append([]relation.Tuple(nil), xs...)
				py := append([]relation.Tuple(nil), ys...)
				rng.Shuffle(len(px), func(i, j int) { px[i], px[j] = px[j], px[i] })
				rng.Shuffle(len(py), func(i, j int) { py[i], py[j] = py[j], py[i] })
				got, _, err := Run(tiedDB(t, px, py), q.tree, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, q.name+" under an arbitrary permutation", ref, got)

				if !q.sequenced {
					continue
				}
				kx, ky := shuffleKeepingTies(rng, xs, q.lKey), shuffleKeepingTies(rng, ys, q.rKey)
				got, _, err = Run(tiedDB(t, kx, ky), q.tree, opt)
				if err != nil {
					t.Fatal(err)
				}
				identicalRows(t, q.name+" under a tie-preserving permutation", ref, got)
			}
		}
	}
}
