package engine

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"tdb/internal/algebra"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
)

// TestProfiledRunReportsResourceColumns: a run with Profile on marks
// every plan-node span profiled, surfaces allocs/op and B/op in the
// EXPLAIN ANALYZE tree, and produces exactly the rows of an unprofiled
// run — accounting observes, never steers.
func TestProfiledRunReportsResourceColumns(t *testing.T) {
	db := newFacultyDB(t, 40, false)
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	tree := optimize(t, db, superstarQuery(), optimizer.Options{ICs: db.ChronOrders()})

	tr := obs.NewTracer()
	res, _, err := Run(db, tree, Options{Tracer: tr, Profile: true})
	if err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	if len(spans) < 2 {
		t.Fatalf("spans = %d, want a root plus plan nodes", len(spans))
	}
	var sawAllocs bool
	for _, s := range spans {
		if !s.Profiled {
			t.Errorf("span %q not profiled", s.Label)
		}
		if s.Allocs < 0 || s.AllocBytes < 0 {
			t.Errorf("span %q has negative exclusive deltas: allocs=%d bytes=%d",
				s.Label, s.Allocs, s.AllocBytes)
		}
		if s.Allocs > 0 {
			sawAllocs = true
		}
	}
	if !sawAllocs {
		t.Error("no span attributed any allocation; the superstar plan allocates")
	}

	tree2 := tr.Tree()
	for _, want := range []string{"allocs/op=", "B/op=", "allocs="} {
		if !strings.Contains(tree2, want) {
			t.Errorf("EXPLAIN ANALYZE tree missing %q:\n%s", want, tree2)
		}
	}

	plain, _, err := Run(db, tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "profiled vs plain", res, plain)
}

// burstSink keeps the test bursts on the heap.
var burstSink [][]byte

// burst allocates n kilobyte buffers.
func burst(n int) {
	burstSink = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		burstSink = append(burstSink, make([]byte, 1024))
	}
}

// TestProfiledNodeWindowIsExclusive: a node that allocates a known burst
// reports at least that much in its window, and its parent's window,
// which encloses the child's, reports its own burst without the child's.
func TestProfiledNodeWindowIsExclusive(t *testing.T) {
	tr := obs.NewTracer()
	ex := &executor{opt: Options{Tracer: tr, Profile: true}, stats: &Stats{}}
	ex.cur = tr.BeginQuery("q")
	outer, inner := &algebra.Scan{Relation: "Outer"}, &algebra.Scan{Relation: "Inner"}
	_, err := ex.evalAs(outer, func() (*result, error) {
		if _, err := ex.evalAs(inner, func() (*result, error) {
			burst(64)
			ex.stats.add(obs.Node{Label: inner.Label()})
			return &result{}, nil
		}); err != nil {
			return nil, err
		}
		burst(16)
		ex.stats.add(obs.Node{Label: outer.Label()})
		return &result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	in, out := ex.stats.Nodes[0], ex.stats.Nodes[1]
	if !in.Profiled || !out.Profiled {
		t.Fatalf("nodes not profiled: %+v %+v", in, out)
	}
	if in.Allocs < 64 || in.AllocBytes < 64*1024 {
		t.Errorf("inner node missed its burst: allocs=%d bytes=%d", in.Allocs, in.AllocBytes)
	}
	if out.Allocs < 16 || out.AllocBytes < 16*1024 {
		t.Errorf("outer node missed its burst: allocs=%d bytes=%d", out.Allocs, out.AllocBytes)
	}
	if out.AllocBytes >= 64*1024 {
		t.Errorf("outer node's %d bytes include its child's burst", out.AllocBytes)
	}
	spans := tr.Spans()
	if len(spans) != 3 || spans[1].AllocBytes != out.AllocBytes || spans[2].AllocBytes != in.AllocBytes {
		t.Errorf("spans do not carry the node windows:\n%s", tr.Tree())
	}
}

// TestProfiledNodeRunsUnderLabels: a profiled node body runs under the
// tdb.query, tdb.node and tdb.op pprof labels, traced or not. Goroutine
// labels are readable only through a profile dump: the debug=1 goroutine
// profile prints a "labels: {...}" line for each labeled goroutine.
func TestProfiledNodeRunsUnderLabels(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		tracer      *obs.Tracer
	}{{"untraced", "q0", nil}, {"traced", "q1", obs.NewTracer()}} {
		ex := &executor{opt: Options{Tracer: tc.tracer, Profile: true}, stats: &Stats{}}
		ex.cur = tc.tracer.BeginQuery("q")
		scan := &algebra.Scan{Relation: "Faculty", As: "f1"}
		var dump bytes.Buffer
		_, err := ex.evalAs(scan, func() (*result, error) {
			if err := pprof.Lookup("goroutine").WriteTo(&dump, 1); err != nil {
				return nil, err
			}
			ex.stats.add(obs.Node{})
			return &result{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`"tdb.query":"` + tc.query + `"`,
			`"tdb.node":"` + scan.Label() + `"`,
			`"tdb.op":"scan"`,
		} {
			if !strings.Contains(dump.String(), want) {
				t.Errorf("%s: goroutine profile missing label %s", tc.name, want)
			}
		}
	}
}

// TestProfiledRunWithoutTracerReadsNoWindow: Profile without a Tracer only
// labels the nodes; no node record is profiled.
func TestProfiledRunWithoutTracerReadsNoWindow(t *testing.T) {
	db := newFacultyDB(t, 40, false)
	tree := optimize(t, db, superstarQuery(), optimizer.Options{})
	_, stats, err := Run(db, tree, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range stats.Nodes {
		if n.Profiled || n.Allocs != 0 || n.AllocBytes != 0 || n.Curve != nil {
			t.Errorf("untraced node %q carries accounting: %+v", n.Label, n)
		}
	}
}

// TestSlowQueryEventJournaled: with a slow-query cutoff below any real
// run, the engine journals exactly one slow-query event carrying the
// elapsed time and output cardinality; with the cutoff unset it stays
// silent.
func TestSlowQueryEventJournaled(t *testing.T) {
	db := newFacultyDB(t, 40, false)
	tree := optimize(t, db, superstarQuery(), optimizer.Options{})

	events := obs.NewEventLog(8)
	res, _, err := Run(db, tree, Options{Events: events, SlowQuery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	evs := events.Events()
	if len(evs) != 1 || evs[0].Kind != obs.EventSlowQuery {
		t.Fatalf("events = %+v, want one slow-query", evs)
	}
	if evs[0].Detail["elapsed_ms"] == "" {
		t.Errorf("slow-query event missing elapsed_ms: %+v", evs[0].Detail)
	}
	if want := int64(res.Cardinality()); evs[0].Detail["rows_out"] == "" {
		t.Errorf("slow-query event missing rows_out (want %d): %+v", want, evs[0].Detail)
	}

	quiet := obs.NewEventLog(8)
	if _, _, err := Run(db, tree, Options{Events: quiet}); err != nil {
		t.Fatal(err)
	}
	if quiet.Len() != 0 {
		t.Errorf("events journaled with no cutoff: %+v", quiet.Events())
	}
}

// TestGovernorFallbackEventJournaled: a governed degradation lands in
// the event journal with the breach arithmetic, alongside the existing
// note and counter.
func TestGovernorFallbackEventJournaled(t *testing.T) {
	db := governorDB(t, 40)
	events := obs.NewEventLog(8)
	_, st, err := Run(db, governorJoin(algebra.KindOverlap),
		Options{GovernWorkspace: true, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if note := findNote(st, "degraded to baseline sort-merge"); note == "" {
		t.Fatalf("no degradation note; notes: %+v", st.Nodes)
	}
	var ev *obs.Event
	for _, e := range events.Events() {
		if e.Kind == obs.EventGovernor {
			cp := e
			ev = &cp
		}
	}
	if ev == nil {
		t.Fatalf("no governor-fallback event; journal: %+v", events.Events())
	}
	if ev.Detail["workspace"] == "" || ev.Detail["ceiling"] == "" || ev.Detail["algorithm"] == "" {
		t.Errorf("fallback event missing breach arithmetic: %+v", ev.Detail)
	}
}
