package engine

import (
	"bufio"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tdb/internal/obs"
	"tdb/internal/optimizer"
)

// TestTracedQuerySpansMatchNodeCosts is the integration check of the
// tracing contract: a traced query produces one JSONL span per plan node
// (plus the query root), and every span carries, whole, the node record
// the executor appended to its stats for that operator.
func TestTracedQuerySpansMatchNodeCosts(t *testing.T) {
	db := newFacultyDB(t, 40, false)
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	tree := optimize(t, db, superstarQuery(), optimizer.Options{ICs: db.ChronOrders()})

	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	res, stats, err := Run(db, tree, Options{VerifyOrder: true, Tracer: tr, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cardinality() == 0 {
		t.Fatal("empty result; workload too thin to exercise tracing")
	}

	spans := tr.Spans()
	// One span per plan node plus the query root.
	if got, want := len(spans), len(stats.Nodes)+1; got != want {
		t.Fatalf("spans = %d, want %d (one per node record plus the root):\n%s",
			got, want, tr.Tree())
	}
	root := spans[0]
	if want := (obs.Node{Label: tree.Label(), Algorithm: "query", Probe: stats.Total(),
		OutRows: int64(res.Cardinality())}); root.ParentID != 0 || !reflect.DeepEqual(root.Node, want) {
		t.Errorf("root span %+v, want parent 0 and %+v", root.Node, want)
	}
	// Spans are recorded in begin (pre-order) time, node records in finish
	// (post-order) time: the span tree's post-order pairs them one to one.
	children := map[int64][]*obs.Span{}
	for _, s := range spans[1:] {
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	var post []*obs.Span
	var walk func(id int64)
	walk = func(id int64) {
		for _, c := range children[id] {
			walk(c.ID)
			post = append(post, c)
		}
	}
	walk(root.ID)
	if len(post) != len(stats.Nodes) {
		t.Fatalf("span tree reaches %d spans, stats hold %d nodes:\n%s", len(post), len(stats.Nodes), tr.Tree())
	}
	for i, s := range post {
		if !reflect.DeepEqual(s.Node, stats.Nodes[i]) {
			t.Errorf("span %d %q:\n got %+v\nwant %+v", s.ID, s.Label, s.Node, stats.Nodes[i])
		}
	}

	// The JSONL export has one well-formed line per span with consistent
	// probe totals.
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	lines := 0
	for sc.Scan() {
		var m struct {
			Label string `json:"label"`
			Probe struct {
				Comparisons int64 `json:"comparisons"`
				Workspace   int64 `json:"workspace"`
			} `json:"probe"`
		}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %d: %v", lines+1, err)
		}
		lines++
	}
	if lines != len(spans) {
		t.Errorf("JSONL lines = %d, spans = %d", lines, len(spans))
	}

	// The registry picked up the run.
	if got := reg.Counter("tdb_queries_total", "").Value(); got != 1 {
		t.Errorf("tdb_queries_total = %d", got)
	}
	if got := reg.Counter("tdb_rows_out_total", "").Value(); got != int64(res.Cardinality()) {
		t.Errorf("tdb_rows_out_total = %d, result = %d", got, res.Cardinality())
	}
	if got := reg.Histogram("tdb_operator_workspace_tuples", "", nil).Count(); got != uint64(len(stats.Nodes)) {
		t.Errorf("workspace histogram samples = %d, nodes = %d", got, len(stats.Nodes))
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, wantLine := range []string{
		"# TYPE tdb_queries_total counter",
		"# TYPE tdb_query_duration_seconds histogram",
		"tdb_query_duration_seconds_count 1",
	} {
		if !strings.Contains(prom.String(), wantLine) {
			t.Errorf("exposition missing %q", wantLine)
		}
	}
}

// TestTracedStreamJoinRecordsCurve checks that a traced stream operator's
// span carries a state(t) curve consistent with its probe.
func TestTracedStreamJoinRecordsCurve(t *testing.T) {
	db := newFacultyDB(t, 60, false)
	if err := db.DeclareChronOrder(rankIC(false)); err != nil {
		t.Fatal(err)
	}
	tree := optimize(t, db, superstarQuery(), optimizer.Options{ICs: db.ChronOrders()})

	tr := obs.NewTracer()
	_, stats, err := Run(db, tree, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	var curved int
	for _, s := range tr.Spans() {
		if len(s.Curve) == 0 {
			continue
		}
		curved++
		var maxState int64
		for _, p := range s.Curve {
			if p.State > maxState {
				maxState = p.State
			}
		}
		if maxState > s.Probe.StateHighWater {
			t.Errorf("span %q curve peak %d exceeds probe high-water %d",
				s.Label, maxState, s.Probe.StateHighWater)
		}
	}
	if curved == 0 {
		t.Fatalf("no span recorded a state curve; stats:\n%s\ntree:\n%s", stats.String(), tr.Tree())
	}
}

// TestUntracedRunUnchanged pins the nil-hook discipline end to end: running
// with no tracer and no registry must produce identical results and stats.
func TestUntracedRunUnchanged(t *testing.T) {
	db := newFacultyDB(t, 40, false)
	tree := optimize(t, db, superstarQuery(), optimizer.Options{})

	resA, statsA, err := Run(db, tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resB, statsB, err := Run(db, tree, Options{Tracer: obs.NewTracer(), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "traced vs untraced", resA, resB)
	ta, tb := statsA.Total(), statsB.Total()
	if ta != tb {
		t.Errorf("stats diverge: %s vs %s", ta.String(), tb.String())
	}
}
