package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdb/internal/engine"
	"tdb/internal/obs"
	"tdb/internal/relation"
	"tdb/internal/storage"
	"tdb/internal/workload"
)

func TestParseRankOrder(t *testing.T) {
	ic, err := parseRankOrder("Faculty:Name:Rank=Assistant,Associate,Full")
	if err != nil {
		t.Fatal(err)
	}
	if ic.Relation != "Faculty" || ic.KeyCol != "Name" || ic.ValCol != "Rank" {
		t.Errorf("parsed %+v", ic)
	}
	if len(ic.Order) != 3 || ic.Order[2] != "Full" || ic.Continuous {
		t.Errorf("parsed %+v", ic)
	}
	ic, err = parseRankOrder("F:K:V=a,b:continuous")
	if err != nil {
		t.Fatal(err)
	}
	if !ic.Continuous || len(ic.Order) != 2 {
		t.Errorf("continuous form parsed %+v", ic)
	}
	for _, bad := range []string{"nope", "A:B=x", "A:B:C:D=x"} {
		if _, err := parseRankOrder(bad); err == nil {
			t.Errorf("parseRankOrder(%q) accepted", bad)
		}
	}
}

func TestLoadFlexible(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.csv")
	fac := workload.Faculty(workload.FacultyConfig{N: 8, Seed: 1})
	if err := storage.SaveCSV(path, fac); err != nil {
		t.Fatal(err)
	}
	rel, err := loadFlexible(path, "Faculty")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != fac.Cardinality() {
		t.Errorf("loaded %d rows, want %d", rel.Cardinality(), fac.Cardinality())
	}
	if !rel.Schema.Temporal() {
		t.Error("temporal columns not recognized from header")
	}
	if _, err := loadFlexible(filepath.Join(dir, "missing.csv"), "X"); err == nil {
		t.Error("missing file accepted")
	}
	// A header without temporal columns loads as a snapshot relation.
	snap := filepath.Join(dir, "s.csv")
	if err := os.WriteFile(snap, []byte("A,B\nx,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rel, err = loadFlexible(snap, "S")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Schema.Temporal() || rel.Cardinality() != 1 {
		t.Errorf("snapshot load wrong: %v", rel)
	}
}

func TestShellRunStatements(t *testing.T) {
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: 40, Seed: 5}))
	ic, err := parseRankOrder("Faculty:Name:Rank=Assistant,Associate,Full")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeclareChronOrder(ic); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sh := &shell{db: db, explain: true, streams: true, out: &buf}
	err = sh.runStatements(`
range of f1 is Faculty
range of f2 is Faculty
range of f3 is Faculty
retrieve into Stars (Name=f1.Name, ValidFrom=f1.ValidFrom, ValidTo=f2.ValidTo)
where f3.Rank="Associate" and f1.Name=f2.Name and f1.Rank="Assistant"
  and f2.Rank="Full" and (f1 overlap f3) and (f2 overlap f3)
`)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"semantic: removed redundant conjunct",
		"⋉contained",
		"Stars(",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("shell output missing %q:\n%s", frag, out)
		}
	}
	// The into-relation is registered and queryable.
	if _, err := db.Relation("Stars"); err != nil {
		t.Errorf("into relation not registered: %v", err)
	}
	var buf2 bytes.Buffer
	sh.out = &buf2
	if err := sh.runStatements("range of s is Stars\nretrieve (s.Name)"); err != nil {
		t.Fatalf("querying the stored result: %v", err)
	}

	// Errors surface.
	if err := sh.runStatements("retrieve (zz.Name)"); err == nil {
		t.Error("bad statement accepted")
	}
	// describe and stats write to the shell writer.
	var buf3 bytes.Buffer
	sh.out = &buf3
	sh.describe()
	if !strings.Contains(buf3.String(), "Faculty") {
		t.Errorf("describe output: %q", buf3.String())
	}
	buf3.Reset()
	sh.statsOf("Faculty")
	if !strings.Contains(buf3.String(), "λ=") {
		t.Errorf("stats output: %q", buf3.String())
	}
	buf3.Reset()
	sh.statsOf("nope")
	if !strings.Contains(buf3.String(), "no statistics") {
		t.Errorf("missing-stats output: %q", buf3.String())
	}
}

// A retrieve into that the optimizer proves contradictory still creates
// its (empty) relation, under the schema a non-contradictory empty query's
// would have, so a later range declaration over it resolves.
func TestShellContradictoryIntoRegistersEmptyRelation(t *testing.T) {
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: 20, Seed: 5}))
	var buf bytes.Buffer
	sh := &shell{db: db, streams: true, out: &buf}
	for name, where := range map[string]string{"E": "f.ValidTo < f.ValidFrom", "N": `f.Name = "nobody"`} {
		if err := sh.runStatements("range of f is Faculty\nretrieve into " + name +
			" (f.Name, f.ValidFrom, f.ValidTo) where " + where); err != nil {
			t.Fatalf("into %s: %v", name, err)
		}
	}
	if !strings.Contains(buf.String(), "query is contradictory") {
		t.Fatalf("the optimizer did not prove the query contradictory:\n%s", buf.String())
	}
	e, err := db.Relation("E")
	if err != nil {
		t.Fatalf("contradictory into registered nothing: %v", err)
	}
	n, err := db.Relation("N")
	if err != nil {
		t.Fatal(err)
	}
	if e.Cardinality() != 0 || !e.Schema.Equal(n.Schema) {
		t.Errorf("E has %d rows and schema %s, want 0 rows and %s", e.Cardinality(), e.Schema, n.Schema)
	}
	if err := sh.runStatements("range of e is E\nretrieve (e.Name)"); err != nil {
		t.Errorf("querying the empty result: %v", err)
	}
}

// TestShellObservability is the end-to-end acceptance check: a query run
// with tracing on while the metrics endpoint is listening produces a JSONL
// span per plan node whose probe totals roll up to the query root, the
// shell prints the trace tree and serves \metrics, and the HTTP endpoint
// answers /metrics, /debug/vars and /debug/pprof/.
func TestShellObservability(t *testing.T) {
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: 40, Seed: 5}))
	ic, err := parseRankOrder("Faculty:Name:Rank=Assistant,Associate,Full")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeclareChronOrder(ic); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	defer storage.ObserveIO(nil)
	srv, addr, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	var out, trace bytes.Buffer
	sh := &shell{db: db, explain: true, streams: true, trace: true,
		out: &out, reg: reg, traceOut: &trace}
	err = sh.runStatements(`
range of f1 is Faculty
range of f2 is Faculty
range of f3 is Faculty
retrieve into Stars (Name=f1.Name, ValidFrom=f1.ValidFrom, ValidTo=f2.ValidTo)
where f3.Rank="Associate" and f1.Name=f2.Name and f1.Rank="Assistant"
  and f2.Rank="Full" and (f1 overlap f3) and (f2 overlap f3)
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "query #1") {
		t.Errorf("shell output missing trace tree:\n%s", out.String())
	}

	// The JSONL trace: one well-formed line per span, exactly one root,
	// and the root probe is the sum of the per-operator probes.
	type line struct {
		Parent  int64  `json:"parent"`
		Label   string `json:"label"`
		OutRows int64  `json:"out_rows"`
		Probe   struct {
			ReadLeft    int64 `json:"read_left"`
			ReadRight   int64 `json:"read_right"`
			Emitted     int64 `json:"emitted"`
			Comparisons int64 `json:"comparisons"`
		} `json:"probe"`
	}
	var root *line
	var nodes []line
	for i, raw := range strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("bad JSONL line %d: %v\n%s", i+1, err, raw)
		}
		if l.Parent == 0 {
			if root != nil {
				t.Fatal("two root spans in trace")
			}
			root = new(line)
			*root = l
			continue
		}
		nodes = append(nodes, l)
	}
	if root == nil || len(nodes) == 0 {
		t.Fatalf("trace has root=%v with %d operator spans:\n%s", root, len(nodes), trace.String())
	}
	stars, err := db.Relation("Stars")
	if err != nil {
		t.Fatal(err)
	}
	if root.OutRows != int64(stars.Cardinality()) {
		t.Errorf("root out_rows = %d, result rows = %d", root.OutRows, stars.Cardinality())
	}
	var sum line
	for _, n := range nodes {
		sum.Probe.ReadLeft += n.Probe.ReadLeft
		sum.Probe.ReadRight += n.Probe.ReadRight
		sum.Probe.Emitted += n.Probe.Emitted
		sum.Probe.Comparisons += n.Probe.Comparisons
	}
	if sum.Probe != root.Probe {
		t.Errorf("operator probes %+v do not sum to root %+v", sum.Probe, root.Probe)
	}

	// \metrics renders the registry the run just populated.
	var mbuf bytes.Buffer
	sh.out = &mbuf
	sh.metrics()
	for _, frag := range []string{"tdb_queries_total 1", "tdb_db_relations"} {
		if !strings.Contains(mbuf.String(), frag) {
			t.Errorf("\\metrics output missing %q:\n%s", frag, mbuf.String())
		}
	}

	// The HTTP endpoint serves the same registry plus expvar and pprof.
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	prom := get("/metrics")
	for _, frag := range []string{
		"# TYPE tdb_query_duration_seconds histogram",
		"tdb_queries_total 1",
		"tdb_db_relations",
	} {
		if !strings.Contains(prom, frag) {
			t.Errorf("/metrics missing %q", frag)
		}
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "profile") {
		t.Errorf("/debug/pprof/ index unexpected:\n%.200s", idx)
	}
}

// TestShellLiveSubscribe drives the full live loop through the shell:
// subscribe a standing query, \append tuples, \deltas, \verify, \live,
// \flush — and check an unbounded subscribe degrades with an explain note.
func TestShellLiveSubscribe(t *testing.T) {
	db := engine.NewDB()
	db.MustRegister(relation.New("F", workload.FacultySchema))
	db.MustRegister(relation.New("G", workload.FacultySchema))
	var buf bytes.Buffer
	sh := &shell{db: db, explain: false, streams: true, out: &buf, reg: obs.NewRegistry()}

	err := sh.runStatements(`
range of f is F
range of g is G
subscribe watch (Name=f.Name) where (f overlap g)
`)
	if err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "subscribed watch: incremental") {
		t.Fatalf("subscribe output: %s", out)
	}

	buf.Reset()
	sh.appendRow(`F alice,Assistant,1,10`)
	sh.appendRow(`G bob,Full,2,8`)
	sh.appendRow(`F carol,Full,20,30`)
	if out := buf.String(); !strings.Contains(out, "appended to F") || !strings.Contains(out, "appended to G") {
		t.Fatalf("append output: %s", out)
	}

	buf.Reset()
	sh.pollDeltas("watch")
	if out := buf.String(); !strings.Contains(out, "alice") {
		t.Fatalf("deltas output missing the overlap match: %s", out)
	}
	buf.Reset()
	sh.verifyStanding("watch")
	if out := buf.String(); !strings.Contains(out, "verify watch: OK") {
		t.Fatalf("verify output: %s", out)
	}
	buf.Reset()
	sh.liveStatus()
	out := buf.String()
	if !strings.Contains(out, "table F:") || !strings.Contains(out, "query watch:") {
		t.Fatalf("live status: %s", out)
	}
	buf.Reset()
	sh.flushLive()
	if out := buf.String(); !strings.Contains(out, "buffered 0") {
		t.Fatalf("flush output: %s", out)
	}

	// An unbounded characterization degrades with an explain note.
	buf.Reset()
	if err := sh.runStatements("range of f is F\nrange of g is G\nsubscribe late (Name=f.Name) where (f before g)"); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "subscribed late: batch · degraded") {
		t.Fatalf("degrade output: %s", out)
	}

	// Errors surfaced, not fatal: bad relation, bad arity, bad query name.
	buf.Reset()
	sh.appendRow(`Nope 1,2,3,4`)
	sh.appendRow(`F onlyone`)
	sh.pollDeltas("missing")
	sh.verifyStanding("missing")
	out = buf.String()
	for _, frag := range []string{"append: ", "no standing query"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("error handling output missing %q: %s", frag, out)
		}
	}
}
