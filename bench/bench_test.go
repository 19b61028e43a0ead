package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the driver's schema of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json and spec.go to each
// other and to the driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloadSpecs))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloadSpecs[i].name || w.Why != workloadSpecs[i].why {
			t.Errorf("workload %d: %q / %q, spec.go has %q / %q", i, w.Name, w.Why, workloadSpecs[i].name, workloadSpecs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		unique(m.Name)
		s := endToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end_to_end %d: %+v, spec.go has %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q, bound %g", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	spec := perLayer()
	if len(b.PerLayer) != len(spec) || len(spec) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(b.PerLayer), len(spec))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		if m.Name != spec[i].name || m.Unit != spec[i].unit || m.Better != spec[i].better {
			t.Errorf("per_layer %d: %+v, spec.go has %+v", i, m, spec[i])
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %s: unit %q", m.Name, m.Unit)
		}
	}
	for _, name := range exactCounts {
		if findMetric(name) == nil {
			t.Errorf("exact count %q is not a metric", name)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

func tinyRun(t *testing.T, spec *workloadSpec) *workloadResult {
	t.Helper()
	res, err := runWorkload(spec, runConfig{seed: 1, seconds: 0, tiny: true, passes: bothPasses, outDir: t.TempDir()}, &bytes.Buffer{})
	if err != nil {
		t.Fatalf("%s: %v", spec.name, err)
	}
	return res
}

// TestSmoke runs every workload twice at the tiny scale and checks what the
// benchmark promises: no failed operation, every metric of BENCHMARK.json
// emitted exactly once with its unit, and exact counts that repeat.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for i := range workloadSpecs {
		spec := &workloadSpecs[i]
		t.Run(spec.name, func(t *testing.T) {
			first, second := tinyRun(t, spec), tinyRun(t, spec)
			for _, r := range []*workloadResult{first, second} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Notes)
				}
			}
			for trace, want := range [][]string{namesOf(b, 0), namesOf(b, 1)} {
				line, err := driverLine(first, trace)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool                  `json:"correct"`
					Attempted *int                   `json:"attempted"`
					Failed    *int                   `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("trace %d: %v in %s", trace, err, line)
				}
				if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
					t.Fatalf("trace %d: result line lacks a key: %s", trace, line)
				}
				if strings.Count(line, "\n") != 1 {
					t.Errorf("trace %d: the result is not one line", trace)
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("trace %d: %d metrics emitted, BENCHMARK.json lists %d", trace, len(got.Metrics), len(want))
				}
				for _, name := range want {
					v, ok := got.Metrics[name]
					if !ok {
						t.Errorf("trace %d: metric %s not emitted", trace, name)
						continue
					}
					// encoding/json rejects a repeated key silently, so
					// count the key in the text: exactly once.
					if n := strings.Count(line, `"`+name+`":`); n != 1 {
						t.Errorf("trace %d: metric %s emitted %d times", trace, name, n)
					}
					if spec := findMetric(name); spec == nil || v.Unit != spec.unit {
						t.Errorf("trace %d: metric %s has unit %q", trace, name, v.Unit)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("trace %d: metric %s is %v", trace, name, v.Value)
					}
					if trace == 0 && v.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", name, v.Value)
					}
				}
			}
			for _, name := range exactCounts {
				if m := findMetric(name); !m.appliesTo(spec.name) {
					continue
				}
				a, b := first.PerLayer[name].Value, second.PerLayer[name].Value
				if a != b {
					t.Errorf("count %s differs between two runs: %v vs %v", name, a, b)
				}
			}
			if len(first.Budgets) == 0 {
				t.Error("the traced pass printed no stacked budget")
			}
		})
	}
}

func namesOf(b benchmarkJSON, trace int) []string {
	var out []string
	if trace == 0 {
		for _, m := range b.EndToEnd {
			out = append(out, m.Name)
		}
		return out
	}
	for _, m := range b.PerLayer {
		out = append(out, m.Name)
	}
	return out
}

// TestCorruptedHashIsAFailure: a result whose digest differs from its
// reference must count as a failed operation, in the timed pass (row count)
// and in the replay (hash).
func TestCorruptedHashIsAFailure(t *testing.T) {
	w := newJoinWide().(*batchWorkload)
	e := &env{seed: 1, tiny: true, tmp: t.TempDir(), tally: &tally{}}
	if err := w.setUp(e); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.tearDown(); err != nil {
			t.Error(err)
		}
	}()
	w.gate(e)
	if e.tally.failed != 0 {
		t.Fatalf("gate failed on healthy inputs: %v", e.tally.notes)
	}
	m := w.measure(e, 0)
	if e.tally.failed != 0 {
		t.Fatalf("measure failed on healthy inputs: %v", e.tally.notes)
	}

	w.queries[0].ref.sum ^= 1
	w.traced(e, 0, newRecorder(), m)
	if e.tally.failed == 0 {
		t.Error("a corrupted reference hash went unnoticed by the replay")
	}
	hashFailures := e.tally.failed
	w.queries[0].ref.sum ^= 1
	w.queries[1].ref.rows++
	w.measure(e, 0)
	if e.tally.failed == hashFailures {
		t.Error("a corrupted reference row count went unnoticed by the timed pass")
	}

	res := &workloadResult{Attempted: e.tally.attempted, Failed: e.tally.failed, Correct: false,
		EndToEnd: map[string]metricValue{}}
	line, err := driverLine(res, 0)
	if err != nil || !strings.Contains(line, `"correct":false`) {
		t.Errorf("driver line for a failed run: %q, %v", line, err)
	}
}

func TestResultHashSeesOrderAndCells(t *testing.T) {
	h := func(cells ...string) resultHash {
		x := newHasher()
		for _, c := range cells {
			if c == "|" {
				x.endRow()
				continue
			}
			x.str(c)
		}
		return x.result()
	}
	if h("a", "b", "|", "c", "|") == h("c", "|", "a", "b", "|") {
		t.Error("row order does not change the hash")
	}
	if h("ab", "c", "|") == h("a", "bc", "|") {
		t.Error("cell boundaries do not change the hash")
	}
	if h("a", "|", "b", "|") == h("a", "b", "|") {
		t.Error("row boundaries do not change the hash")
	}
}

// TestSelfTimes checks the span arithmetic on nested, abutting, overlapping
// and overhanging children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},               // root
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},    // child
		{ID: 3, Parent: 2, StartNS: 15, EndNS: 25},    // grandchild, nested
		{ID: 4, Parent: 1, StartNS: 40, EndNS: 60},    // abuts span 2
		{ID: 5, Parent: 1, StartNS: 50, EndNS: 70},    // overlaps span 4 (parallel shard)
		{ID: 6, Parent: 1, StartNS: 90, EndNS: 120},   // overhangs the parent's end
		{ID: 7, Parent: 0, StartNS: 200, EndNS: 230},  // a second root, no children
		{ID: 8, Parent: 7, StartNS: 205, EndNS: 205},  // zero-length child
		{ID: 9, Parent: 1, StartNS: 55, EndNS: 58},    // inside the overlap of 4 and 5
		{ID: 10, Parent: 5, StartNS: 50, EndNS: 70},   // covers its parent entirely
		{ID: 11, Parent: 10, StartNS: 60, EndNS: 65},  //
		{ID: 12, Parent: 10, StartNS: 62, EndNS: 68},  // overlaps span 11
		{ID: 13, Parent: 12, StartNS: 62, EndNS: 68},  //
		{ID: 14, Parent: 99, StartNS: 0, EndNS: 1000}, // orphan: charged to nobody present
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1:  100 - (30 + 20 + 10 + 10), // children cover [10,70) and [90,100)
		2:  30 - 10,
		3:  10,
		4:  20,
		5:  0,
		6:  30,
		7:  30,
		8:  0,
		9:  3,
		10: 20 - 8, // grandchildren cover [60,68)
		11: 5,
		12: 0,
		13: 6,
		14: 1000,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}

	costs := requestCosts([]span{
		{ID: 1, Request: 1, Layer: "engine", Name: "replay", StartNS: 0, EndNS: 100, AllocBytes: 1000},
		{ID: 2, Parent: 1, Request: 1, Layer: "core", Name: "sweep", StartNS: 20, EndNS: 50, AllocBytes: 300, Count: 7},
		{ID: 3, Parent: 1, Request: 1, Layer: "core", Name: "sweep", StartNS: 60, EndNS: 70, AllocBytes: 100, Count: 5},
	})
	if c := costs[1]["core.sweep"]; c.selfNS != 40 || c.allocBytes != 400 {
		t.Errorf("core.sweep folded to %+v", c)
	}
	if c := costs[1]["engine.replay"]; c.selfNS != 60 || c.allocBytes != 600 {
		t.Errorf("engine.replay folded to %+v", c)
	}
}

func TestStats(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean = %v", g)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := tailPercentile(xs, 90); p != 90 {
		t.Errorf("p90 of 1..100 = %v", p)
	}
	// p99 of 100 samples has one sample beyond it: lowered to the rank
	// with ten beyond.
	if p := tailPercentile(xs, 99); p != 90 {
		t.Errorf("p99 of 1..100 = %v, want the p90 it is lowered to", p)
	}
	if p := tailPercentile(xs[:19], 90); p != 0 {
		t.Errorf("a tail of 19 samples = %v, want 0", p)
	}
	if s := iqrShare([]float64{1, 2, 3, 4, 5}); math.Abs(s-2.0/3) > 1e-9 {
		t.Errorf("iqrShare = %v", s)
	}
}

func testDocument(queryMS, spread float64) *document {
	return &document{
		Meta: meta{NProc: 2, GOMAXPROCS: 2, Seed: 1, Seconds: 10, Scale: "full"},
		Workloads: []*workloadResult{{
			Workload: "join_wide", Correct: true, Attempted: 10,
			Sizes:    map[string]int{"n_per_side": 8000},
			EndToEnd: map[string]metricValue{"query_ms_p50": {Value: queryMS, Unit: "ms"}, "rows_in_per_s": {Value: 16e6 / queryMS, Unit: "rows/s"}},
			Spread:   map[string]float64{"query_ms_p50": spread},
			PerLayer: map[string]metricValue{"core.sweep_pairs": {Value: 700, Unit: "count"}},
		}},
	}
}

// TestCompare: documents measured under different conditions are refused;
// a wide spread makes a metric unresolved, never unchanged.
func TestCompare(t *testing.T) {
	base := testDocument(100, 0.02)
	for name, change := range map[string]func(*document){
		"nproc":      func(d *document) { d.Meta.NProc = 8 },
		"GOMAXPROCS": func(d *document) { d.Meta.GOMAXPROCS = 1 },
		"seed":       func(d *document) { d.Meta.Seed = 2 },
		"size":       func(d *document) { d.Workloads[0].Sizes["n_per_side"] = 4000 },
	} {
		other := testDocument(100, 0.02)
		change(other)
		if _, _, err := compare(base, other); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Errorf("%s differs: compare returned %v, want a refusal", name, err)
		}
	}

	verdictOf := func(newer *document) string {
		text, _, err := compare(base, newer)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, "query_ms_p50") {
				f := strings.Fields(line)
				return f[len(f)-1]
			}
		}
		t.Fatalf("no query_ms_p50 row in:\n%s", text)
		return ""
	}
	bound := findMetric("query_ms_p50").bound
	inside, outside := 100*(1+bound/3), 100*(1+1.5*bound)
	if v := verdictOf(testDocument(inside, 0.02)); v != unchanged {
		t.Errorf("a third of the bound worse with a 2 %% spread: %s", v)
	}
	if v := verdictOf(testDocument(inside, bound+0.05)); v != unresolved {
		t.Errorf("a third of the bound worse with a spread over the bound: %s, want unresolved", v)
	}
	if v := verdictOf(testDocument(outside, 0.02)); v != regressed {
		t.Errorf("1.5 bounds worse: %s", v)
	}
	if v := verdictOf(testDocument(100*(1-1.5*bound), 0.02)); v != improved {
		t.Errorf("1.5 bounds better: %s", v)
	}
	if _, bad, _ := compare(base, testDocument(outside, 0.02)); !bad {
		t.Error("a regression did not fail the comparison")
	}
}

func TestAgree(t *testing.T) {
	a := testDocument(100, 0.02)
	bound := findMetric("query_ms_p50").bound
	if ag := agree(a, testDocument(100*(1+bound/3), 0.02)); !ag.OK {
		t.Errorf("a third of the bound apart did not agree:\n%s", ag.text)
	}
	if ag := agree(a, testDocument(100*(1+1.5*bound), 0.02)); ag.OK {
		t.Error("1.5 bounds apart agreed")
	}
	b := testDocument(100, 0.02)
	b.Workloads[0].PerLayer["core.sweep_pairs"] = metricValue{Value: 701, Unit: "count"}
	if ag := agree(a, b); ag.OK {
		t.Error("an exact count that differs agreed")
	}
}

// TestCommandLine drives the command the way the driver does.
func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	out := t.TempDir()
	code := run([]string{"--workload", "semijoin_narrow", "--seed", "7", "--seconds", "0", "--trace", "0", "-scale", "tiny", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 {
		t.Errorf("result object has %d keys, want correct, attempted, failed, metrics", len(last))
	}
	doc, err := readDocument(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Meta.NProc < 1 || doc.Meta.GOMAXPROCS < 1 || doc.Meta.GoVersion == "" || doc.Meta.GitSHA == "" || doc.Meta.Seed != 7 {
		t.Errorf("run metadata incomplete: %+v", doc.Meta)
	}
	if len(doc.Workloads) != 1 || doc.Workloads[0].Samples["query_ms_p50"] == 0 || len(doc.Workloads[0].Sizes) == 0 {
		t.Errorf("result document lacks samples or sizes")
	}

	stdout.Reset()
	if code := run([]string{"-workload", "no_such"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	if code := run([]string{"-compare", filepath.Join(out, "result.json"), filepath.Join(out, "result.json")}, &stdout, &stderr); code != 0 {
		t.Errorf("comparing a document with itself exited %d: %s", code, stderr.String())
	}
}
