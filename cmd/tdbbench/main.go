// Command tdbbench runs the full experiment suite of the reproduction —
// one harness per table and figure of the paper — and prints the report
// tables: Figure 2 (the thirteen relationships), Figure 3 (parse-tree
// optimization), Figure 4 (stream aggregation), Tables 1–3 (workspace vs.
// sort order for every temporal join and semijoin), Section 4.2.4 (the
// Before operators), Figure 8 / Section 5 (the Superstar query three
// ways), the Section 4.1 sort/workspace/passes tradeoff, the Section 6
// workspace-prediction sweep, and E25, the row-vs-columnar serial operator
// sweep (the batch-kernel speedup with byte-identical output).
//
// Usage:
//
//	tdbbench [-n 4000] [-faculty 200] [-seed 1] [-policy sweep|lambda]
//	         [-json results.json] [-listen 127.0.0.1:8080]
//	         [-record] [-history BENCH_HISTORY.jsonl]
//	         [-check] [-write-baseline] [-baseline BENCH_BASELINE.json]
//	         [-slowdown 0s]
//
// The human-readable tables always go to stdout; -json additionally writes
// the same tables (plus per-experiment wall time) as a machine-readable
// JSON document. -listen serves /metrics and /debug/pprof while the suite
// runs, so long benchmarks can be profiled live.
//
// The regression observatory rides on the same suite: -record appends a
// structured run record (git SHA, Go version, GOMAXPROCS, per-experiment
// wall times and row counts) to BENCH_HISTORY.jsonl; -write-baseline
// seeds BENCH_BASELINE.json from the run just taken; -check compares the
// run against the committed baseline with per-experiment noise
// thresholds (a generous slowdown ratio AND an absolute floor must both
// be exceeded) and exits non-zero on regression, which is what the CI
// bench gate runs. -slowdown injects a synthetic per-experiment delay so
// the gate itself can be tested: a slowed run must make -check fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"tdb/internal/core"
	"tdb/internal/experiments"
	"tdb/internal/obs"
	"tdb/internal/storage"
)

// benchResult is the -json document: the run configuration plus every
// experiment table with its wall time.
type benchResult struct {
	N       int          `json:"n"`
	Faculty int          `json:"faculty"`
	Seed    int64        `json:"seed"`
	Policy  string       `json:"policy"`
	Tables  []benchTable `json:"tables"`
}

type benchTable struct {
	Name      string     `json:"name"`
	Title     string     `json:"title"`
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedNS int64      `json:"elapsed_ns"`
}

func main() {
	n := flag.Int("n", 4000, "tuples per operand for the table experiments")
	faculty := flag.Int("faculty", 200, "faculty members for the Superstar experiments")
	seed := flag.Int64("seed", 1, "workload seed")
	policyName := flag.String("policy", "sweep", "stream read policy: sweep or lambda")
	jsonOut := flag.String("json", "", "also write machine-readable results to this file")
	listen := flag.String("listen", "", "serve /metrics and /debug/pprof on this address while running")
	record := flag.Bool("record", false, "append this run (git SHA, GOMAXPROCS, per-experiment times) to the history journal")
	historyPath := flag.String("history", "BENCH_HISTORY.jsonl", "where -record appends run records")
	check := flag.Bool("check", false, "compare this run against the baseline; exit non-zero on regression")
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline document for -check / -write-baseline")
	writeBase := flag.Bool("write-baseline", false, "write this run as the new baseline document")
	slowdown := flag.Duration("slowdown", 0, "add a synthetic per-experiment delay (CI uses this to prove -check trips)")
	flag.Parse()

	if *n < 1 {
		fail(fmt.Errorf("-n must be at least 1, got %d", *n))
	}
	if *faculty < 0 {
		fail(fmt.Errorf("-faculty must not be negative, got %d", *faculty))
	}

	policy, err := parsePolicy(*policyName)
	if err != nil {
		fail(err)
	}

	if *listen != "" {
		reg := obs.NewRegistry()
		storage.ObserveIO(reg)
		defer storage.ObserveIO(nil)
		srv, addr, err := obs.Serve(*listen, reg)
		if err != nil {
			fail(err)
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("metrics on http://%s/metrics (profiles /debug/pprof/)\n", addr)
	}

	dir, err := os.MkdirTemp("", "tdbbench")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	// The suite, in report order. Each entry produces one table; drop is
	// the structured result, which the CLI does not need.
	drop := func(_ any, tab *experiments.Table, err error) (*experiments.Table, error) {
		return tab, err
	}
	suite := []struct {
		name string
		run  func() (*experiments.Table, error)
	}{
		{"figure2", func() (*experiments.Table, error) { return experiments.Figure2(), nil }},
		{"figure3", func() (*experiments.Table, error) { return drop(experiments.Figure3(25, *seed)) }},
		{"figure4", func() (*experiments.Table, error) {
			_, tab := experiments.Figure4(100, 50, *seed)
			return tab, nil
		}},
		{"table1", func() (*experiments.Table, error) { return drop(experiments.Table1(*n, *seed, policy)) }},
		{"table2", func() (*experiments.Table, error) { return drop(experiments.Table2(*n, *seed, policy)) }},
		{"table3", func() (*experiments.Table, error) { return drop(experiments.Table3(*n, *seed)) }},
		{"before", func() (*experiments.Table, error) { return drop(experiments.Before(*n/2, *seed)) }},
		{"prefilter", func() (*experiments.Table, error) { return drop(experiments.Prefilter(*n, *seed)) }},
		{"superstar-continuous", func() (*experiments.Table, error) { return drop(experiments.Superstar(*faculty, *seed, true)) }},
		{"superstar-gaps", func() (*experiments.Table, error) { return drop(experiments.Superstar(*faculty, *seed, false)) }},
		{"scan-passes", func() (*experiments.Table, error) { return drop(experiments.ScanPasses(*faculty*2, *seed, dir)) }},
		{"tradeoffs", func() (*experiments.Table, error) {
			return drop(experiments.Tradeoffs([]int{*n / 16, *n / 4, *n}, 256, dir, *seed))
		}},
		{"statistics", func() (*experiments.Table, error) {
			return drop(experiments.Statistics(*n, []float64{0.1, 0.5, 1, 5, 10}, 12, *seed))
		}},
		{"cost-model", func() (*experiments.Table, error) {
			return drop(experiments.CostModel([]int{*n / 16, *n / 4, *n}, *seed))
		}},
		{"order-choice", func() (*experiments.Table, error) {
			return drop(experiments.OrderChoice(*n, []float64{2, 12, 60}, *seed))
		}},
		{"columnar", func() (*experiments.Table, error) { return drop(experiments.Columnar(*n, *seed)) }},
	}

	result := benchResult{N: *n, Faculty: *faculty, Seed: *seed, Policy: *policyName}
	for _, exp := range suite {
		start := time.Now()
		tab, err := exp.run()
		if err != nil {
			fail(err)
		}
		if *slowdown > 0 {
			time.Sleep(*slowdown)
		}
		fmt.Println(tab)
		result.Tables = append(result.Tables, benchTable{
			Name:      exp.name,
			Title:     tab.Title,
			Header:    tab.Header,
			Rows:      tab.Rows,
			Notes:     tab.Notes,
			ElapsedNS: time.Since(start).Nanoseconds(),
		})
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, &result); err != nil {
			fail(err)
		}
	}

	if *record || *check || *writeBase {
		rec := newRunRecord(&result, *faculty, *slowdown)
		ok, err := runRegression(rec, *record, *historyPath, *writeBase, *check, *baselinePath)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// parsePolicy maps the -policy flag to a stream read policy. Any other
// name is an error: the run would otherwise be recorded under a policy
// it never ran.
func parsePolicy(name string) (core.ReadPolicy, error) {
	switch name {
	case "sweep":
		return core.ReadSweep, nil
	case "lambda":
		return core.ReadLambda, nil
	}
	return 0, fmt.Errorf("-policy must be sweep or lambda, got %q", name)
}

// writeJSON writes the result document, indented for diffability.
func writeJSON(path string, result *benchResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(result); err != nil {
		_ = f.Close() // best-effort cleanup; the encode error wins
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tdbbench:", err)
	os.Exit(1)
}
