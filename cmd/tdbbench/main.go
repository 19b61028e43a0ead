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
//	         [-live] [-live-json BENCH_LIVE.json]
//	         [-chaos] [-chaos-json BENCH_CHAOS.json]
//	         [-serve] [-serve-json BENCH_SERVER.json] [-serve-queries 25]
//	         [-record] [-history BENCH_HISTORY.jsonl]
//	         [-check] [-write-baseline] [-baseline BENCH_BASELINE.json]
//	         [-slowdown 0s]
//
// -live additionally runs E23, the sustained live-ingest sweep: two tuple
// streams at λ ∈ {0.5, 2, 10} through the live manager with standing
// incremental and degraded-batch temporal queries, verifying the delta
// contract and the workspace admission ceiling, and writing the structured
// document to BENCH_LIVE.json (-live-json).
//
// -chaos additionally runs E24, the degradation sweep: the workspace
// governor under statistics drift (stream path vs governed baseline
// fallback) and the standing-query breaker ladder (re-admit, degrade to
// batch, typed decline). The structured document goes to BENCH_CHAOS.json
// (-chaos-json).
//
// -serve additionally runs E26, the concurrent network-client sweep: an
// in-process protocol server over a Faculty catalog queried by 1, 8 and
// 64 database/sql clients through the public driver (ad-hoc queries
// alternating with a shared prepared statement), reporting throughput,
// mean and p99 latency, and the server's per-tenant admission counters.
// The structured document goes to BENCH_SERVER.json (-serve-json).
//
// -resilience additionally runs E27, the wire-resilience recovery sweep:
// 1, 8 and 64 concurrent driver subscriptions fed synchronized delta
// rounds while the delivery path is severed on a fixed schedule and
// every keyed append is deliberately double-sent. It reports recovery
// latency (sever to resumed stream), the resume/sever and dedup/dup
// ledgers, and the client-side seq-violation count — all of which must
// balance for the point to pass. The structured document goes to
// BENCH_RESILIENCE.json (-resilience-json).
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
	liveRun := flag.Bool("live", false, "also run E23, the sustained live-ingest sweep, writing BENCH_LIVE.json")
	liveOut := flag.String("live-json", "BENCH_LIVE.json", "where -live writes its machine-readable document")
	chaosRun := flag.Bool("chaos", false, "also run E24, the fault/degradation sweep, writing BENCH_CHAOS.json")
	chaosOut := flag.String("chaos-json", "BENCH_CHAOS.json", "where -chaos writes its machine-readable document")
	serveRun := flag.Bool("serve", false, "also run E26, the concurrent network-client sweep, writing BENCH_SERVER.json")
	serveOut := flag.String("serve-json", "BENCH_SERVER.json", "where -serve writes its machine-readable document")
	serveClients := flag.Int("serve-queries", 25, "queries per client in the E26 sweep")
	resRun := flag.Bool("resilience", false, "also run E27, the wire-resilience recovery sweep, writing BENCH_RESILIENCE.json")
	resOut := flag.String("resilience-json", "BENCH_RESILIENCE.json", "where -resilience writes its machine-readable document")
	resRounds := flag.Int("resilience-rounds", 6, "delta rounds per point in the E27 sweep")
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

	policy := core.ReadSweep
	if *policyName == "lambda" {
		policy = core.ReadLambda
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

	if *liveRun {
		suite = append(suite, struct {
			name string
			run  func() (*experiments.Table, error)
		}{"live-ingest", func() (*experiments.Table, error) {
			res, tab, err := experiments.LiveIngest(*n/2, []float64{0.5, 2, 10}, 8, *seed)
			if err != nil {
				return nil, err
			}
			if err := writeLiveJSON(*liveOut, res); err != nil {
				return nil, err
			}
			fmt.Printf("live-ingest document written to %s\n", *liveOut)
			return tab, nil
		}})
	}

	if *chaosRun {
		suite = append(suite, struct {
			name string
			run  func() (*experiments.Table, error)
		}{"chaos", func() (*experiments.Table, error) {
			res, tab, err := experiments.Chaos()
			if err != nil {
				return nil, err
			}
			if err := writeChaosJSON(*chaosOut, res); err != nil {
				return nil, err
			}
			fmt.Printf("chaos document written to %s\n", *chaosOut)
			return tab, nil
		}})
	}

	if *serveRun {
		suite = append(suite, struct {
			name string
			run  func() (*experiments.Table, error)
		}{"server", func() (*experiments.Table, error) {
			res, tab, err := experiments.ServerSweep(*n/4, []int{1, 8, 64}, *serveClients, *seed)
			if err != nil {
				return nil, err
			}
			if err := writeServerJSON(*serveOut, res); err != nil {
				return nil, err
			}
			fmt.Printf("server document written to %s\n", *serveOut)
			return tab, nil
		}})
	}

	if *resRun {
		suite = append(suite, struct {
			name string
			run  func() (*experiments.Table, error)
		}{"resilience", func() (*experiments.Table, error) {
			res, tab, err := experiments.ResilienceSweep([]int{1, 8, 64}, *resRounds, 2, 5)
			if err != nil {
				return nil, err
			}
			if err := writeResilienceJSON(*resOut, res); err != nil {
				return nil, err
			}
			fmt.Printf("resilience document written to %s\n", *resOut)
			return tab, nil
		}})
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

// writeLiveJSON writes the E23 structured document (BENCH_LIVE.json).
func writeLiveJSON(path string, res *experiments.LiveResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		_ = f.Close() // best-effort cleanup; the encode error wins
		return err
	}
	return f.Close()
}

// writeChaosJSON writes the E24 structured document (BENCH_CHAOS.json).
func writeChaosJSON(path string, res *experiments.ChaosResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		_ = f.Close() // best-effort cleanup; the encode error wins
		return err
	}
	return f.Close()
}

// writeServerJSON writes the E26 structured document (BENCH_SERVER.json).
func writeServerJSON(path string, res *experiments.ServerResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		_ = f.Close() // best-effort cleanup; the encode error wins
		return err
	}
	return f.Close()
}

// writeResilienceJSON writes the E27 structured document
// (BENCH_RESILIENCE.json).
func writeResilienceJSON(path string, res *experiments.ResilienceResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		_ = f.Close() // best-effort cleanup; the encode error wins
		return err
	}
	return f.Close()
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
