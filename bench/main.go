// Command bench is the repository's one benchmark: five named workloads,
// end-to-end metrics measured with the program's own tracing off, and a
// per-layer ledger timed from outside by a harness that calls each layer's
// exported functions and differences nested calls. README.md says why each
// workload exists and how to read the output; BENCHMARK.json at the
// repository root names the command, workloads, metrics and bounds.
//
//	go run ./bench                          every workload, both passes
//	go run ./bench -workload join_wide      one workload
//	go run ./bench -agree                   the full set twice, compared
//	go run ./bench -compare old.json        an earlier document vs bench/out/result.json
//
// With -workload and -trace 0 or 1 the last line of standard output is the
// driver's result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	outDir   string
	agree    bool
	compare  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input is derived from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of a timed pass; passes are whole rounds, at least two")
	fs.IntVar(&o.trace, "trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; default both")
	fs.StringVar(&o.scale, "scale", "full", "full, or tiny for the smoke test's sizes")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result.json, agreement.json, trace-<workload>.jsonl and scratch files")
	fs.BoolVar(&o.agree, "agree", false, "run the full set twice and require the two to agree within every bound")
	fs.StringVar(&o.compare, "compare", "", "compare this earlier result document with a newer one (next argument, default <out>/result.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		say(stderr, "bench: "+err.Error()+"\n")
		return 1
	}
	if o.scale != "full" && o.scale != "tiny" {
		return fail(fmt.Errorf("-scale %q: want full or tiny", o.scale))
	}
	if o.trace < -1 || o.trace > 1 || o.seconds < 0 {
		return fail(fmt.Errorf("-trace wants 0 or 1, -seconds a non-negative number"))
	}

	if o.compare != "" {
		newer := filepath.Join(o.outDir, "result.json")
		if fs.NArg() > 0 {
			newer = fs.Arg(0)
		}
		text, regressed, err := compareFiles(o.compare, newer)
		if err != nil {
			return fail(err)
		}
		say(stdout, text)
		if regressed {
			return 1
		}
		return 0
	}

	specs := workloadSpecs
	if o.workload != "" {
		spec := findWorkload(o.workload)
		if spec == nil {
			return fail(fmt.Errorf("unknown workload %q", o.workload))
		}
		specs = []workloadSpec{*spec}
	}

	if o.agree {
		a, err := runSet(specs, o, bothPasses, stdout)
		if err != nil {
			return fail(err)
		}
		b, err := runSet(specs, o, bothPasses, stdout)
		if err != nil {
			return fail(err)
		}
		ag := agree(a, b)
		say(stdout, ag.text)
		if err := writeJSON(filepath.Join(o.outDir, "agreement.json"), ag); err != nil {
			return fail(err)
		}
		if !ag.OK || !a.correct() || !b.correct() {
			return 1
		}
		return 0
	}

	p := bothPasses
	switch o.trace {
	case 0:
		p = untracedOnly
	case 1:
		p = tracedOnly
	}
	doc, err := runSet(specs, o, p, stdout)
	if err != nil {
		return fail(err)
	}
	if err := writeJSON(filepath.Join(o.outDir, "result.json"), doc); err != nil {
		return fail(err)
	}
	if o.workload != "" && o.trace >= 0 {
		line, err := driverLine(doc.Workloads[0], o.trace)
		if err != nil {
			return fail(err)
		}
		say(stdout, line)
	}
	if !doc.correct() {
		return 1
	}
	return 0
}

// meta is the part of a result document that decides whether two
// documents may be compared at all.
type meta struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
}

type document struct {
	Meta      meta              `json:"meta"`
	Workloads []*workloadResult `json:"workloads"`
}

func (d *document) correct() bool {
	for _, w := range d.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (d *document) find(workload string) *workloadResult {
	for _, w := range d.Workloads {
		if w.Workload == workload {
			return w
		}
	}
	return nil
}

// gitSHA is the revision the binary was built from, as the go tool stamped
// it; a checkout that is not a git work tree has none.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func runSet(specs []workloadSpec, o options, p passes, log io.Writer) (*document, error) {
	doc := &document{Meta: meta{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: gitSHA(), Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
	}}
	say(log, fmt.Sprintf("bench: nproc %d, GOMAXPROCS %d, %s, git %s, seed %d, %.0f s per pass, scale %s\n",
		doc.Meta.NProc, doc.Meta.GOMAXPROCS, doc.Meta.GoVersion, doc.Meta.GitSHA, o.seed, o.seconds, o.scale))
	for i := range specs {
		res, err := runWorkload(&specs[i], runConfig{
			seed: o.seed, seconds: o.seconds, tiny: o.scale == "tiny", passes: p, outDir: o.outDir,
		}, log)
		if err != nil {
			return nil, err
		}
		doc.Workloads = append(doc.Workloads, res)
	}
	return doc, nil
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output: every end-to-end metric with --trace 0, every per-layer
// metric with --trace 1.
func driverLine(r *workloadResult, trace int) (string, error) {
	metrics := r.EndToEnd
	if trace == 1 {
		metrics = r.PerLayer
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, attempted, r.Failed, metrics})
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
