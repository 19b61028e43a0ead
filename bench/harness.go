package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Load shape shared by every workload: a closed loop (each caller waits
// for its reply before sending the next request), at most nproc generator
// goroutines or connections at a time, inputs generated from the seed
// only. A timed pass is made of whole rounds; a round holds a fixed number
// of operations, so the program's own counts repeat exactly from round to
// round and run to run, while the number of rounds follows -seconds.
const (
	minRounds = 2 // two rounds let every pass check that counts repeat
	// Set-up is timed at least minSetupReps times, and on up to maxSetupReps
	// while the set-ups so far took under setupBudget: a 0.1 s set-up (a
	// server start and four warm-up reads) scatters by a quarter from one to
	// the next, so its median needs more of them than a 1 s set-up's does.
	// setup_s is the median.
	minSetupReps = 3
	maxSetupReps = 9
	setupBudget  = 2.0 // seconds
)

// env is what one workload run is given.
type env struct {
	seed  int64
	tiny  bool
	tmp   string // scratch directory of this run, inside the checkout
	tally *tally
}

// tally counts operations attempted and operations that failed, were
// refused, or returned an output that does not match its reference.
type tally struct {
	attempted int
	failed    int
	notes     []string
}

// check counts one operation; ok false counts it as failed and keeps the
// first few explanations for the report.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 8 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// add counts operations a helper goroutine tallied on its own: attempted
// of them, one failure per note.
func (t *tally) add(attempted int, failures []string) {
	t.attempted += attempted
	t.failed += len(failures)
	for _, f := range failures {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, f)
		}
	}
}

// round is the rows moved in one round of a timed pass and the seconds
// they took. The two rates are timed apart because they can cover different
// calls: input rows over the calls that consume them, output rows over the
// calls that deliver them.
type round struct {
	rowsIn, inSec   float64
	rowsOut, outSec float64
}

// measurement is the outcome of one untraced timed pass.
type measurement struct {
	kinds      []string             // operation kinds, display order
	lat        map[string][]float64 // per kind: one latency (ms) per operation
	cuts       map[string][]int     // per kind: how many latencies each finished round had seen
	rounds     []round
	allocBytes uint64 // TotalAlloc delta over the pass's rounds
	ops        int
	scoped     map[string]float64   // workload-scoped end-to-end metrics
	samples    map[string]int       // sample count behind a metric
	series     map[string][]float64 // per-round values behind a scoped metric, for spread
	seconds    float64
}

func newMeasurement(kinds ...string) *measurement {
	return &measurement{kinds: kinds, lat: map[string][]float64{}, cuts: map[string][]int{},
		scoped: map[string]float64{}, samples: map[string]int{}, series: map[string][]float64{}}
}

func (m *measurement) add(kind string, ms float64) { m.lat[kind] = append(m.lat[kind], ms) }

// cut ends a round for the given kinds.
func (m *measurement) cut(kinds ...string) {
	for _, k := range kinds {
		m.cuts[k] = append(m.cuts[k], len(m.lat[k]))
	}
}

// roundMedians is a kind's median latency round by round: the series whose
// spread says how far one run's median can be trusted.
func (m *measurement) roundMedians(kind string) []float64 {
	var out []float64
	from := 0
	for _, to := range m.cuts[kind] {
		if to > from {
			out = append(out, median(m.lat[kind][from:to]))
		}
		from = to
	}
	return out
}

// kindMedians returns the median latency of every kind that has samples.
func (m *measurement) kindMedians() []float64 {
	var out []float64
	for _, k := range m.kinds {
		if len(m.lat[k]) > 0 {
			out = append(out, median(m.lat[k]))
		}
	}
	return out
}

// layerReport is the outcome of one traced pass.
type layerReport struct {
	values  map[string]float64
	budgets []budget
}

// workload is one of the five named workloads. setUp may be called on a
// fresh value several times per run (it is timed); everything after it
// runs once.
type runner interface {
	// setUp generates the inputs from the seed, builds the system under
	// test and runs one untimed warm-up pass over every operation kind.
	setUp(e *env) error
	// gate compares outputs with their references, untimed: columnar vs
	// row execution, wire vs embedded, standing deltas vs batch.
	gate(e *env)
	// measure runs the untraced timed pass for about d.
	measure(e *env, d time.Duration) *measurement
	// traced replays the pipeline layer by layer for about d, recording
	// spans, and derives the per-layer metrics. m is the untraced pass the
	// trace overhead is measured against.
	traced(e *env, d time.Duration, rec *recorder, m *measurement) *layerReport
	sizes() map[string]int
	tearDown() error
}

// forRounds calls fn for whole rounds until d has passed, and at least
// minRounds times.
func forRounds(d time.Duration, fn func(i int)) int {
	start := time.Now()
	n := 0
	for n < minRounds || time.Since(start) < d {
		fn(n)
		n++
	}
	return n
}

// timed runs fn after a collection, so a run inherits no heap debt from
// the one before it, and returns its wall time in seconds.
func timed(fn func()) float64 {
	runtime.GC()
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's part of a result document.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Sizes     map[string]int         `json:"sizes"`
	Samples   map[string]int         `json:"samples"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	// Spread is each end-to-end metric's inter-quartile distance across
	// the rounds of this run, as a share of its median.
	Spread   map[string]float64     `json:"spread,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Budgets  []budget               `json:"budgets,omitempty"`
	// MeasuredS is the wall time of the untraced timed pass.
	MeasuredS float64 `json:"measured_s"`
}

// passes selects which timed passes a run makes.
type passes int

const (
	untracedOnly passes = iota // the driver's --trace 0
	tracedOnly                 // the driver's --trace 1: a short untraced pass, then the traced one
	bothPasses                 // the full set
)

type runConfig struct {
	seed    int64
	seconds float64
	tiny    bool
	passes  passes
	outDir  string
}

// runWorkload sets the workload up, gates it, measures it and folds the
// outcome into a result. A set-up error is returned as an error: without
// a system under test there is nothing to count.
func runWorkload(spec *workloadSpec, cfg runConfig, log io.Writer) (*workloadResult, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(tmp) }() // scratch only; a leftover is harmless
	e := &env{seed: cfg.seed, tiny: cfg.tiny, tmp: tmp, tally: &tally{}}

	var w runner
	var setups []float64
	var spent float64
	for i := 0; i < minSetupReps || (i < maxSetupReps && spent < setupBudget); i++ {
		if cfg.tiny && i > 0 {
			break
		}
		if w != nil {
			if err := w.tearDown(); err != nil {
				return nil, fmt.Errorf("%s: tear down: %w", spec.name, err)
			}
		}
		w = spec.make()
		var serr error
		setups = append(setups, timed(func() { serr = w.setUp(e) }))
		spent += setups[len(setups)-1]
		if serr != nil {
			_ = w.tearDown() // the set-up error wins
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, serr)
		}
	}
	defer func() { _ = w.tearDown() }() // files live under tmp, removed above

	w.gate(e)

	d := time.Duration(cfg.seconds * float64(time.Second))
	res := &workloadResult{Workload: spec.name, Sizes: w.sizes(), Samples: map[string]int{}}
	var m *measurement
	switch cfg.passes {
	case tracedOnly:
		m = w.measure(e, d/3)
	default:
		m = w.measure(e, d)
	}
	res.MeasuredS = m.seconds
	res.EndToEnd, res.Spread = endToEndOf(m, median(setups))
	for k, n := range m.samples {
		res.Samples[k] = n
	}

	if cfg.passes != untracedOnly {
		td := d * 2 / 3
		if cfg.passes == bothPasses {
			td = d / 2
		}
		rec := newRecorder()
		rep := w.traced(e, td, rec, m)
		path := filepath.Join(cfg.outDir, "trace-"+spec.name+".jsonl")
		if err := rec.flush(path); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", spec.name, err)
		}
		res.Budgets = rep.budgets
		res.PerLayer = perLayerOf(spec.name, m, rep, e.tally)
	}

	res.Attempted, res.Failed, res.Notes = e.tally.attempted, e.tally.failed, e.tally.notes
	res.Correct = res.Failed == 0
	say(log, formatResult(res))
	return res, nil
}

// endToEndOf derives the driver-gated metrics from a timed pass.
//
//	query_ms_p50    geometric mean over operation kinds of each kind's
//	                median latency
//	rows_in_per_s   median over rounds of input rows / seconds consuming them
//	rows_out_per_s  median over rounds of output rows / seconds delivering them
//	alloc_kb_per_op TotalAlloc delta / operations
func endToEndOf(m *measurement, setupS float64) (map[string]metricValue, map[string]float64) {
	var in, out []float64
	for _, r := range m.rounds {
		in = append(in, r.rowsIn/r.inSec)
		out = append(out, r.rowsOut/r.outSec)
	}
	vals := map[string]float64{
		"query_ms_p50":   geomean(m.kindMedians()),
		"rows_in_per_s":  median(in),
		"rows_out_per_s": median(out),
		"setup_s":        setupS,
	}
	if m.ops > 0 { // a pass in which every operation failed has no per-operation figure
		vals["alloc_kb_per_op"] = float64(m.allocBytes) / 1024 / float64(m.ops)
	}
	e2e := map[string]metricValue{}
	for _, spec := range endToEnd {
		e2e[spec.name] = metricValue{Value: vals[spec.name], Unit: spec.unit}
	}
	spread := map[string]float64{
		"rows_in_per_s":  iqrShare(in),
		"rows_out_per_s": iqrShare(out),
	}
	var worst float64
	for _, k := range m.kinds {
		if s := iqrShare(m.roundMedians(k)); s > worst {
			worst = s
		}
	}
	spread["query_ms_p50"] = worst
	for name, xs := range m.series {
		spread[name] = iqrShare(xs)
	}
	return e2e, spread
}

// perLayerOf assembles every per-layer metric for a workload: the scoped
// end-to-end metrics and sample counts from the untraced pass, the layer
// ledger from the traced pass, and 0 for a metric that does not exist on
// this workload.
func perLayerOf(workload string, m *measurement, rep *layerReport, t *tally) map[string]metricValue {
	vals := map[string]float64{}
	for k, v := range m.scoped {
		vals[k] = v
	}
	for k, v := range rep.values {
		vals[k] = v
	}
	for k, n := range m.samples {
		vals["bench.samples."+k] = float64(n)
	}
	vals["bench.samples.rounds"] = float64(len(m.rounds))
	if t.attempted > 0 {
		vals["failed_share"] = float64(t.failed) / float64(t.attempted)
	}
	out := map[string]metricValue{}
	for _, spec := range perLayer() {
		v := 0.0
		if spec.appliesTo(workload) {
			v = vals[spec.name]
		}
		out[spec.name] = metricValue{Value: v, Unit: spec.unit}
	}
	return out
}

// say writes report text; a failed write to the report stream is not a
// benchmark failure.
func say(w io.Writer, text string) { _, _ = io.WriteString(w, text) }

func formatResult(r *workloadResult) string {
	w := &strings.Builder{}
	fmt.Fprintf(w, "\n== %s ==  attempted %d, failed %d, measured %.1f s\n", r.Workload, r.Attempted, r.Failed, r.MeasuredS)
	fmt.Fprintf(w, "  sizes:")
	for _, k := range sortedKeys(r.Sizes) {
		fmt.Fprintf(w, " %s=%d", k, r.Sizes[k])
	}
	fmt.Fprintln(w)
	for _, spec := range endToEnd {
		v := r.EndToEnd[spec.name]
		line := fmt.Sprintf("  %-32s %14.4f %-7s", spec.name, v.Value, v.Unit)
		if s, ok := r.Spread[spec.name]; ok && spec.name != "setup_s" {
			line += fmt.Sprintf("  spread %.1f %% of median, bound %.0f %%", 100*s, 100*spec.bound)
		}
		fmt.Fprintln(w, line)
	}
	if r.PerLayer != nil {
		for _, spec := range perLayer() {
			if !spec.appliesTo(r.Workload) {
				continue
			}
			v := r.PerLayer[spec.name]
			fmt.Fprintf(w, "  %-32s %14.4f %-7s\n", spec.name, v.Value, v.Unit)
		}
		for _, b := range r.Budgets {
			fmt.Fprint(w, b)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	return w.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
