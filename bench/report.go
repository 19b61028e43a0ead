package main

import (
	"fmt"
	"math"
	"strings"
)

// verdict of one metric on one workload when two documents are compared.
const (
	unchanged  = "unchanged"
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved" // the run-to-run spread is wider than the bound: the pair decides nothing
	disagrees  = "disagrees"
)

// pair is one metric × workload row of an agreement or a comparison.
type pair struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Diff is (B-A)/A.
	Diff    float64 `json:"diff"`
	Bound   float64 `json:"bound"`
	Verdict string  `json:"verdict"`
}

// bounded lists the metrics of a workload that carry a bound: the generic
// end-to-end set and the workload's scoped end-to-end metrics.
func bounded(workload string) []metricSpec {
	out := append([]metricSpec(nil), endToEnd...)
	for _, m := range scoped {
		if m.bound > 0 && m.appliesTo(workload) {
			out = append(out, m)
		}
	}
	return out
}

// valueOf finds a metric in whichever section of the result carries it.
func valueOf(r *workloadResult, name string) (float64, bool) {
	if v, ok := r.EndToEnd[name]; ok {
		return v.Value, true
	}
	v, ok := r.PerLayer[name]
	return v.Value, ok
}

func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

type agreement struct {
	OK    bool   `json:"ok"`
	Meta  meta   `json:"meta"`
	Pairs []pair `json:"pairs"`
	// Counts lists the exact program counts of both sets; they must be equal.
	Counts []pair `json:"counts"`
	text   string
}

// agree compares two runs of the full set on one commit. Every bounded
// metric must repeat within its bound, and every exact count exactly.
func agree(a, b *document) *agreement {
	ag := &agreement{OK: true, Meta: a.Meta}
	w := &strings.Builder{}
	fmt.Fprintf(w, "\n== agreement: set A vs set B ==\n")
	fmt.Fprintf(w, "  %-16s %-24s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "")
	for _, ra := range a.Workloads {
		rb := b.find(ra.Workload)
		if rb == nil {
			continue
		}
		for _, spec := range bounded(ra.Workload) {
			va, oka := valueOf(ra, spec.name)
			vb, okb := valueOf(rb, spec.name)
			if !oka || !okb {
				continue
			}
			p := pair{Workload: ra.Workload, Metric: spec.name, Unit: spec.unit, A: va, B: vb,
				Diff: relDiff(va, vb), Bound: spec.bound, Verdict: unchanged}
			if math.Abs(p.Diff) > spec.bound {
				p.Verdict = disagrees
				// setup_s is timed three times a run and promised only
				// loosely; it is reported but does not fail the agreement.
				if spec.name != "setup_s" {
					ag.OK = false
				}
			}
			ag.Pairs = append(ag.Pairs, p)
			fmt.Fprintf(w, "  %-16s %-24s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				p.Workload, p.Metric, p.A, p.B, 100*p.Diff, 100*p.Bound, mark(p.Verdict))
		}
		for _, name := range exactCounts {
			spec := findMetric(name)
			if spec == nil || !spec.appliesTo(ra.Workload) {
				continue
			}
			va, oka := valueOf(ra, name)
			vb, okb := valueOf(rb, name)
			if !oka || !okb {
				continue
			}
			p := pair{Workload: ra.Workload, Metric: name, Unit: spec.unit, A: va, B: vb, Diff: relDiff(va, vb), Verdict: unchanged}
			if va != vb {
				p.Verdict = disagrees
				ag.OK = false
			}
			ag.Counts = append(ag.Counts, p)
			fmt.Fprintf(w, "  %-16s %-24s %14.0f %14.0f %8s %6s  %s\n", p.Workload, p.Metric, p.A, p.B, "", "exact", mark(p.Verdict))
		}
	}
	if ag.OK {
		fmt.Fprintf(w, "  agreement: every bounded metric within its bound, every exact count equal\n")
	} else {
		fmt.Fprintf(w, "  agreement: FAILED\n")
	}
	ag.text = w.String()
	return ag
}

func mark(verdict string) string {
	if verdict == unchanged {
		return ""
	}
	return "<- " + verdict
}

// comparable refuses to compare documents measured under different
// conditions: a different machine shape, seed, scale or workload size
// makes the numbers answers to different questions.
func comparable(older, newer *document) error {
	a, b := older.Meta, newer.Meta
	switch {
	case a.NProc != b.NProc:
		return fmt.Errorf("nproc differs: %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Seed != b.Seed:
		return fmt.Errorf("seed differs: %d vs %d", a.Seed, b.Seed)
	case a.Scale != b.Scale:
		return fmt.Errorf("scale differs: %s vs %s", a.Scale, b.Scale)
	case a.Seconds != b.Seconds:
		return fmt.Errorf("pass length differs: %g s vs %g s", a.Seconds, b.Seconds)
	}
	for _, ra := range older.Workloads {
		rb := newer.find(ra.Workload)
		if rb == nil {
			continue
		}
		for k, v := range ra.Sizes {
			if rb.Sizes[k] != v {
				return fmt.Errorf("%s: size %s differs: %d vs %d", ra.Workload, k, v, rb.Sizes[k])
			}
		}
		if len(ra.Sizes) != len(rb.Sizes) {
			return fmt.Errorf("%s: the two documents record different sizes", ra.Workload)
		}
	}
	return nil
}

// compare judges a newer document against an older one, metric by metric.
// A metric whose within-run spread exceeds its bound, on either side, is
// unresolved: the pair cannot show it unchanged.
func compare(older, newer *document) (string, bool, error) {
	if err := comparable(older, newer); err != nil {
		return "", false, fmt.Errorf("refusing to compare: %w", err)
	}
	w := &strings.Builder{}
	anyRegressed := false
	fmt.Fprintf(w, "compare: %s (older) vs %s (newer)\n", older.Meta.GitSHA, newer.Meta.GitSHA)
	fmt.Fprintf(w, "  %-16s %-24s %14s %14s %8s %6s  %s\n", "workload", "metric", "older", "newer", "diff", "bound", "verdict")
	for _, ra := range older.Workloads {
		rb := newer.find(ra.Workload)
		if rb == nil {
			fmt.Fprintf(w, "  %-16s missing from the newer document\n", ra.Workload)
			continue
		}
		for _, spec := range bounded(ra.Workload) {
			va, oka := valueOf(ra, spec.name)
			vb, okb := valueOf(rb, spec.name)
			if !oka || !okb {
				continue
			}
			v := judge(spec, va, vb, math.Max(ra.Spread[spec.name], rb.Spread[spec.name]))
			if v == regressed {
				anyRegressed = true
			}
			fmt.Fprintf(w, "  %-16s %-24s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				ra.Workload, spec.name, va, vb, 100*relDiff(va, vb), 100*spec.bound, v)
		}
		if rb.Failed > ra.Failed {
			anyRegressed = true
			fmt.Fprintf(w, "  %-16s %-24s %14d %14d %22s  %s\n", ra.Workload, "failed operations", ra.Failed, rb.Failed, "", regressed)
		}
	}
	return w.String(), anyRegressed, nil
}

// judge gives one metric's verdict. worse is the share by which the newer
// value is worse, in the metric's own direction.
func judge(spec metricSpec, older, newer, spread float64) string {
	worse := relDiff(older, newer)
	if spec.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > spec.bound:
		return regressed
	case spread > spec.bound:
		return unresolved
	case worse < -spec.bound:
		return improved
	}
	return unchanged
}

func compareFiles(olderPath, newerPath string) (string, bool, error) {
	older, err := readDocument(olderPath)
	if err != nil {
		return "", false, err
	}
	newer, err := readDocument(newerPath)
	if err != nil {
		return "", false, err
	}
	return compare(older, newer)
}
