package main

// The benchmark's vocabulary: five workloads and the metrics they report.
// BENCHMARK.json at the repository root repeats the names, units,
// directions and bounds below for the driver; the smoke test holds the two
// to each other.

type workloadSpec struct {
	name string
	why  string
	make func() runner
}

var workloadSpecs = []workloadSpec{
	{"join_wide", "output-dominated joins (~350k-400k rows per query): materialize carries the time, a sweep-kernel gain barely registers", newJoinWide},
	{"semijoin_narrow", "output-light semijoins and the Superstar quel pipeline: sort and sweep carry the time, materialize almost none", newSemijoinNarrow},
	{"stored_spill", "heap-file inputs larger than the buffer pool and the sort workspace: storage scan and external-sort passes carry the time", newStoredSpill},
	{"server_mixed", "point and wide reads beside appends over TCP through the database/sql driver: per-request overhead vs per-row encode/decode, reads vs writes", newServerMixed},
	{"live_ingest", "standing queries stepped per append micro-batch at small (lambda 0.5) and large (lambda 10) operator state", newLiveIngest},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloadSpecs {
		if workloadSpecs[i].name == name {
			return &workloadSpecs[i]
		}
	}
	return nil
}

type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the reference median the metric may worsen by; 0 = informational
	// on lists the workloads the metric is measured on; nil means all.
	// Elsewhere a per-layer metric reads 0.
	on []string
}

func (m metricSpec) appliesTo(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	embedded = []string{"join_wide", "semijoin_narrow", "stored_spill"}
	inMemory = []string{"join_wide", "semijoin_narrow"}
	onServer = []string{"server_mixed"}
	liveOnly = []string{"live_ingest"}
	stored   = []string{"stored_spill"}
)

// endToEnd are the metrics every workload reports and the driver gates.
// Each has one meaning per workload (see README.md, "What an operation
// is"): the driver requires every workload to report every end-to-end
// metric, so the set is the part of the ledger that is defined everywhere.
var endToEnd = []metricSpec{
	{name: "query_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "rows_in_per_s", unit: "rows/s", better: "higher", bound: 0.25},
	{name: "rows_out_per_s", unit: "rows/s", better: "higher", bound: 0.25},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.18},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// scoped are the end-to-end metrics that exist on one workload only. The
// driver's schema has no place for a bound on them (they sit in its
// per-layer list), so -agree and -compare enforce the bounds below. Like
// the driver-gated timings they sit at the cap: see README.md, "Agreement,
// bounds, and this box".
var scoped = []metricSpec{
	{name: "point_ms_p50", unit: "ms", better: "lower", bound: 0.25, on: onServer},
	{name: "wide_ms_p50", unit: "ms", better: "lower", bound: 0.25, on: onServer},
	{name: "append_ms_p50", unit: "ms", better: "lower", bound: 0.25, on: onServer},
	{name: "delta_ms_p50", unit: "ms", better: "lower", bound: 0.25, on: onServer},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, on: onServer},
	{name: "ingest_lo_rows_per_s", unit: "rows/s", better: "higher", bound: 0.25, on: liveOnly},
	{name: "ingest_hi_rows_per_s", unit: "rows/s", better: "higher", bound: 0.25, on: liveOnly},
	{name: "failed_share", unit: "ratio", better: "lower"},
}

// layers are the per-layer metrics, computed from the traced pass.
var layers = []metricSpec{
	{name: "quel.parse_us", unit: "us", better: "lower", on: []string{"semijoin_narrow", "server_mixed"}},
	{name: "quel.translate_us", unit: "us", better: "lower", on: []string{"semijoin_narrow", "server_mixed"}},
	{name: "optimizer.optimize_us", unit: "us", better: "lower", on: []string{"semijoin_narrow", "server_mixed"}},
	{name: "relation.sort_ms", unit: "ms", better: "lower", on: inMemory},
	{name: "relation.shred_ms", unit: "ms", better: "lower", on: embedded},
	{name: "core.sweep_ms", unit: "ms", better: "lower", on: embedded},
	{name: "core.sweep_pairs", unit: "count", better: "lower", on: embedded},
	{name: "core.sweep_ns_per_input", unit: "ns", better: "lower", on: embedded},
	{name: "relation.materialize_ms", unit: "ms", better: "lower", on: embedded},
	{name: "relation.materialize_alloc_kb", unit: "KiB", better: "lower", on: embedded},
	{name: "engine.run_ms", unit: "ms", better: "lower", on: embedded},
	{name: "engine.residual_ms", unit: "ms", better: "lower", on: embedded},
	{name: "engine.alloc_kb_per_run", unit: "KiB", better: "lower", on: embedded},
	{name: "engine.mallocs_per_run", unit: "count", better: "lower", on: embedded},
	{name: "engine.comparisons", unit: "count", better: "lower", on: embedded},
	{name: "engine.tuples_read", unit: "count", better: "lower", on: embedded},
	{name: "engine.workspace_max", unit: "count", better: "lower", on: embedded},
	{name: "engine.sorted_rows", unit: "count", better: "lower", on: embedded},
	{name: "engine.par_run_ms", unit: "ms", better: "lower", on: inMemory},
	{name: "engine.par_ratio", unit: "ratio", better: "higher", on: inMemory},
	{name: "partition.split_ms", unit: "ms", better: "lower", on: inMemory},
	{name: "partition.replication", unit: "ratio", better: "lower", on: inMemory},
	{name: "storage.scan_ms", unit: "ms", better: "lower", on: stored},
	{name: "storage.extsort_ms", unit: "ms", better: "lower", on: stored},
	{name: "storage.pages_read", unit: "count", better: "lower", on: stored},
	{name: "storage.pages_written", unit: "count", better: "lower", on: stored},
	{name: "storage.pool_hit_ratio", unit: "ratio", better: "higher", on: stored},
	{name: "server.raw_ms_point", unit: "ms", better: "lower", on: onServer},
	{name: "server.raw_ms_wide", unit: "ms", better: "lower", on: onServer},
	{name: "server.overhead_ms_point", unit: "ms", better: "lower", on: onServer},
	{name: "server.overhead_ms_wide", unit: "ms", better: "lower", on: onServer},
	{name: "server.resp_bytes_per_row", unit: "bytes", better: "lower", on: onServer},
	{name: "server.admitted", unit: "count", better: "higher", on: onServer},
	{name: "server.rejected", unit: "count", better: "lower", on: onServer},
	{name: "driver.decode_ms_wide", unit: "ms", better: "lower", on: onServer},
	{name: "driver.decode_ms_point", unit: "ms", better: "lower", on: onServer},
	{name: "driver.retries", unit: "count", better: "lower", on: onServer},
	{name: "live.append_us_lo", unit: "us", better: "lower", on: liveOnly},
	{name: "live.append_us_hi", unit: "us", better: "lower", on: liveOnly},
	{name: "live.poll_us_lo", unit: "us", better: "lower", on: liveOnly},
	{name: "live.poll_us_hi", unit: "us", better: "lower", on: liveOnly},
	{name: "live.flush_ms_lo", unit: "ms", better: "lower", on: liveOnly},
	{name: "live.flush_ms_hi", unit: "ms", better: "lower", on: liveOnly},
	{name: "live.step_share_lo", unit: "ratio", better: "lower", on: liveOnly},
	{name: "live.step_share_hi", unit: "ratio", better: "lower", on: liveOnly},
	{name: "live.deltas_lo", unit: "count", better: "lower", on: liveOnly},
	{name: "live.deltas_hi", unit: "count", better: "lower", on: liveOnly},
	{name: "live.workspace_max_lo", unit: "count", better: "lower", on: liveOnly},
	{name: "live.workspace_max_hi", unit: "count", better: "lower", on: liveOnly},
	{name: "live.bound_lo", unit: "count", better: "lower", on: liveOnly},
	{name: "live.bound_hi", unit: "count", better: "lower", on: liveOnly},
	{name: "live.rejected_late", unit: "count", better: "lower", on: liveOnly},
	{name: "live.mode.semijoin-contain", unit: "count", better: "higher", on: liveOnly},
	{name: "live.mode.join-overlap", unit: "count", better: "higher", on: liveOnly},
	{name: "live.mode.semijoin-before", unit: "count", better: "higher", on: liveOnly},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.tail.query_ms_p90", unit: "ms", better: "lower", on: embedded},
	{name: "bench.tail.point_ms_p99", unit: "ms", better: "lower", on: onServer},
	{name: "bench.tail.wide_ms_p90", unit: "ms", better: "lower", on: onServer},
	{name: "bench.tail.append_ms_p99", unit: "ms", better: "lower", on: onServer},
	{name: "bench.tail.delta_ms_p90", unit: "ms", better: "lower", on: onServer},
	{name: "bench.samples.query_ms_p50", unit: "count", better: "higher"},
	{name: "bench.samples.rounds", unit: "count", better: "higher"},
	{name: "bench.samples.point_ms_p50", unit: "count", better: "higher", on: onServer},
	{name: "bench.samples.wide_ms_p50", unit: "count", better: "higher", on: onServer},
	{name: "bench.samples.append_ms_p50", unit: "count", better: "higher", on: onServer},
	{name: "bench.samples.delta_ms_p50", unit: "count", better: "higher", on: onServer},
	{name: "bench.samples.ops_per_s", unit: "count", better: "higher", on: onServer},
	{name: "bench.samples.ingest_lo_rows_per_s", unit: "count", better: "higher", on: liveOnly},
	{name: "bench.samples.ingest_hi_rows_per_s", unit: "count", better: "higher", on: liveOnly},
}

// exactCounts are the program counts that must repeat exactly between two
// runs of one commit: they come from serial phases only.
var exactCounts = []string{
	"core.sweep_pairs", "engine.comparisons", "engine.tuples_read", "engine.sorted_rows",
	"engine.workspace_max", "storage.pages_read", "storage.pages_written",
	"live.deltas_lo", "live.deltas_hi", "live.workspace_max_lo", "live.workspace_max_hi",
}

// perLayer is what BENCHMARK.json lists under per_layer: the scoped
// end-to-end metrics followed by the layer ledger.
func perLayer() []metricSpec {
	return append(append([]metricSpec(nil), scoped...), layers...)
}

func findMetric(name string) *metricSpec {
	for _, list := range [][]metricSpec{endToEnd, scoped, layers} {
		for i := range list {
			if list[i].name == name {
				return &list[i]
			}
		}
	}
	return nil
}
