package bench

// The metric catalogue: every name the harness may print, with its
// unit, which way is better, the layer it belongs to and the
// end-to-end metric it is predicted to move. BENCHMARK.json lists the
// end-to-end and per-layer entries; the smoke test keeps the two in
// step. Layers are the repo's modules, plus "load" and "trace" for the
// harness's own validity numbers.

// Workload names.
const (
	BatchResolve = "batch-resolve"
	ServeRead    = "serve-read"
	ServeMixed   = "serve-mixed"
	ClusterRead  = "cluster-read"
)

// Workloads lists the workloads in the order a full run executes them.
var Workloads = []string{BatchResolve, ServeRead, ServeMixed, ClusterRead}

// Kind says where a metric is reported.
type Kind int

const (
	// EndToEnd metrics are what a user of the system sees; every
	// workload's untraced run reports all of them, and each has a bound.
	EndToEnd Kind = iota
	// PerLayer metrics attribute time and work to one module; every
	// workload's traced run reports all of them.
	PerLayer
	// Diagnostic metrics exist only on some workloads (a live
	// follower's lag, the generator's lateness) or read the same on
	// every run; they are printed and kept in the results but are not
	// part of the BENCHMARK.json contract.
	Diagnostic
)

// MetricDef describes one metric.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Kind   Kind
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric this layer metric should move.
	Moves string
}

// Catalog lists every metric. The README's tables say per workload
// what each end-to-end metric measures and which layer rows move it.
var Catalog = []MetricDef{
	// End to end. "op" is the workload's own operation: one Resolve
	// pass (batch-resolve), one query (serve-read, cluster-read), one
	// upsert (serve-mixed). "query" is the read: the same samples as "op"
	// everywhere but on serve-mixed, where it is the query beside writes.
	{Name: "setup_s", Unit: "s", Better: "lower", Kind: EndToEnd, Bound: 0.25},
	{Name: "restart_s", Unit: "s", Better: "lower", Kind: EndToEnd, Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Kind: EndToEnd, Bound: 0.25},
	{Name: "op_p75_ms", Unit: "ms", Better: "lower", Kind: EndToEnd, Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Kind: EndToEnd, Bound: 0.25},
	{Name: "query_p75_ms", Unit: "ms", Better: "lower", Kind: EndToEnd, Bound: 0.25},
	{Name: "sat_ops_per_s", Unit: "1/s", Better: "higher", Kind: EndToEnd, Bound: 0.25},
	{Name: "recall", Unit: "share", Better: "higher", Kind: EndToEnd, Bound: 0.05},
	{Name: "precision", Unit: "share", Better: "higher", Kind: EndToEnd, Bound: 0.05},

	// Batch pipeline layers, from the staged pass.
	layer("looseschema.partition_s", "s", "lower", "op_p50_ms"),
	layer("blocking.token_blocking_s", "s", "lower", "op_p50_ms"),
	layer("blocking.purge_filter_s", "s", "lower", "op_p50_ms"),
	layer("blocking.build_index_s", "s", "lower", "op_p50_ms"),
	layer("blocking.blocks_raw", "count", "lower", "op_p50_ms"),
	layer("blocking.blocks_filtered", "count", "lower", "op_p50_ms"),
	layer("metablocking.run_s", "s", "lower", "op_p50_ms"),
	layer("metablocking.edges_retained", "count", "lower", "op_p50_ms"),
	layer("metablocking.pc", "share", "higher", "recall"),
	layer("metablocking.pq", "share", "higher", "precision"),
	layer("matching.match_s", "s", "lower", "op_p50_ms"),
	layer("matching.pairs_scored", "count", "lower", "op_p50_ms"),
	layer("matching.ns_per_pair", "ns", "lower", "op_p50_ms"),
	layer("matching.matches", "count", "higher", "recall"),
	layer("clustering.cluster_s", "s", "lower", "op_p50_ms"),
	layer("clustering.entities", "count", "higher", "recall"),
	layer("dataflow.token_blocking_s", "s", "lower", "sat_ops_per_s"),
	layer("dataflow.metablocking_s", "s", "lower", "sat_ops_per_s"),
	layer("dataflow.matching_s", "s", "lower", "sat_ops_per_s"),
	layer("dataflow.clustering_s", "s", "lower", "sat_ops_per_s"),
	layer("dataflow.tasks", "count", "lower", "sat_ops_per_s"),
	layer("dataflow.shuffle_records", "count", "lower", "sat_ops_per_s"),

	// Online index: from the live servers' own /metrics on the workloads
	// that exercise the row, from the in-process probe elsewhere.
	layer("index.build_s", "s", "lower", "setup_s"),
	layer("index.query.tokenize_us", "us", "lower", "query_p50_ms"),
	layer("index.query.purge_filter_us", "us", "lower", "query_p50_ms"),
	layer("index.query.candidates_us", "us", "lower", "query_p50_ms"),
	layer("index.query.weigh_us", "us", "lower", "query_p50_ms"),
	layer("index.query.prune_us", "us", "lower", "query_p50_ms"),
	layer("index.query.score_us", "us", "lower", "query_p50_ms"),
	layer("index.query.total_us", "us", "lower", "query_p50_ms"),
	layer("index.query.postings_scanned", "count", "lower", "query_p50_ms"),
	layer("index.query.comparisons", "count", "lower", "query_p50_ms"),
	layer("index.query.postings_per_comparison", "count", "lower", "query_p50_ms"),
	layer("index.query.allocs", "count", "lower", "sat_ops_per_s"),
	layer("index.query.bytes", "B", "lower", "sat_ops_per_s"),
	layer("index.recall_at_c1", "share", "higher", "recall"),
	layer("index.upsert_us", "us", "lower", "op_p50_ms"),
	layer("index.upsert.allocs", "count", "lower", "sat_ops_per_s"),
	layer("index.wal.append_us", "us", "lower", "op_p50_ms"),
	layer("index.wal.bytes_per_op", "B", "lower", "op_p50_ms"),
	layer("index.wal.syncs", "count", "lower", "op_p75_ms"),
	layer("index.persist.save_s", "s", "lower", "setup_s"),
	layer("index.persist.snapshot_bytes", "B", "lower", "restart_s"),
	layer("index.persist.save_delta_ms", "ms", "lower", "restart_s"),
	layer("index.persist.load_s", "s", "lower", "restart_s"),
	layer("index.persist.load_allocs", "count", "lower", "restart_s"),
	layer("index.wal.recovery_s", "s", "lower", "restart_s"),
	layer("index.wal.replayed_ops", "count", "lower", "restart_s"),

	// HTTP tier, likewise.
	layer("serve.query.handler_us", "us", "lower", "query_p50_ms"),
	layer("serve.query.overhead_us", "us", "lower", "query_p50_ms"),
	layer("serve.query.allocs", "count", "lower", "sat_ops_per_s"),
	layer("serve.query.response_bytes", "B", "lower", "sat_ops_per_s"),
	layer("serve.upsert.handler_us", "us", "lower", "op_p50_ms"),
	layer("serve.transport_us", "us", "lower", "query_p50_ms"),
	layer("serve.replication.bootstrap_s", "s", "lower", "setup_s"),
	layer("serve.replication.lag_ms_p50", "ms", "lower", "op_p75_ms"),
	layer("serve.replication.lag_ms_max", "ms", "lower", "op_p75_ms"),
	layer("serve.replication.resyncs", "count", "lower", "restart_s"),
	layer("serve.replication.answer_match_share", "share", "higher", "recall"),
	layer("serve.cluster.handler_us", "us", "lower", "query_p50_ms"),
	layer("serve.cluster.slowest_shard_us", "us", "lower", "query_p75_ms"),
	layer("serve.cluster.fanout_merge_us", "us", "lower", "query_p50_ms"),
	layer("serve.cluster.query.allocs", "count", "lower", "sat_ops_per_s"),
	layer("serve.cluster.cpu_ms_per_op", "ms", "lower", "sat_ops_per_s"),
	layer("serve.cluster.bulk_load_s", "s", "lower", "setup_s"),
	layer("serve.cluster.degraded_share", "share", "lower", "recall"),
	layer("serve.cluster.answer_match_share", "share", "higher", "recall"),

	// The live system during the traced replay, and the trace itself.
	layer("proc.cpu_ms_per_op", "ms", "lower", "sat_ops_per_s"),
	layer("proc.rss_peak_mb", "MiB", "lower", "setup_s"),
	layer("load.sent", "count", "higher", ""),
	layer("load.ok", "count", "higher", ""),
	layer("load.failed", "count", "lower", ""),
	layer("trace.closure_share", "share", "higher", ""),
	layer("trace.overhead_share", "share", "lower", ""),

	// Diagnostics: workload-specific or constant by construction.
	diag("load.late_ms_p90", "ms", "lower"),
	diag("load.late_ms_p99", "ms", "lower"),
	diag("load.steal_share", "share", "lower"),
	diag("load.op_p90_ms", "ms", "lower"),
	diag("load.op_p99_ms", "ms", "lower"),
	diag("load.op_p999_ms", "ms", "lower"),
	diag("load.query_p90_ms", "ms", "lower"),
	diag("load.query_p99_ms", "ms", "lower"),
	diag("load.resolve_s", "s", "lower"),
	diag("load.resolve_dataflow_s", "s", "lower"),
	diag("load.calibration_ms", "ms", "lower"),
	diag("load.restart_s", "s", "lower"),
	diag("load.probe_ms", "ms", "lower"),
	diag("index.query.lsh_probe_us", "us", "lower"),
	diag("serve.shed_share", "share", "lower"),
	diag("serve.degraded_share", "share", "lower"),
	diag("serve.truncated_share", "share", "lower"),
	diag("live.replication.catchup_ms", "ms", "lower"),
	diag("live.replication.resyncs", "count", "lower"),
}

func layer(name, unit, better, moves string) MetricDef {
	return MetricDef{Name: name, Unit: unit, Better: better, Kind: PerLayer, Moves: moves}
}

func diag(name, unit, better string) MetricDef {
	return MetricDef{Name: name, Unit: unit, Better: better, Kind: Diagnostic}
}

var catalogByName = func() map[string]*MetricDef {
	m := make(map[string]*MetricDef, len(Catalog))
	for i := range Catalog {
		m[Catalog[i].Name] = &Catalog[i]
	}
	return m
}()
