package main

// metricDef names one reported metric. For per-layer metrics, moves is the
// end-to-end metric the layer should move and the workload where that
// should show; on workloads not named the prediction is no change, and a
// layer that does no work in a workload reports 0 there.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{name: "ingest_melem_s", unit: "Melem/s", better: "higher"},
	{name: "query_p50_ms", unit: "ms", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "live_heap_mb", unit: "MB", better: "lower"},
}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []metricDef{
	{"shard.offer_batch_us.p50", "us", "lower", "ingest_melem_s on serve-dense"},
	{"shard.offer_batch_us.tail", "us", "lower", "ingest_melem_s on serve-dense"},
	{"shard.verdict_ms.p50", "ms", "lower", "query_p50_ms on serve-sparse; ingest_melem_s on serve-sparse through lock hold"},
	{"shard.flush_ms", "ms", "lower", "ingest_melem_s on serve-sparse"},
	{"shard.round_skew", "ratio", "lower", "ingest_melem_s on serve-dense"},
	{"shard.checkpoints", "count", "lower", "ingest_melem_s on serve-sparse"},
	{"shard.lost_rounds", "count", "lower", "must stay 0"},
	{"farm.offer_batch_us.p50", "us", "lower", "ingest_melem_s on farm-churn"},
	{"farm.offer_batch_us.tail", "us", "lower", "ingest_melem_s on farm-churn"},
	{"farm.hydrations", "count", "lower", "ingest_melem_s on farm-churn"},
	{"farm.evictions", "count", "lower", "ingest_melem_s on farm-churn"},
	{"farm.hydrate_p99_us", "us", "lower", "ingest_melem_s on farm-churn"},
	{"farm.stats_ms.p50", "ms", "lower", "query_p50_ms on farm-churn"},
	{"farm.global_quantile_ms.p50", "ms", "lower", "query_p50_ms on farm-churn"},
	{"farm.slab_mb", "MB", "lower", "live_heap_mb on farm-churn"},
	{"gc.cycles", "count", "lower", "ingest_melem_s on serve-sparse and farm-churn"},
	{"gc.pause_ms", "ms", "lower", "ingest_melem_s on serve-sparse and farm-churn"},
	{"gc.alloc_mb_per_melem", "MB/Melem", "lower", "ingest_melem_s on serve-sparse and farm-churn"},
	{"loadgen.query_late_ms.max", "ms", "lower", "query_p50_ms (how late the open-loop client ran)"},
	{"trace.overhead_pct", "%", "lower", "none (traced versus untraced windows' ingest_melem_s)"},
	{"rng.fill_ns_per_elem", "ns/elem", "lower", "ingest_melem_s on serve-dense"},
	{"runtime.route_ns_per_elem", "ns/elem", "lower", "ingest_melem_s on serve-dense"},
	{"runtime.ring_ns_per_elem", "ns/elem", "lower", "ingest_melem_s on serve-dense"},
	{"sampler.admit_ns_per_elem", "ns/elem", "lower", "ingest_melem_s on serve-dense"},
	{"setsystem.update_ns_per_elem", "ns/elem", "lower", "ingest_melem_s on serve-sparse"},
	{"setsystem.merge_ms", "ms", "lower", "query_p50_ms on serve-sparse"},
	{"shard.checkpoint_ms", "ms", "lower", "ingest_melem_s on serve-sparse"},
	{"shard.checkpoint_mb", "MB", "lower", "ingest_melem_s on serve-sparse"},
	{"shard.restore_ms", "ms", "lower", "ingest_melem_s on serve-sparse"},
	{"farm.hot_ns_per_elem", "ns/elem", "lower", "ingest_melem_s on farm-churn"},
	{"farm.tenant_codec_us", "us", "lower", "ingest_melem_s on farm-churn"},
	{"ledger.sum_ns_per_elem", "ns/elem", "lower", "ingest_melem_s on serve-dense and serve-sparse"},
	{"ledger.e2e_ns_per_elem", "ns/elem", "lower", "ingest_melem_s on serve-dense and serve-sparse (1000 / ingest_melem_s)"},
	{"ledger.gap_pct", "%", "lower", "ingest_melem_s on serve-dense and serve-sparse (waiting the stages do not see)"},
}
