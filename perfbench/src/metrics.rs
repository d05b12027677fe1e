//! Names, units and directions of every metric the benchmark reports.
//!
//! `BENCHMARK.json` at the repository root repeats these two lists; a
//! metric is added or renamed in both places.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, `layer.what` for per-layer metrics.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the simulator sees, reported with `--trace 0`.
pub const END_TO_END: [MetricDef; 4] = [
    m("wall_s", "s"),
    m("sim_speed", "sim_s/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Metrics of single layers, reported with `--trace 1`.
pub const PER_LAYER: [MetricDef; 54] = [
    m("core.build_s", "s"),
    m("core.run_s", "s"),
    m("core.monitor_query_s", "s"),
    m("core.deliveries_retained", "count"),
    m("core.rss_delta_run_mb", "MB"),
    m("analyze.analyze_s", "s"),
    m("analyze.diagnostics", "count"),
    m("sim.events", "count"),
    m("sim.messages", "count"),
    m("sim.timers_fired", "count"),
    m("sim.events_voided", "count"),
    m("sim.max_queue_len", "count"),
    m("sim.ns_per_event", "ns"),
    m("net.packets_delivered", "count"),
    m("net.bytes_tx", "bytes"),
    m("net.drops", "count"),
    m("proto.shared_batch_copies", "count"),
    m("proto.batch_records_mean", "records"),
    m("broker.produce_requests", "count"),
    m("broker.fetch_requests", "count"),
    m("broker.replica_fetches", "count"),
    m("broker.records_appended", "count"),
    m("broker.rejected", "count"),
    m("broker.records_per_produce", "records"),
    m("producer.sent", "count"),
    m("producer.acked", "count"),
    m("producer.retries", "count"),
    m("producer.retries_per_acked", "ratio"),
    m("consumer.fetches", "count"),
    m("consumer.records", "count"),
    m("consumer.records_per_fetch", "records"),
    m("spe.records_in", "count"),
    m("spe.records_out", "count"),
    m("spe.checkpoints", "count"),
    m("spe.checkpoint_bytes", "bytes"),
    m("spe.recovery_sim_s", "s"),
    m("store.oplog_len", "count"),
    m("store.kv_keys", "count"),
    m("telemetry.series", "count"),
    m("telemetry.csv_bytes", "bytes"),
    m("telemetry.trace_events", "count"),
    m("telemetry.trace_bytes", "bytes"),
    m("telemetry.export_s", "s"),
    m("telemetry.validate_s", "s"),
    m("model.delivered", "count"),
    m("model.throughput_rps", "records/s"),
    m("model.latency_p50_ms", "ms"),
    m("model.latency_p99_ms", "ms"),
    m("model.digest", "hash"),
    m("trace.wall_s", "s"),
    m("trace.overhead_s", "s"),
    m("trace.spans", "count"),
    m("trace.job_self_s", "s"),
    m("trace.untraced_wall_s", "s"),
];
