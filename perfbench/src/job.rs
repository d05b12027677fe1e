//! One benchmark iteration: time set-up, run the workload job once, check
//! its outputs and read every layer's counts.
//!
//! An iteration runs in a child process of its own, so `VmHWM` is the peak
//! of that one workload and a panic (the kernel's event-limit guard, say)
//! fails the iteration instead of the benchmark.

use std::io::Write;

use stream2gym::core::RunResult;
use stream2gym::net::{DropCause, NodeKind};
use stream2gym::sim::SimTime;
use stream2gym::telemetry::{summarize, validate_chrome_trace, MetricValue};

use crate::clock::{now, Span, Spans};
use crate::workloads::Workload;

/// Set-ups timed per iteration (zero-length runs of the same scenario).
const SETUPS_PER_ITERATION: usize = 100;

/// Everything one iteration measured.
pub struct Iteration {
    /// Per-iteration metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Set-up samples, seconds.
    pub setups: Vec<f64>,
    /// Digest of every simulated output.
    pub digest: u64,
    /// Spans of the job (empty unless traced).
    pub spans: Vec<Span>,
    /// Why the iteration failed, if it did.
    pub failure: Option<String>,
}

impl Iteration {
    /// Writes the iteration in the line format [`Iteration::parse`] reads.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (name, v) in &self.values {
            writeln!(out, "value {name} {v}")?;
        }
        for s in &self.setups {
            writeln!(out, "setup {s}")?;
        }
        writeln!(out, "digest {}", self.digest)?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "span {} {parent} {} {} {}",
                s.id, s.name, s.start_s, s.end_s
            )?;
        }
        if let Some(f) = &self.failure {
            writeln!(out, "fail {}", f.replace('\n', " "))?;
        }
        Ok(())
    }

    /// Reads what [`Iteration::write`] wrote; `None` on a malformed line.
    pub fn parse(text: &str, names: &[&'static str]) -> Option<Iteration> {
        let mut it = Iteration {
            values: Vec::new(),
            setups: Vec::new(),
            digest: 0,
            spans: Vec::new(),
            failure: None,
        };
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ')?;
            match tag {
                "value" => {
                    let (name, v) = rest.split_once(' ')?;
                    let name = names.iter().find(|n| **n == name)?;
                    it.values.push((name, v.parse().ok()?));
                }
                "setup" => it.setups.push(rest.parse().ok()?),
                "digest" => it.digest = rest.parse().ok()?,
                "span" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    let [id, parent, name, start, end] = f[..] else {
                        return None;
                    };
                    it.spans.push(Span {
                        id: id.parse().ok()?,
                        parent: usize::try_from(parent.parse::<i64>().ok()?).ok(),
                        name: names.iter().find(|n| **n == name)?,
                        start_s: start.parse().ok()?,
                        end_s: end.parse().ok()?,
                    });
                }
                "fail" => it.failure = Some(rest.to_string()),
                _ => return None,
            }
        }
        Some(it)
    }
}

/// Span names, in the order a job opens them.
pub const SPAN_NAMES: [&str; 8] = [
    "job",
    "build",
    "analyze",
    "run",
    "monitor_query",
    "tidy_csv",
    "chrome_json",
    "validate_chrome_trace",
];

/// Per-layer time metrics and the spans whose self times they sum. The `run`
/// span has no children, so `core.run_s` is timed directly in every
/// iteration instead.
const SPAN_METRICS: [(&str, &[&str]); 6] = [
    ("trace.job_self_s", &["job"]),
    ("core.build_s", &["build"]),
    ("analyze.analyze_s", &["analyze"]),
    ("core.monitor_query_s", &["monitor_query"]),
    ("telemetry.export_s", &["tidy_csv", "chrome_json"]),
    ("telemetry.validate_s", &["validate_chrome_trace"]),
];

/// Runs one iteration of `workload` at `seed`, recording spans if `traced`.
pub fn run_iteration(workload: Workload, seed: u64, traced: bool) -> Iteration {
    let mut failure = None;
    let setups = (0..SETUPS_PER_ITERATION)
        .map(|_| {
            let start = now();
            let sc = workload.scenario(seed, SimTime::ZERO);
            std::hint::black_box(sc.analyze());
            let result = sc.run();
            let secs = start.elapsed().as_secs_f64();
            if let Err(e) = result {
                failure = Some(format!("set-up run refused: {e}"));
            }
            secs
        })
        .collect();

    let mut spans = Spans::new(traced);
    let start = now();
    let mut run_s = 0.0;
    let mut rss_delta_kb = 0i64;
    let job = spans.span("job", |sp| {
        let sc = sp.span("build", |_| workload.scenario(seed, workload.duration()));
        let analysis = sp.span("analyze", |_| sc.analyze());
        let rss_before = vm_kb("VmRSS");
        let run_start = now();
        let result = sp.span("run", |_| sc.run());
        run_s = run_start.elapsed().as_secs_f64();
        rss_delta_kb = vm_kb("VmRSS") - rss_before;
        let result = result.map_err(|e| format!("run refused: {e}"))?;
        let queries = sp.span("monitor_query", |_| monitor_queries(workload, &result));
        let csv = sp.span("tidy_csv", |_| result.telemetry.tidy_csv());
        let json = sp.span("chrome_json", |_| result.telemetry.chrome_json());
        let trace = sp.span("validate_chrome_trace", |_| validate_chrome_trace(&json));
        Ok::<_, String>((
            analysis.diagnostics.len(),
            result,
            queries,
            csv,
            json,
            trace,
        ))
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut values = vec![("wall_s", wall_s), ("core.run_s", run_s)];
    let mut digest = Digest::new();
    match job {
        Err(e) => failure = failure.or(Some(e)),
        Ok((diagnostics, result, queries, csv, json, trace)) => {
            if let Err(e) = workload.check(&result, &trace) {
                failure = failure.or(Some(e));
            }
            let sim_s = result.report.duration.as_secs_f64();
            values.push(("sim_speed", sim_s / run_s));
            values.push(("core.rss_delta_run_mb", rss_delta_kb as f64 / 1024.0));
            values.push(("analyze.diagnostics", diagnostics as f64));
            layer_counts(&result, run_s, &mut values);
            values.push(("telemetry.csv_bytes", csv.len() as f64));
            values.push(("telemetry.trace_bytes", json.len() as f64));
            values.push((
                "telemetry.trace_events",
                result.telemetry.tracer().len() as f64,
            ));
            model_outputs(&result, &mut values);
            digest.str(&queries);
            digest.str(&csv);
            digest.str(&json);
            digest_outputs(&result, &mut digest);
        }
    }
    values.push(("peak_rss_mb", vm_kb("VmHWM") as f64 / 1024.0));
    if traced {
        let self_times = spans.self_times();
        for (metric, names) in SPAN_METRICS {
            let secs = self_times
                .iter()
                .filter(|(n, _)| names.contains(n))
                .map(|(_, t)| t)
                .sum();
            values.push((metric, secs));
        }
        values.push(("trace.spans", spans.finished().len() as f64));
    }
    Iteration {
        values,
        setups,
        digest: digest.finish(),
        spans: spans.finished().to_vec(),
        failure,
    }
}

/// The monitor queries the figure behind `workload` makes, rendered as text
/// for the digest: tail latency per plotted topic, the delivery count, and
/// for the partition run the Fig. 6b delivery matrix.
fn monitor_queries(workload: Workload, result: &RunResult) -> String {
    let mut out = format!("deliveries {}\n", result.total_deliveries());
    for topic in workload.latency_topics() {
        let stats = result.monitor.borrow().latency_stats(topic);
        out.push_str(&format!("{topic} {stats:?}\n"));
    }
    if workload == Workload::PartitionKraft {
        let matrix = result.delivery_matrix(0);
        out.push_str(&format!(
            "matrix {} lost {}\n",
            matrix.delivery_rate(),
            matrix.total_losses().len()
        ));
    }
    out
}

/// Work counts of every layer, read from the report, the network handle and
/// the telemetry registry after the run.
fn layer_counts(result: &RunResult, run_s: f64, values: &mut Vec<(&'static str, f64)>) {
    let report = &result.report;
    let mut push = |name: &'static str, v: f64| values.push((name, v));
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    push(
        "core.deliveries_retained",
        result.monitor.borrow().deliveries.len() as f64,
    );

    let sim = report.sim_stats;
    push("sim.events", sim.events_processed as f64);
    push("sim.messages", sim.messages_delivered as f64);
    push("sim.timers_fired", sim.timers_fired as f64);
    push("sim.events_voided", sim.events_voided as f64);
    push("sim.max_queue_len", sim.max_queue_len as f64);
    push(
        "sim.ns_per_event",
        run_s * 1e9 / sim.events_processed.max(1) as f64,
    );

    {
        let net = result.net.borrow();
        let bytes_tx: u64 = net
            .topology()
            .nodes()
            .filter(|(_, n)| n.kind == NodeKind::Host)
            .map(|(id, _)| net.node_tx_bytes(id))
            .sum();
        let drops: u64 = [
            DropCause::Loss,
            DropCause::LinkDown,
            DropCause::NodeDown,
            DropCause::NoRoute,
            DropCause::Unplaced,
        ]
        .into_iter()
        .map(|c| net.drops(c))
        .sum();
        push("net.packets_delivered", net.delivered_packets() as f64);
        push("net.bytes_tx", bytes_tx as f64);
        push("net.drops", drops as f64);
    }

    push(
        "proto.shared_batch_copies",
        report.shared_batch_copies as f64,
    );
    let (mut batch_records, mut batches) = (0.0, 0u64);
    for m in result.telemetry.registry().metrics() {
        if let (true, MetricValue::Histogram(h)) = (m.name == "batch_records", &m.value) {
            batch_records += h.sum();
            batches += h.count();
        }
    }
    push(
        "proto.batch_records_mean",
        if batches == 0 {
            0.0
        } else {
            batch_records / batches as f64
        },
    );

    let mut broker = [0u64; 5];
    for b in &report.brokers {
        let s = &b.stats;
        broker[0] += s.produces;
        broker[1] += s.fetches;
        broker[2] += s.replica_fetches;
        broker[3] += s.records_appended;
        broker[4] += s.rejected_fenced
            + s.rejected_not_leader
            + s.rejected_stale_epoch
            + s.rejected_not_enough_replicas;
    }
    push("broker.produce_requests", broker[0] as f64);
    push("broker.fetch_requests", broker[1] as f64);
    push("broker.replica_fetches", broker[2] as f64);
    push("broker.records_appended", broker[3] as f64);
    push("broker.rejected", broker[4] as f64);
    push("broker.records_per_produce", ratio(broker[3], broker[0]));

    let (mut sent, mut acked, mut retries) = (0u64, 0u64, 0u64);
    for p in &report.producers {
        sent += p.stats.sent;
        acked += p.stats.acked;
        retries += p.stats.retries;
    }
    push("producer.sent", sent as f64);
    push("producer.acked", acked as f64);
    push("producer.retries", retries as f64);
    push("producer.retries_per_acked", ratio(retries, acked));

    // Sink consumers plus the consumer clients SPE jobs read through.
    let consumer_stats = report
        .consumers
        .iter()
        .map(|c| c.stats)
        .chain(report.spe.values().map(|s| s.consumer_stats));
    let (mut fetches, mut records) = (0u64, 0u64);
    for s in consumer_stats {
        fetches += s.fetches;
        records += s.records;
    }
    push("consumer.fetches", fetches as f64);
    push("consumer.records", records as f64);
    push("consumer.records_per_fetch", ratio(records, fetches));

    let (mut rin, mut rout, mut ckpts, mut ckpt_bytes) = (0u64, 0u64, 0u64, 0u64);
    for s in report.spe.values() {
        rin += s.record_counts.0;
        rout += s.record_counts.1;
        ckpts += s.checkpoints.checkpoints;
        ckpt_bytes += s.checkpoints.snapshot_bytes;
    }
    let recovery_s = report
        .spe
        .values()
        .chain(report.spe_instances.values())
        .filter_map(|s| s.recovery.as_ref()?.recovery_latency())
        .map(|d| d.as_secs_f64())
        .fold(0.0, f64::max);
    push("spe.records_in", rin as f64);
    push("spe.records_out", rout as f64);
    push("spe.checkpoints", ckpts as f64);
    push("spe.checkpoint_bytes", ckpt_bytes as f64);
    push("spe.recovery_sim_s", recovery_s);

    push(
        "store.oplog_len",
        report.stores.iter().map(|s| s.oplog_len).sum::<u64>() as f64,
    );
    push(
        "store.kv_keys",
        report.stores.iter().map(|s| s.kv_keys).sum::<u64>() as f64,
    );

    push("telemetry.series", report.metric_series.len() as f64);
}

/// Simulated results: outputs of the model, not performance of the tool.
fn model_outputs(result: &RunResult, values: &mut Vec<(&'static str, f64)>) {
    let core = result.monitor.borrow();
    let lat_ms: Vec<f64> = core
        .deliveries
        .iter()
        .map(|d| d.latency().as_secs_f64() * 1e3)
        .collect();
    let last = core
        .deliveries
        .iter()
        .map(|d| d.delivered)
        .max()
        .unwrap_or(SimTime::ZERO);
    let stats = summarize(&lat_ms);
    let delivered = core.deliveries.len() as f64;
    values.push(("model.delivered", delivered));
    values.push((
        "model.throughput_rps",
        if last > SimTime::ZERO {
            delivered / last.as_secs_f64()
        } else {
            0.0
        },
    ));
    values.push(("model.latency_p50_ms", stats.map_or(0.0, |s| s.p50)));
    values.push(("model.latency_p99_ms", stats.map_or(0.0, |s| s.p99)));
}

/// Folds every simulated output of the run into `digest`.
fn digest_outputs(result: &RunResult, digest: &mut Digest) {
    let report = &result.report;
    digest.str(&format!("{:?}", report.sim_stats));
    for p in &report.producers {
        digest.str(&format!("{:?}", p.stats));
        for o in &p.outcomes {
            digest.u64(o.seq);
            digest.str(&o.topic);
            digest.u64(o.created.as_nanos());
            digest.u64(o.completed.as_nanos());
            digest.u64(u64::from(o.delivered));
        }
    }
    for c in &report.consumers {
        digest.str(&format!("{:?}", c.stats));
    }
    for b in &report.brokers {
        digest.str(&format!("{:?}", b.stats));
    }
    for (name, s) in report.spe.iter().chain(&report.spe_instances) {
        digest.str(name);
        digest.str(&format!("{:?} {:?}", s.record_counts, s.checkpoints));
    }
    for s in &report.stores {
        digest.str(&format!("{} {} {}", s.host, s.oplog_len, s.kv_keys));
    }
    digest.u64(report.shared_batch_copies);
    for d in &result.monitor.borrow().deliveries {
        digest.u64(u64::from(d.consumer));
        digest.str(&d.topic);
        digest.u64(u64::from(d.producer.0));
        digest.u64(d.seq);
        digest.u64(d.produced.as_nanos());
        digest.u64(d.delivered.as_nanos());
    }
}

/// 64-bit FNV-1a over a stream of values.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// A `/proc/self/status` field in kB (`VmRSS`, `VmHWM`); 0 where the host
/// has no procfs.
fn vm_kb(field: &str) -> i64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}
