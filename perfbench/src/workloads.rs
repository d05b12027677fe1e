//! The three benchmark workloads: how each scenario is built, which layers
//! it loads, and what its outputs must satisfy.
//!
//! Every workload is built only through the public `Scenario` builder; the
//! seed is the benchmark's `--seed` argument, passed to `Scenario::seed`.

use std::collections::HashSet;
use std::rc::Rc;

use stream2gym::broker::{
    BrokerConfig, ConsumerConfig, CoordinationMode, ProducerConfig, RateSource, TopicSpec,
};
use stream2gym::core::{RunResult, Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use stream2gym::net::{FaultPlan, LinkSpec};
use stream2gym::proto::AckMode;
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, Event, Plan, SpeConfig, Value};
use stream2gym::store::StoreConfig;
use stream2gym::telemetry::ChromeTraceSummary;

/// Records the `pipeline-steady` producer offers.
const PIPELINE_RECORDS: u64 = 200_000;
/// Records the `recovery-traced` producer offers.
const RECOVERY_RECORDS: u64 = 800;
/// Producer send interval of `recovery-traced`, milliseconds.
const RECOVERY_INTERVAL_MS: u64 = 5;
/// Broker sites of `partition-kraft`.
const KRAFT_SITES: u32 = 6;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The batch-first hot path under steady open-loop load.
    ///
    /// Why: the data plane (producer seal, broker append/fetch, consumer
    /// poll, SPE feed) does nearly all the work, queues stay shallow and
    /// nothing retries. The run keeps about 1.3 KB of reports per record,
    /// so host memory (`peak_rss_mb`) shows here.
    PipelineSteady,
    /// The paper's Fig. 6 partition experiment under KRaft with `acks=all`.
    ///
    /// Why: millions of small events through the kernel, the network, the
    /// controller quorum and the producer retry/metadata path, with a tiny
    /// data volume. Kernel, handler and retry changes show here; batching
    /// changes should not.
    PartitionKraft,
    /// The `--fig timeline` crash/recovery job with the causal tracer on and
    /// checkpoints persisted to a 3-replica store.
    ///
    /// Why: telemetry (sampler, tracer, export, trace validation), SPE
    /// state, checkpoints, restore and store replication do the work; the
    /// kernel and broker do little. The only workload with the tracer on.
    RecoveryTraced,
}

impl Workload {
    /// Every workload, in the order the guide lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PipelineSteady,
        Workload::PartitionKraft,
        Workload::RecoveryTraced,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineSteady => "pipeline-steady",
            Workload::PartitionKraft => "partition-kraft",
            Workload::RecoveryTraced => "recovery-traced",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated length of a full run.
    pub fn duration(self) -> SimTime {
        match self {
            Workload::PipelineSteady => SimTime::from_secs(6),
            Workload::PartitionKraft => SimTime::from_secs(240),
            Workload::RecoveryTraced => {
                SimTime::from_millis(recovery_produce_ms() + RECOVERY_TAIL_MS)
            }
        }
    }

    /// Builds the scenario for `seed`, simulating `duration` (the
    /// workload's own [`duration`](Workload::duration) for a full run, zero
    /// to time set-up alone).
    pub fn scenario(self, seed: u64, duration: SimTime) -> Scenario {
        let mut sc = match self {
            Workload::PipelineSteady => pipeline_steady(),
            Workload::PartitionKraft => partition_kraft(),
            Workload::RecoveryTraced => recovery_traced(),
        };
        // About ten times the events a full run takes at the sizing seed: a
        // livelock fails the iteration instead of hanging the benchmark.
        let event_limit = match self {
            Workload::PipelineSteady => 6_000_000,
            Workload::PartitionKraft => 92_000_000,
            Workload::RecoveryTraced => 220_000,
        };
        sc.seed(seed).duration(duration).event_limit(event_limit);
        sc
    }

    /// The monitor topics whose latency the figure behind this workload
    /// plots.
    pub fn latency_topics(self) -> &'static [&'static str] {
        match self {
            Workload::PipelineSteady => &["out"],
            Workload::PartitionKraft => &["topic-a", "topic-b"],
            Workload::RecoveryTraced => &["counts"],
        }
    }

    /// Checks one full run's outputs; `Err` names the first violation.
    pub fn check(
        self,
        result: &RunResult,
        trace: &Result<ChromeTraceSummary, String>,
    ) -> Result<(), String> {
        if let Err(e) = trace {
            return Err(format!("chrome trace does not validate: {e}"));
        }
        match self {
            Workload::PipelineSteady => check_pipeline(result),
            Workload::PartitionKraft => check_partition(result),
            Workload::RecoveryTraced => check_recovery(result),
        }
    }
}

/// `pipeline-steady`: one producer at 50k records/s (20 µs interval, 64 B
/// payloads) into one broker, a stateless-map SPE job and a sink consumer,
/// with 64 KiB batches and 5 ms linger. The shape of the `--bench hotpath`
/// run, at four times its full-scale record count.
fn pipeline_steady() -> Scenario {
    let fast_consumer = ConsumerConfig {
        poll_interval: SimDuration::from_millis(5),
        max_poll_records: 5_000,
        ..Default::default()
    };
    let mut sc = Scenario::new("pipeline-steady");
    sc.topic(TopicSpec::new("hot")).topic(TopicSpec::new("out"));
    sc.broker("h0");
    sc.producer(
        "hp",
        SourceSpec::Rate {
            topic: "hot".into(),
            count: PIPELINE_RECORDS,
            interval: SimDuration::from_micros(20),
            payload: 64,
        },
        ProducerConfig::default(),
    );
    sc.spe_job(
        "hs",
        SpeJobSpec::new(
            "hotmap",
            vec!["hot".into()],
            || Plan::new().map("ident", |e| e),
            SpeSinkSpec::Topic("out".into()),
            SpeConfig {
                batch_interval: SimDuration::from_millis(10),
                scheduling_overhead: SimDuration::from_millis(1),
                cpu_per_record: SimDuration::from_micros(2),
                startup_cpu: SimDuration::from_millis(100),
                consumer: fast_consumer.clone(),
                ..SpeConfig::default()
            },
        ),
    );
    sc.consumer("hc", fast_consumer, &["out"]);
    sc.batch_max_bytes(64 * 1024);
    sc.linger_ms(5);
    sc
}

/// `partition-kraft`: Fig. 6 at `--quick` size under KRaft with
/// `acks=all`. Six broker sites in a 2 ms star, two RF-3 topics, a 30 kbps
/// random-topic producer and a consumer per site; `h1` is cut off at 80 s
/// for 60 s of a 240 s run.
fn partition_kraft() -> Scenario {
    let run_s = 240;
    let mut sc = Scenario::new("partition-kraft");
    sc.coordination(CoordinationMode::Kraft)
        .default_link(LinkSpec::new().latency_ms(2))
        .topic(TopicSpec::new("topic-a").replication(3).primary(0))
        .topic(TopicSpec::new("topic-b").replication(3).primary(1));
    for i in 0..KRAFT_SITES {
        let host = format!("h{}", i + 1);
        sc.broker(&host);
        sc.producer(
            &host,
            SourceSpec::RandomTopics {
                topics: vec!["topic-a".into(), "topic-b".into()],
                kbps: 30,
                payload: 500,
                until: SimTime::from_secs(run_s - 40),
            },
            ProducerConfig {
                acks: AckMode::All,
                ..ProducerConfig::default()
            },
        );
        sc.consumer(&host, Default::default(), &["topic-a", "topic-b"]);
    }
    sc.faults(FaultPlan::new().transient_disconnect(
        "h1",
        SimTime::from_secs(80),
        SimDuration::from_secs(60),
    ));
    sc.watch_throughput(&["h1", "h2", "h3"]);
    sc
}

/// Simulated time after the last record of `recovery-traced` is produced.
const RECOVERY_TAIL_MS: u64 = 8_000;

fn recovery_produce_ms() -> u64 {
    RECOVERY_RECORDS * RECOVERY_INTERVAL_MS + 500
}

/// `recovery-traced`: the `--fig timeline` job at `--quick` size. A
/// parallelism-2 keyed stateful count over a 4-partition topic (800 records
/// at 5 ms), 100 ms telemetry sampling and the Chrome tracer on,
/// exactly-once checkpoints every 500 ms persisted to a 3-replica store,
/// and one keyed instance crashed mid-run and restarted 2 s later.
fn recovery_traced() -> Scenario {
    let records = RECOVERY_RECORDS;
    let interval_ms = RECOVERY_INTERVAL_MS;
    let consumer_cpu = SimDuration::from_micros(interval_ms * 1_600);
    let crash_at = SimTime::from_millis(recovery_produce_ms() / 2);
    let mut sc = Scenario::new("recovery-traced");
    sc.topic(TopicSpec::new("events").partitions(4))
        .topic(TopicSpec::new("counts"));
    sc.telemetry_interval(SimDuration::from_millis(100));
    sc.with_telemetry_trace(true);
    sc.broker_with(
        "h0",
        BrokerConfig {
            fetch_max_records: 5,
            ..Default::default()
        },
    );
    sc.producer(
        "hp",
        SourceSpec::Custom {
            topics: vec!["events".into()],
            make: Box::new(move || {
                Box::new(
                    RateSource::new("events", records, SimDuration::from_millis(interval_ms))
                        .payload_bytes(64)
                        .key_space(32),
                )
            }),
        },
        ProducerConfig::default(),
    );
    let job = SpeJobSpec::new(
        "timeline",
        vec!["events".into()],
        || {
            Plan::new()
                .key_by("by-payload", |e| {
                    e.key
                        .clone()
                        .unwrap_or_else(|| e.value.as_str().unwrap_or("").chars().take(8).collect())
                })
                .stateful("count", Value::Int(0), |state, e| {
                    let n = state.as_int().unwrap_or(0) + 1;
                    *state = Value::Int(n);
                    vec![Event {
                        value: Value::Int(n),
                        ..e.clone()
                    }]
                })
        },
        SpeSinkSpec::Topic("counts".into()),
        SpeConfig {
            batch_interval: SimDuration::from_millis(250),
            scheduling_overhead: SimDuration::from_millis(10),
            cpu_per_record: SimDuration::from_millis(2),
            startup_cpu: SimDuration::from_millis(200),
            max_batch_records: 64,
            consumer: ConsumerConfig {
                cpu_per_record: consumer_cpu,
                ..Default::default()
            },
            ..SpeConfig::default()
        },
    )
    .parallelism(2)
    .key_groups(4);
    sc.spe_job("hs", job);
    sc.consumer("hc", Default::default(), &["counts"]);
    sc.store("hstore", StoreConfig::default());
    sc.with_replicated_store(3);
    sc.with_durable_checkpointing(
        CheckpointCfg::exactly_once(SimDuration::from_millis(500)),
        "hstore",
    );
    sc.faults(FaultPlan::new().crash_restart(
        "timeline/1/1",
        crash_at,
        SimDuration::from_millis(2_000),
    ));
    sc
}

/// Every produced record is acked and reaches the sink exactly once, and no
/// shared batch was deep-copied.
fn check_pipeline(result: &RunResult) -> Result<(), String> {
    let report = &result.report;
    if report.shared_batch_copies != 0 {
        return Err(format!(
            "{} shared batches deep-copied",
            report.shared_batch_copies
        ));
    }
    let stats = report.producers[0].stats;
    if stats.sent != PIPELINE_RECORDS || stats.acked != PIPELINE_RECORDS || stats.failed != 0 {
        return Err(format!(
            "producer sent {} acked {} failed {} of {PIPELINE_RECORDS}",
            stats.sent, stats.acked, stats.failed
        ));
    }
    let core = result.monitor.borrow();
    let mut seen = HashSet::new();
    let mut delivered = 0u64;
    for d in core.for_topic("out") {
        delivered += 1;
        if !seen.insert((d.producer, d.seq)) {
            return Err(format!("record {:?}/{} delivered twice", d.producer, d.seq));
        }
    }
    if delivered != PIPELINE_RECORDS {
        return Err(format!(
            "sink got {delivered} of {PIPELINE_RECORDS} records"
        ));
    }
    Ok(())
}

/// No acked record of any producer is missing at any remote consumer.
fn check_partition(result: &RunResult) -> Result<(), String> {
    let report = &result.report;
    let core = result.monitor.borrow();
    let delivered: HashSet<(u32, u32, Rc<str>, u64)> = core
        .deliveries
        .iter()
        .map(|d| (d.consumer, d.producer.0, d.topic.clone(), d.seq))
        .collect();
    let mut acked = 0u64;
    for (site, p) in report.producers.iter().enumerate() {
        for o in p.outcomes.iter().filter(|o| o.delivered) {
            acked += 1;
            let topic: Rc<str> = Rc::from(o.topic.as_str());
            for c in report
                .consumers
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != site)
            {
                if !delivered.contains(&(c.1.id, p.id.0, topic.clone(), o.seq)) {
                    return Err(format!(
                        "acked record {}/{}/{} missing at consumer {}",
                        p.id.0, o.topic, o.seq, c.1.id
                    ));
                }
            }
        }
    }
    if acked == 0 {
        return Err("no record was acked".into());
    }
    Ok(())
}

/// The trace holds the crash and recovery markers, and every produced
/// record reached the keyed count: each record's creation time shows up as
/// the origin of some delivered count.
fn check_recovery(result: &RunResult) -> Result<(), String> {
    let report = &result.report;
    {
        let tracer = result.telemetry.tracer();
        let events = tracer.events();
        if !events.iter().any(|e| e.name == "fault:crash") {
            return Err("trace has no fault:crash marker".into());
        }
        if !events.iter().any(|e| e.name.starts_with("recovery:")) {
            return Err("trace has no recovery:* marker".into());
        }
    }
    let stats = report.producers[0].stats;
    if stats.acked != RECOVERY_RECORDS {
        return Err(format!(
            "producer acked {} of {RECOVERY_RECORDS}",
            stats.acked
        ));
    }
    let core = result.monitor.borrow();
    let origins: HashSet<SimTime> = core.for_topic("counts").map(|d| d.produced).collect();
    let missing = report.producers[0]
        .outcomes
        .iter()
        .filter(|o| !origins.contains(&o.created))
        .count();
    if missing != 0 {
        return Err(format!(
            "{missing} produced records never reached the count"
        ));
    }
    Ok(())
}
