//! The orchestrator: from a scenario description to a finished run.
//!
//! [`Scenario`] is stream2gym's core workflow (§III-B): describe the
//! pipeline (components per host), the platform configuration (topics,
//! coordination mode), and the network (topology, link attributes, faults);
//! then [`Scenario::run`] instantiates the emulated network, starts the
//! event streaming platform, wires every component, injects the fault plan,
//! attaches the monitors, executes, and returns a [`RunResult`] with all
//! the measurements the paper's figures are built from.

use std::collections::BTreeMap;
use std::fmt;

use s2g_analyze::{
    analyze as analyze_facts, AnalysisReport, BrokerFacts, ConsumerFacts, Diagnostic, FaultFacts,
    FaultKind, FaultTarget, JobFacts, ProducerFacts, ScenarioFacts, TopicFacts,
};
use s2g_broker::{
    log_store, Broker, BrokerConfig, BrokerRecoveryInfo, BrokerStats, CollectingSink,
    ConsumerClient, ConsumerConfig, ConsumerProcess, ConsumerStats, ControllerConfig,
    CoordinationMode, DataSink, DataSource, DurableLogBackend, FileLinesSource, InMemoryLogBackend,
    KraftController, LogStoreHandle, PoissonSource, ProduceOutcome, ProducerClient, ProducerConfig,
    ProducerProcess, ProducerStats, RandomTopicSource, RateSource, TopicSpec, ZkController,
};
use s2g_net::{
    FaultAction, FaultInjector, FaultPlan, LinkSpec, NetHandle, NetTransport, Network,
    NetworkConfig, Topology, TxSampler, TxSeries,
};
use s2g_proto::{AckMode, BrokerId, Compression, ProducerId, TopicPartition};
use s2g_sim::{
    CpuHandle, HostCpu, LedgerHandle, MemLedger, MemSlot, Process, ProcessId, Sim, SimDuration,
    SimStats, SimTime,
};
use s2g_spe::{
    snapshot_store, BatchMetric, CheckpointCfg, CheckpointStats, DurableBackend, Event,
    InMemoryBackend, Plan, SnapshotStoreHandle, SpeConfig, SpeSink, SpeWorker, StageInstanceCfg,
    StateBackend,
};
use s2g_store::{StoreConfig, StoreServer};
use s2g_telemetry::{MetricSeries, Telemetry};

use crate::monitor::{DeliveryMatrix, MonitorCore, MonitorHandle, MonitoredSink};
use crate::resources::{cpu_utilization_series, MemModel, MemSampler, ServerSpec};

/// A data-source description for a producer stub (`prodType`).
pub enum SourceSpec {
    /// Fixed-rate fixed-size records to one topic.
    Rate {
        /// Topic.
        topic: String,
        /// Total records.
        count: u64,
        /// Inter-record interval.
        interval: SimDuration,
        /// Payload bytes.
        payload: usize,
    },
    /// Random topic choice at a target bitrate (the Fig. 6 workload).
    RandomTopics {
        /// Candidate topics.
        topics: Vec<String>,
        /// Kilobits per second.
        kbps: u64,
        /// Payload bytes.
        payload: usize,
        /// Stop time.
        until: SimTime,
    },
    /// Poisson arrivals (the Fig. 7b user traffic).
    Poisson {
        /// Topic.
        topic: String,
        /// Mean arrivals per second.
        rate_per_sec: f64,
        /// Payload bytes.
        payload: usize,
        /// Stop time.
        until: SimTime,
    },
    /// One record per prepared item (the `SFST` stub).
    Items {
        /// Topic.
        topic: String,
        /// The corpus.
        items: Vec<String>,
        /// Inter-record interval.
        interval: SimDuration,
    },
    /// Any custom source.
    Custom {
        /// Topics this source emits to (for validation).
        topics: Vec<String>,
        /// Factory producing the source. Called at build time and again for
        /// each `RestartProcess` fault on this stub, so a respawned
        /// producer starts its source from the beginning (broker-side
        /// idempotent dedup then filters the already-appended prefix).
        make: Box<dyn Fn() -> Box<dyn DataSource>>,
    },
}

impl SourceSpec {
    fn topics(&self) -> Vec<String> {
        match self {
            SourceSpec::Rate { topic, .. }
            | SourceSpec::Poisson { topic, .. }
            | SourceSpec::Items { topic, .. } => vec![topic.clone()],
            SourceSpec::RandomTopics { topics, .. } => topics.clone(),
            SourceSpec::Custom { topics, .. } => topics.clone(),
        }
    }

    fn build(&self) -> Box<dyn DataSource> {
        match self {
            SourceSpec::Rate {
                topic,
                count,
                interval,
                payload,
            } => {
                Box::new(RateSource::new(topic.clone(), *count, *interval).payload_bytes(*payload))
            }
            SourceSpec::RandomTopics {
                topics,
                kbps,
                payload,
                until,
            } => Box::new(RandomTopicSource::new(
                topics.clone(),
                *kbps,
                *payload,
                *until,
            )),
            SourceSpec::Poisson {
                topic,
                rate_per_sec,
                payload,
                until,
            } => Box::new(PoissonSource::new(
                topic.clone(),
                *rate_per_sec,
                *payload,
                *until,
            )),
            SourceSpec::Items {
                topic,
                items,
                interval,
            } => Box::new(FileLinesSource::new(
                topic.clone(),
                items.clone(),
                *interval,
            )),
            SourceSpec::Custom { make, .. } => make(),
        }
    }
}

impl fmt::Debug for SourceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SourceSpec({:?})", self.topics())
    }
}

/// Static rate/size hints the analyzer extracts from a source spec:
/// the steady-state inter-record interval (mean interval for Poisson)
/// and the largest payload the source can emit. `Custom` sources are
/// opaque — no hints.
fn source_hints(src: &SourceSpec) -> (Option<SimDuration>, Option<usize>) {
    match src {
        SourceSpec::Rate {
            interval, payload, ..
        } => (Some(*interval), Some(*payload)),
        SourceSpec::RandomTopics { kbps, payload, .. } => {
            let interval = (*kbps > 0).then(|| {
                SimDuration::from_secs_f64(*payload as f64 * 8.0 / (*kbps as f64 * 1000.0))
            });
            (interval, Some(*payload))
        }
        SourceSpec::Poisson {
            rate_per_sec,
            payload,
            ..
        } => {
            let interval =
                (*rate_per_sec > 0.0).then(|| SimDuration::from_secs_f64(1.0 / *rate_per_sec));
            (interval, Some(*payload))
        }
        SourceSpec::Items {
            interval, items, ..
        } => (Some(*interval), items.iter().map(|i| i.len()).max()),
        SourceSpec::Custom { .. } => (None, None),
    }
}

/// Where a consumer stub's records go (`consType`).
pub enum ConsumerSinkSpec {
    /// Collect in memory (the `STANDARD` stub); always monitored.
    Collect,
    /// A custom sink (still wrapped by the monitor). The factory is called
    /// at build time and again for each `RestartProcess` fault on this
    /// stub — a respawned consumer starts with a fresh sink.
    Custom(Box<dyn Fn() -> Box<dyn DataSink>>),
}

impl ConsumerSinkSpec {
    fn build(&self) -> Box<dyn DataSink> {
        match self {
            ConsumerSinkSpec::Collect => Box::new(CollectingSink::default()),
            ConsumerSinkSpec::Custom(make) => make(),
        }
    }
}

impl fmt::Debug for ConsumerSinkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsumerSinkSpec::Collect => write!(f, "Collect"),
            ConsumerSinkSpec::Custom(_) => write!(f, "Custom"),
        }
    }
}

/// Sink half of a stream job (`streamProcCfg`).
pub enum SpeSinkSpec {
    /// Emit encoded events to a topic.
    Topic(String),
    /// Keep results in the worker.
    Collect,
    /// Insert rows into the store hosted on the named host.
    StoreOn {
        /// Host carrying the store server.
        host: String,
        /// Target table.
        table: String,
    },
}

impl fmt::Debug for SpeSinkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpeSinkSpec::Topic(t) => write!(f, "Topic({t})"),
            SpeSinkSpec::Collect => write!(f, "Collect"),
            SpeSinkSpec::StoreOn { host, table } => write!(f, "StoreOn({host}.{table})"),
        }
    }
}

/// One stream-processing job (`streamProcType`/`streamProcCfg`).
pub struct SpeJobSpec {
    /// Job name (unique).
    pub name: String,
    /// Source topics, in source-index order (for joins).
    pub sources: Vec<String>,
    /// Factory producing the job's plan. Called once at build time, and
    /// again for each `RestartProcess` fault so a respawned worker starts
    /// from a fresh plan before restoring its checkpoint.
    pub plan: Box<dyn Fn() -> Plan>,
    /// Result sink.
    pub sink: SpeSinkSpec,
    /// Engine configuration.
    pub cfg: SpeConfig,
    /// Parallel instances per stage. `1` (the default) keeps the classic
    /// one-worker-per-job layout; `n > 1` splits the plan at its `KeyBy`
    /// boundaries into stages of `n` instances each, connected by keyed
    /// shuffle topics, with instance `i` of a stage statically owning a
    /// contiguous range of its input partitions (and key groups).
    pub parallelism: usize,
    /// Per-stage parallelism overrides (`stage index → instances`).
    pub stage_parallelism: BTreeMap<usize, usize>,
    /// Fixed key-group count: keyed state is sliced into this many groups
    /// (`hash(key) % key_groups`), shuffle topics get exactly this many
    /// partitions, and a rescale redistributes whole groups. Must be at
    /// least the largest stage parallelism.
    pub key_groups: u32,
    /// When set, a whole-job `RestartProcess` fault respawns every stage at
    /// *this* parallelism instead of the original one — the rescale path.
    /// Each restored instance reassembles its key groups from all old
    /// instances' checkpoint chains.
    pub rescale_on_restart: Option<usize>,
    /// Cached stage count: probing it builds a full throwaway plan, which
    /// can be arbitrarily expensive (a factory may train a model), so it
    /// runs at most once per spec.
    stage_count: std::cell::OnceCell<usize>,
}

impl SpeJobSpec {
    /// Creates a job spec with the classic single-worker layout.
    pub fn new(
        name: impl Into<String>,
        sources: Vec<String>,
        plan: impl Fn() -> Plan + 'static,
        sink: SpeSinkSpec,
        cfg: SpeConfig,
    ) -> Self {
        SpeJobSpec {
            name: name.into(),
            sources,
            plan: Box::new(plan),
            sink,
            cfg,
            parallelism: 1,
            stage_parallelism: BTreeMap::new(),
            key_groups: DEFAULT_KEY_GROUPS,
            rescale_on_restart: None,
            stage_count: std::cell::OnceCell::new(),
        }
    }

    /// Runs every stage with `n` parallel instances.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn parallelism(mut self, n: usize) -> Self {
        assert!(n > 0, "parallelism must be at least 1");
        self.parallelism = n;
        self
    }

    /// Overrides one stage's parallelism (stage 0 reads the job's source
    /// topics; each `KeyBy` boundary starts the next stage).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn stage_parallelism(mut self, stage: usize, n: usize) -> Self {
        assert!(n > 0, "stage parallelism must be at least 1");
        self.stage_parallelism.insert(stage, n);
        self
    }

    /// Sets the fixed key-group count.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn key_groups(mut self, n: u32) -> Self {
        assert!(n > 0, "key_groups must be at least 1");
        self.key_groups = n;
        self
    }

    /// Restarts the whole job at parallelism `m` after a job-level
    /// crash/restart fault (rescale N→M).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rescale_on_restart(mut self, m: usize) -> Self {
        assert!(m > 0, "rescale parallelism must be at least 1");
        self.rescale_on_restart = Some(m);
        self
    }

    /// True when this job uses the parallel stage machinery.
    fn is_parallel(&self) -> bool {
        self.parallelism > 1
            || self.rescale_on_restart.is_some()
            || self.stage_parallelism.values().any(|n| *n > 1)
    }

    /// The effective parallelism of `stage`.
    fn par_of(&self, stage: usize) -> usize {
        self.stage_parallelism
            .get(&stage)
            .copied()
            .unwrap_or(self.parallelism)
    }
}

/// Default key-group count for parallel jobs (Flink's `maxParallelism`
/// scaled down to simulation size).
pub const DEFAULT_KEY_GROUPS: u32 = 16;

/// The switch every host of a generated star topology links to.
const STAR_SWITCH: &str = "s1";

/// The intermediate shuffle topic feeding `stage` of `job` (declared
/// automatically with `key_groups` partitions).
pub fn shuffle_topic(job: &str, stage: usize) -> String {
    format!("__shuffle.{job}.{stage}")
}

/// The process name of one parallel stage instance.
pub fn instance_name(job: &str, stage: usize, instance: usize) -> String {
    format!("{job}/{stage}/{instance}")
}

/// Where scenario-level checkpoints are stored.
#[derive(Debug, Clone)]
pub enum CheckpointBackendSpec {
    /// Snapshots on the orchestrator's heap, outside every worker's failure
    /// domain: instant and free, like a job-manager heap.
    InMemory,
    /// Snapshots persisted through the store server on the named host,
    /// paying simulated CPU and network cost per snapshot and per restore.
    StoreOn {
        /// Host carrying the store server.
        host: String,
    },
}

/// Scenario-level checkpointing, applied to every SPE job that does not
/// configure its own schedule.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Interval and offset-commit mode.
    pub cfg: CheckpointCfg,
    /// Snapshot storage.
    pub backend: CheckpointBackendSpec,
}

/// Where every broker's log segments and meta blob are persisted, making
/// broker crash/restart survivable.
#[derive(Debug, Clone)]
pub enum BrokerDurabilitySpec {
    /// Segments on a shared map outside the broker processes — an
    /// always-synced local disk: instant, free, survives broker crashes.
    InMemory,
    /// Segments persisted through the store server on the named host,
    /// paying simulated CPU/network cost per flush; produce acks wait for
    /// the covering flush (fsync-before-ack).
    StoreOn {
        /// Host carrying the store server.
        host: String,
    },
}

impl fmt::Debug for SpeJobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpeJobSpec")
            .field("name", &self.name)
            .field("sources", &self.sources)
            .field("sink", &self.sink)
            .finish()
    }
}

/// A scenario validation error: every `Deny`-level diagnostic the
/// analyzer produced, reported together instead of one at a time (the
/// full catalog, warnings included, comes from [`Scenario::analyze`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// The blocking diagnostics, in report order.
    pub diagnostics: Vec<Diagnostic>,
}

impl ScenarioError {
    fn from_report(report: &AnalysisReport) -> ScenarioError {
        ScenarioError {
            diagnostics: report.denials().cloned().collect(),
        }
    }

    /// True when some blocking diagnostic carries `code` (`"S2G0xx"`).
    pub fn has(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario analysis found {} blocking misconfiguration(s):",
            self.diagnostics.len()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        write!(
            f,
            "(see docs/analysis.md for the catalog; `allow_deny_diagnostics()` overrides)"
        )
    }
}

impl std::error::Error for ScenarioError {}

/// The scenario under construction — stream2gym's task description.
pub struct Scenario {
    name: String,
    seed: u64,
    duration: SimTime,
    mode: CoordinationMode,
    server: ServerSpec,
    net_cfg: NetworkConfig,
    default_link: LinkSpec,
    host_links: BTreeMap<String, LinkSpec>,
    host_cpu_pct: BTreeMap<String, f64>,
    explicit_topology: Option<Topology>,
    controller_cfg: ControllerConfig,
    topics: Vec<TopicSpec>,
    brokers: Vec<(String, BrokerConfig)>,
    stores: Vec<(String, StoreConfig)>,
    store_replication: usize,
    partition_replication: Option<u32>,
    acks_override: Option<AckMode>,
    batching: BatchingOverrides,
    transactional_sinks: bool,
    spe_jobs: Vec<(String, SpeJobSpec)>,
    producers: Vec<(String, SourceSpec, ProducerConfig)>,
    consumers: Vec<(String, ConsumerConfig, Vec<String>, ConsumerSinkSpec)>,
    faults: FaultPlan,
    checkpointing: Option<CheckpointSpec>,
    broker_durability: Option<BrokerDurabilitySpec>,
    log_compaction: bool,
    log_retention_age: Option<SimDuration>,
    log_retention_bytes: Option<usize>,
    watch_tx: Vec<String>,
    event_limit: u64,
    telemetry: bool,
    telemetry_interval: SimDuration,
    telemetry_trace: bool,
    allow_deny: bool,
}

impl Scenario {
    /// Starts an empty scenario.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            seed: 1,
            duration: SimTime::from_secs(60),
            mode: CoordinationMode::Zk,
            server: ServerSpec::default(),
            net_cfg: NetworkConfig::default(),
            default_link: LinkSpec::new(),
            host_links: BTreeMap::new(),
            host_cpu_pct: BTreeMap::new(),
            explicit_topology: None,
            controller_cfg: ControllerConfig::default(),
            topics: Vec::new(),
            brokers: Vec::new(),
            stores: Vec::new(),
            store_replication: 1,
            partition_replication: None,
            acks_override: None,
            batching: BatchingOverrides::default(),
            transactional_sinks: false,
            spe_jobs: Vec::new(),
            producers: Vec::new(),
            consumers: Vec::new(),
            faults: FaultPlan::new(),
            checkpointing: None,
            broker_durability: None,
            log_compaction: false,
            log_retention_age: None,
            log_retention_bytes: None,
            watch_tx: Vec::new(),
            event_limit: u64::MAX,
            telemetry: true,
            telemetry_interval: SimDuration::from_millis(500),
            telemetry_trace: false,
            allow_deny: false,
        }
    }

    /// Lets [`Scenario::run`] start despite `Deny`-level analyzer
    /// diagnostics — an explicit "I know, run it anyway" for experiments
    /// that deliberately misconfigure (the diagnostics still appear in
    /// [`Scenario::analyze`]).
    pub fn allow_deny_diagnostics(&mut self) -> &mut Self {
        self.allow_deny = true;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the experiment duration.
    pub fn duration(&mut self, d: SimTime) -> &mut Self {
        self.duration = d;
        self
    }

    /// Selects the coordination mode (ZooKeeper vs KRaft).
    pub fn coordination(&mut self, mode: CoordinationMode) -> &mut Self {
        self.mode = mode;
        self.controller_cfg.mode = mode;
        self
    }

    /// Overrides controller tunables.
    pub fn controller_config(&mut self, cfg: ControllerConfig) -> &mut Self {
        self.controller_cfg = cfg;
        self.controller_cfg.mode = self.mode;
        self
    }

    /// Models the underlying server (cores, memory, sampling).
    pub fn server(&mut self, spec: ServerSpec) -> &mut Self {
        self.server = spec;
        self
    }

    /// Selects the network backend (emulation vs "hardware" — Fig. 8).
    pub fn network_profile(&mut self, cfg: NetworkConfig) -> &mut Self {
        self.net_cfg = cfg;
        self
    }

    /// Sets the default link attributes for the auto-built one-big-switch
    /// topology.
    pub fn default_link(&mut self, spec: LinkSpec) -> &mut Self {
        self.default_link = spec;
        self
    }

    /// Overrides the link attributes of one host's access link.
    pub fn host_link(&mut self, host: &str, spec: LinkSpec) -> &mut Self {
        self.host_links.insert(host.to_string(), spec);
        self
    }

    /// Caps a host's CPU share (the `cpuPercentage` attribute).
    ///
    /// # Panics
    ///
    /// Panics if `pct` is not in `(0, 100]`.
    pub fn host_cpu_percentage(&mut self, host: &str, pct: f64) -> &mut Self {
        assert!(
            pct > 0.0 && pct <= 100.0,
            "cpuPercentage must be in (0, 100], got {pct}"
        );
        self.host_cpu_pct.insert(host.to_string(), pct);
        self
    }

    /// Supplies an explicit topology instead of the auto one-big-switch.
    /// Controller hosts `ctl1[,ctl2,ctl3]` must exist in it.
    pub fn topology(&mut self, topo: Topology) -> &mut Self {
        self.explicit_topology = Some(topo);
        self
    }

    /// Declares a topic.
    pub fn topic(&mut self, spec: TopicSpec) -> &mut Self {
        self.topics.push(spec);
        self
    }

    /// Places a broker (id = declaration order) on a host.
    pub fn broker(&mut self, host: &str) -> &mut Self {
        self.broker_with(host, BrokerConfig::default())
    }

    /// Places a broker with an explicit configuration.
    pub fn broker_with(&mut self, host: &str, cfg: BrokerConfig) -> &mut Self {
        self.brokers.push((host.to_string(), cfg));
        self
    }

    /// Places a data-store server on a host.
    pub fn store(&mut self, host: &str, cfg: StoreConfig) -> &mut Self {
        self.stores.push((host.to_string(), cfg));
        self
    }

    /// Places a stream-processing job on a host.
    pub fn spe_job(&mut self, host: &str, job: SpeJobSpec) -> &mut Self {
        self.spe_jobs.push((host.to_string(), job));
        self
    }

    /// Places a producer stub (id = declaration order) on a host.
    pub fn producer(&mut self, host: &str, source: SourceSpec, cfg: ProducerConfig) -> &mut Self {
        self.producers.push((host.to_string(), source, cfg));
        self
    }

    /// Places a consumer stub (id = declaration order) subscribed to
    /// `topics` on a host.
    pub fn consumer(&mut self, host: &str, cfg: ConsumerConfig, topics: &[&str]) -> &mut Self {
        self.consumer_with_sink(host, cfg, topics, ConsumerSinkSpec::Collect)
    }

    /// Places a consumer with a custom sink.
    pub fn consumer_with_sink(
        &mut self,
        host: &str,
        cfg: ConsumerConfig,
        topics: &[&str],
        sink: ConsumerSinkSpec,
    ) -> &mut Self {
        self.consumers.push((
            host.to_string(),
            cfg,
            topics.iter().map(|t| t.to_string()).collect(),
            sink,
        ));
        self
    }

    /// Installs the fault plan (`faultCfg`).
    pub fn faults(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = plan;
        self
    }

    /// Enables checkpointing for every SPE job (jobs that set their own
    /// `cfg.checkpoint` keep it), storing snapshots in memory outside the
    /// workers' failure domain.
    pub fn with_checkpointing(&mut self, cfg: CheckpointCfg) -> &mut Self {
        self.checkpointing = Some(CheckpointSpec {
            cfg,
            backend: CheckpointBackendSpec::InMemory,
        });
        self
    }

    /// Enables checkpointing with snapshots persisted through the store
    /// server on `store_host`, paying simulated CPU/network cost per
    /// snapshot and a read round trip on every restore.
    pub fn with_durable_checkpointing(
        &mut self,
        cfg: CheckpointCfg,
        store_host: &str,
    ) -> &mut Self {
        self.checkpointing = Some(CheckpointSpec {
            cfg,
            backend: CheckpointBackendSpec::StoreOn {
                host: store_host.to_string(),
            },
        });
        self
    }

    /// Replicates every declared store server across `n` replicas: the
    /// declared host carries replica 0 (the initial primary) and replicas
    /// `1..n` land on auto-added hosts `<host>-r<i>`. The primary
    /// quorum-replicates every `Put`/`Delete`/`Insert` before acking — a
    /// write is durable iff a majority applied it — and a crashed primary
    /// fails over to the lowest surviving member after the group session
    /// timeout, so checkpoints and durable broker logs survive any minority
    /// of store crashes ([`FaultPlan::crash_restart_store`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_core::Scenario;
    /// use s2g_spe::CheckpointCfg;
    /// use s2g_sim::SimDuration;
    /// use s2g_store::StoreConfig;
    ///
    /// let mut sc = Scenario::new("replicated-store");
    /// sc.store("h6", StoreConfig::default());
    /// sc.with_replicated_store(3);
    /// sc.with_durable_checkpointing(
    ///     CheckpointCfg::exactly_once(SimDuration::from_secs(1)),
    ///     "h6",
    /// );
    /// ```
    pub fn with_replicated_store(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "a store group needs at least one replica");
        self.store_replication = n;
        self
    }

    /// Overrides the replication factor of **every** topic — the ones
    /// declared with [`topic`](Scenario::topic) *and* the shuffle topics
    /// parallel SPE jobs auto-declare — so a whole scenario can be run at
    /// RF=1 and RF=3 without touching each spec. The factor is capped at
    /// the declared broker count (a 2-broker cluster can't host 3
    /// replicas). Placement is rack-aware: each broker's rack is the host
    /// it was placed on, so replicas of one partition land on distinct
    /// hosts whenever enough hosts exist.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_core::Scenario;
    ///
    /// let mut sc = Scenario::new("replicated-partitions");
    /// sc.broker("h1").broker("h2").broker("h3");
    /// sc.with_replicated_partitions(3);
    /// ```
    pub fn with_replicated_partitions(&mut self, n: u32) -> &mut Self {
        assert!(n > 0, "replication factor must be at least 1");
        self.partition_replication = Some(n);
        self
    }

    /// Overrides the ack mode of **every** producer — standalone stubs and
    /// the embedded sink producers of topic-sink SPE jobs. With
    /// [`AckMode::All`] an append is only acknowledged once the in-sync
    /// replicas (minus each broker's configured `acks_all_slack`) have it,
    /// so a leader crash after the ack cannot lose the record.
    pub fn with_acks(&mut self, acks: AckMode) -> &mut Self {
        self.acks_override = Some(acks);
        self
    }

    /// Enables or disables producer batching for **every** producer —
    /// standalone stubs and embedded SPE sink producers. Batching is on by
    /// default; `with_batching(false)` degrades producers to one record per
    /// produce request (batch of 1, zero linger), which pays the full
    /// per-request broker CPU and RPC framing for every record — the
    /// baseline the `hotpath` micro-bench compares against.
    pub fn with_batching(&mut self, on: bool) -> &mut Self {
        self.batching.disabled = !on;
        self
    }

    /// Overrides every producer's linger (the wait for more records before
    /// a partial batch is sent, Kafka `linger.ms`).
    pub fn linger_ms(&mut self, ms: u64) -> &mut Self {
        self.batching.linger = Some(SimDuration::from_millis(ms));
        self
    }

    /// Overrides every producer's batch byte threshold (Kafka
    /// `batch.size`): a batch is sealed as soon as this many record bytes
    /// accumulate, even before the linger elapses.
    pub fn batch_max_bytes(&mut self, bytes: usize) -> &mut Self {
        self.batching.max_bytes = Some(bytes);
        self
    }

    /// Enables batch compression on every producer: sealed batches carry
    /// fewer bytes on every hop (produce, replication, fetch) in exchange
    /// for compress CPU at the producer and decompress CPU at consumers.
    pub fn with_compression(&mut self, on: bool) -> &mut Self {
        self.batching.compression = Some(if on {
            Compression::Lz4
        } else {
            Compression::None
        });
        self
    }

    /// Turns every topic-sink SPE job into a checkpoint-aligned
    /// *transactional* sink and every consumer stub into a read-committed
    /// reader: sink output is staged under a transaction marker per
    /// checkpoint epoch and only becomes visible once the covering
    /// checkpoint is durable and the marker flips — end-to-end exactly-once
    /// into the sink topic, not just state-level exactly-once. A crash
    /// between the snapshot persist and the commit either rolls the
    /// transaction forward (the prepare completed) or aborts it and
    /// replays, so the committed output stream equals the fault-free run's.
    /// Requires exactly-once checkpointing on the jobs.
    pub fn with_transactional_sinks(&mut self) -> &mut Self {
        self.transactional_sinks = true;
        self
    }

    /// Enables *incremental* checkpointing for every SPE job: after each
    /// full base snapshot, captures ship only the keys/windows touched
    /// since the previous capture, so snapshot bytes scale with churn
    /// instead of with total state. After `max_delta_chain` deltas the next
    /// capture is forced to re-base, bounding restore work. Composes with
    /// either backend — call this instead of
    /// [`with_checkpointing`](Scenario::with_checkpointing), or pass an
    /// [`incremental`](CheckpointCfg::incremental) config to
    /// [`with_durable_checkpointing`](Scenario::with_durable_checkpointing).
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_core::Scenario;
    /// use s2g_spe::CheckpointCfg;
    /// use s2g_sim::SimDuration;
    ///
    /// let mut sc = Scenario::new("incremental");
    /// sc.with_incremental_checkpointing(
    ///     CheckpointCfg::exactly_once(SimDuration::from_secs(1)),
    ///     8,
    /// );
    /// ```
    pub fn with_incremental_checkpointing(
        &mut self,
        cfg: CheckpointCfg,
        max_delta_chain: u32,
    ) -> &mut Self {
        self.checkpointing = Some(CheckpointSpec {
            cfg: cfg.incremental(max_delta_chain),
            backend: CheckpointBackendSpec::InMemory,
        });
        self
    }

    /// Enables keyed log compaction on every broker: the cleaner keeps only
    /// the latest committed record per key in sealed segments (Kafka's
    /// `cleanup.policy=compact`), deletes dead segment blobs through the
    /// log backend, and bounds restart replay by live keys instead of by
    /// history. Readers observe the same per-key final state as on the raw
    /// log.
    pub fn with_log_compaction(&mut self) -> &mut Self {
        self.log_compaction = true;
        self
    }

    /// Enables time- and/or size-based segment retention on every broker:
    /// sealed, fully committed segments older than `max_age` (or beyond
    /// `max_bytes` of retained data per partition) are dropped, the log
    /// start offset advances, and late readers get an out-of-range reset to
    /// the earliest retained record.
    pub fn with_log_retention(
        &mut self,
        max_age: Option<SimDuration>,
        max_bytes: Option<usize>,
    ) -> &mut Self {
        self.log_retention_age = max_age;
        self.log_retention_bytes = max_bytes;
        self
    }

    /// Gives every broker a recoverable log on an always-synced in-memory
    /// "local disk" outside the broker processes: a crashed-and-restarted
    /// broker ([`FaultPlan::crash_restart_broker`]) replays its segments,
    /// rebuilds its high watermarks and consumer-group offsets, and resumes
    /// serving with nothing lost. Persistence is instant and free — use
    /// [`with_durable_broker`](Scenario::with_durable_broker) to pay
    /// simulated cost through a store server instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_broker::TopicSpec;
    /// use s2g_core::Scenario;
    /// use s2g_net::FaultPlan;
    /// use s2g_sim::{SimDuration, SimTime};
    ///
    /// let mut sc = Scenario::new("broker-bounce");
    /// sc.topic(TopicSpec::new("events")).with_recoverable_broker();
    /// sc.broker("h1");
    /// sc.faults(FaultPlan::new().crash_restart_broker(
    ///     0,
    ///     SimTime::from_secs(10),
    ///     SimDuration::from_secs(2),
    /// ));
    /// let result = sc.run()?;
    /// let recovery = result.report.brokers[0].recovery.expect("broker bounced");
    /// assert!(recovery.recovered_at.is_some());
    /// # Ok::<(), s2g_core::ScenarioError>(())
    /// ```
    pub fn with_recoverable_broker(&mut self) -> &mut Self {
        self.broker_durability = Some(BrokerDurabilitySpec::InMemory);
        self
    }

    /// Gives every broker a durable log persisted through the store server
    /// on `store_host`: dirty segments and the committed-offset/metadata
    /// snapshot ship over the emulated network on every flush (paying the
    /// store's CPU cost), produce acknowledgements wait for the covering
    /// flush, and a restarted broker pays a read round trip per blob while
    /// it replays — the recovery-latency cost the report surfaces in
    /// [`BrokerRecoveryReport`].
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_broker::TopicSpec;
    /// use s2g_core::Scenario;
    /// use s2g_store::StoreConfig;
    ///
    /// let mut sc = Scenario::new("durable-broker");
    /// sc.topic(TopicSpec::new("events"));
    /// sc.broker("h1");
    /// sc.store("h2", StoreConfig::default());
    /// sc.with_durable_broker("h2");
    /// assert!(sc.run().is_ok());
    /// ```
    pub fn with_durable_broker(&mut self, store_host: &str) -> &mut Self {
        self.broker_durability = Some(BrokerDurabilitySpec::StoreOn {
            host: store_host.to_string(),
        });
        self
    }

    /// Samples per-second transmit throughput of the named nodes (Fig. 6d).
    pub fn watch_throughput(&mut self, nodes: &[&str]) -> &mut Self {
        self.watch_tx = nodes.iter().map(|n| n.to_string()).collect();
        self
    }

    /// Turns the always-on metrics registry's periodic sampling on or off.
    /// On (the default), a sampler process snapshots every registered
    /// metric — consumer lag, per-instance record counts, broker log
    /// sizes, checkpoint histograms, host CPU occupancy — into per-metric
    /// time series every [`telemetry_interval`](Scenario::telemetry_interval),
    /// surfaced through [`RunReport::metric_series`] and
    /// [`RunResult::telemetry`]. Sampling is a pure observer (no RNG, no
    /// messages), so same-seed runs are identical with it on or off.
    pub fn with_telemetry(&mut self, on: bool) -> &mut Self {
        self.telemetry = on;
        self
    }

    /// Sets the metric-sampling cadence (default 500 ms).
    pub fn telemetry_interval(&mut self, d: SimDuration) -> &mut Self {
        self.telemetry_interval = d;
        self
    }

    /// Enables causal event tracing: typed spans for record lifecycle
    /// (produce, broker append, fetch, shuffle hop, operator batch, sink
    /// commit), checkpoint barriers and persists, transaction phases, and
    /// every fault-injection and recovery phase. Off by default (traces
    /// grow with traffic); export with
    /// [`RunResult::telemetry`]`.chrome_json()` and open the file in
    /// `chrome://tracing` or Perfetto.
    pub fn with_telemetry_trace(&mut self, on: bool) -> &mut Self {
        self.telemetry_trace = on;
        self
    }

    /// Caps the total number of simulation events (livelock guard).
    pub fn event_limit(&mut self, limit: u64) -> &mut Self {
        self.event_limit = limit;
        self
    }

    fn controller_hosts(&self) -> Vec<String> {
        let n = match self.mode {
            CoordinationMode::Zk => 1,
            CoordinationMode::Kraft => 3,
        };
        (1..=n).map(|i| format!("ctl{i}")).collect()
    }

    /// Hosts carrying one store declaration's replicas: the declared host
    /// first, then the auto-added `-r<i>` hosts.
    fn store_replica_hosts(&self, host: &str) -> Vec<String> {
        (0..self.store_replication)
            .map(|i| {
                if i == 0 {
                    host.to_string()
                } else {
                    format!("{host}-r{i}")
                }
            })
            .collect()
    }

    /// The host one parallel stage instance runs on (auto-added, so each
    /// instance gets its own access link and CPU — the point of scaling
    /// out).
    fn instance_host(host: &str, stage: usize, index: usize) -> String {
        format!("{host}-{stage}-{index}")
    }

    /// `(stage count, per-stage maximum instance count)` of one job —
    /// maximum covers both the initial parallelism and any rescale target,
    /// so hosts are provisioned for every instance that may ever exist.
    fn job_stage_layout(job: &SpeJobSpec) -> (usize, Vec<usize>) {
        let n_stages = *job.stage_count.get_or_init(|| (job.plan)().stage_count());
        let max_per: Vec<usize> = (0..n_stages)
            .map(|s| job.par_of(s).max(job.rescale_on_restart.unwrap_or(0)))
            .collect();
        (n_stages, max_per)
    }

    fn component_hosts(&self) -> Vec<String> {
        let mut seen = Vec::new();
        let mut push = |h: &String| {
            if !seen.contains(h) {
                seen.push(h.clone());
            }
        };
        for (h, _) in &self.brokers {
            push(h);
        }
        for (h, _) in &self.stores {
            for rh in self.store_replica_hosts(h) {
                push(&rh);
            }
        }
        for (h, job) in &self.spe_jobs {
            if job.is_parallel() {
                let (n_stages, max_per) = Self::job_stage_layout(job);
                for (s, max) in max_per.iter().enumerate().take(n_stages) {
                    for i in 0..*max {
                        push(&Self::instance_host(h, s, i));
                    }
                }
            } else {
                push(h);
            }
        }
        for (h, _, _) in &self.producers {
            push(h);
        }
        for (h, _, _, _) in &self.consumers {
            push(h);
        }
        seen
    }

    /// Applies every scenario-level override exactly once: the shuffle
    /// topics parallel jobs auto-declare, the replication override (capped
    /// at the broker count), broker cleaning, producer acks and batching,
    /// consumer read-committed isolation and stable group member ids, and
    /// the SPE checkpoint/transaction/acks/batching settings.
    /// [`Scenario::analyze`] checks the result and [`Scenario::run`] spawns
    /// from it, so the two cannot drift apart.
    fn lower(&self) -> Lowered {
        let mut topics = self.topics.clone();
        for (_, job) in &self.spe_jobs {
            if job.is_parallel() {
                // One topic per stage boundary, with exactly `key_groups`
                // partitions so the keyed partitioner *is* the shuffle
                // router.
                let (n_stages, _) = Self::job_stage_layout(job);
                for s in 1..n_stages {
                    topics.push(
                        TopicSpec::new(shuffle_topic(&job.name, s)).partitions(job.key_groups),
                    );
                }
            }
        }
        if let Some(rf) = self.partition_replication {
            // Shuffle topics replicate too; the cap lets a small cluster
            // still run.
            let cap = (self.brokers.len() as u32).max(1);
            for t in &mut topics {
                t.replication = rf.min(cap);
            }
        }
        let topic_facts = topics
            .iter()
            .enumerate()
            .map(|(k, t)| TopicFacts {
                name: t.name.clone(),
                partitions: t.partitions,
                replication: t.replication,
                declared_replication: self.topics.get(k).map_or(1, |d| d.replication),
                shuffle: k >= self.topics.len(),
            })
            .collect();
        let brokers = self
            .brokers
            .iter()
            .map(|(host, cfg)| {
                // A per-broker config that already enables a cleaning
                // policy keeps it.
                let mut cfg = cfg.clone();
                cfg.log_compaction |= self.log_compaction;
                cfg.log_retention_age = cfg.log_retention_age.or(self.log_retention_age);
                cfg.log_retention_bytes = cfg.log_retention_bytes.or(self.log_retention_bytes);
                BrokerFacts {
                    host: host.clone(),
                    cfg,
                }
            })
            .collect();
        let mut controller = self.controller_cfg.clone();
        controller.mode = self.mode;
        let producers: Vec<ProducerFacts> = self
            .producers
            .iter()
            .enumerate()
            .map(|(i, (_, src, cfg))| {
                let mut cfg = cfg.clone();
                if let Some(acks) = self.acks_override {
                    cfg.acks = acks;
                }
                self.batching.apply(&mut cfg);
                let (min_interval, max_payload) = source_hints(src);
                ProducerFacts {
                    name: format!("producer-{i}"),
                    topics: src.topics(),
                    cfg,
                    min_interval,
                    max_payload,
                }
            })
            .collect();
        let consumers: Vec<ConsumerFacts> = self
            .consumers
            .iter()
            .enumerate()
            .map(|(i, (_, cfg, topics, _))| {
                let name = format!("consumer-{i}");
                let mut cfg = cfg.clone();
                if self.transactional_sinks {
                    // Observing a transactional sink's exactly-once output
                    // requires read-committed isolation on the reader.
                    cfg.read_committed = true;
                }
                if cfg.group_membership && cfg.group_member_id.is_empty() {
                    // A stable member id makes sticky assignment stick
                    // across this stub's crash/restart.
                    cfg.group_member_id = name.clone();
                }
                ConsumerFacts {
                    name,
                    topics: topics.clone(),
                    cfg,
                }
            })
            .collect();
        let jobs: Vec<JobFacts> = self
            .spe_jobs
            .iter()
            .map(|(_, job)| {
                let mut cfg = job.cfg.clone();
                if cfg.checkpoint.is_none() {
                    if let Some(spec) = &self.checkpointing {
                        cfg.checkpoint = Some(spec.cfg);
                    }
                }
                if self.transactional_sinks {
                    // Stage topic-sink (and shuffle) output under per-epoch
                    // transaction markers, and read upstream (possibly also
                    // transactional) topics with read-committed isolation.
                    cfg.transactional_sink = true;
                    cfg.consumer.read_committed = true;
                }
                if let Some(acks) = self.acks_override {
                    cfg.producer.acks = acks;
                }
                self.batching.apply(&mut cfg.producer);
                let parallel = job.is_parallel();
                let (n_stages, max_per) = if parallel {
                    Self::job_stage_layout(job)
                } else {
                    (1, vec![1])
                };
                let (sink_topic, sink_store_host) = match &job.sink {
                    SpeSinkSpec::Topic(t) => (Some(t.clone()), None),
                    SpeSinkSpec::StoreOn { host, .. } => (None, Some(host.clone())),
                    SpeSinkSpec::Collect => (None, None),
                };
                JobFacts {
                    name: job.name.clone(),
                    sources: job.sources.clone(),
                    sink_topic,
                    sink_store_host,
                    cfg,
                    parallel,
                    n_stages,
                    max_per,
                    key_groups: job.key_groups,
                    rescale: job.rescale_on_restart,
                }
            })
            .collect();
        let faults = self
            .faults
            .events()
            .iter()
            .map(|(at, action)| {
                let (target, kind) = match action {
                    FaultAction::CrashProcess(n) => {
                        (FaultTarget::Process(n.clone()), FaultKind::Crash)
                    }
                    FaultAction::RestartProcess(n) => {
                        (FaultTarget::Process(n.clone()), FaultKind::Restart)
                    }
                    FaultAction::CrashBroker(b) => (FaultTarget::Broker(*b), FaultKind::Crash),
                    FaultAction::RestartBroker(b) => (FaultTarget::Broker(*b), FaultKind::Restart),
                    FaultAction::CrashStore(r) => (FaultTarget::Store(*r), FaultKind::Crash),
                    FaultAction::RestartStore(r) => (FaultTarget::Store(*r), FaultKind::Restart),
                    FaultAction::Disconnect(h) | FaultAction::NodeDown(h) => {
                        (FaultTarget::Net(h.clone()), FaultKind::Crash)
                    }
                    FaultAction::Reconnect(h) | FaultAction::NodeUp(h) => {
                        (FaultTarget::Net(h.clone()), FaultKind::Restart)
                    }
                    FaultAction::LinkDown(a, b) => {
                        (FaultTarget::Net(format!("{a}-{b}")), FaultKind::Crash)
                    }
                    FaultAction::LinkUp(a, b) => {
                        (FaultTarget::Net(format!("{a}-{b}")), FaultKind::Restart)
                    }
                    FaultAction::SetLoss(a, b, _) | FaultAction::SetLatency(a, b, _) => {
                        (FaultTarget::Net(format!("{a}-{b}")), FaultKind::Other)
                    }
                    FaultAction::RecomputeRoutes => {
                        (FaultTarget::Net("routes".into()), FaultKind::Other)
                    }
                };
                FaultFacts {
                    at: *at,
                    target,
                    kind,
                }
            })
            .collect();
        let targets = process_targets(&jobs, producers.len(), consumers.len());
        let required_hosts: Vec<String> = self
            .component_hosts()
            .into_iter()
            .chain(self.controller_hosts())
            .collect();
        let network_nodes = match &self.explicit_topology {
            Some(t) => t.nodes().map(|(_, n)| n.name.clone()).collect(),
            None => std::iter::once(STAR_SWITCH.to_string())
                .chain(required_hosts.iter().cloned())
                .collect(),
        };
        let facts = ScenarioFacts {
            name: self.name.clone(),
            duration: self.duration,
            link_latency: self.default_link.latency,
            controller,
            topics: topic_facts,
            partition_replication: self.partition_replication,
            brokers,
            store_hosts: self.stores.iter().map(|(h, _)| h.clone()).collect(),
            store_replication: self.store_replication,
            producers,
            consumers,
            jobs,
            faults,
            valid_process_targets: targets.keys().cloned().collect(),
            required_hosts,
            network_nodes,
            watched_nodes: self.watch_tx.clone(),
            checkpoint_interval: self.checkpointing.as_ref().map(|s| s.cfg.interval),
            checkpoint_store_host: match &self.checkpointing {
                Some(CheckpointSpec {
                    backend: CheckpointBackendSpec::StoreOn { host },
                    ..
                }) => Some(host.clone()),
                _ => None,
            },
            durability_store_host: match &self.broker_durability {
                Some(BrokerDurabilitySpec::StoreOn { host }) => Some(host.clone()),
                _ => None,
            },
            log_retention_age: self.log_retention_age,
            transactional_sinks: self.transactional_sinks,
        };
        Lowered {
            facts,
            topics,
            targets,
        }
    }

    /// Runs the full static feasibility ruleset over this scenario without
    /// simulating anything: every `S2G0xx` diagnostic the description
    /// triggers, `Deny` and `Warn` alike (`docs/analysis.md` has the
    /// catalog). [`Scenario::run`] refuses to start while `Deny`
    /// diagnostics are present, unless [`Scenario::allow_deny_diagnostics`]
    /// was called.
    pub fn analyze(&self) -> AnalysisReport {
        analyze_facts(&self.lower().facts)
    }

    fn build_topology(&self) -> Topology {
        if let Some(t) = &self.explicit_topology {
            return t.clone();
        }
        let mut topo = Topology::new();
        topo.add_switch(STAR_SWITCH).expect("fresh topology");
        for host in self
            .component_hosts()
            .iter()
            .chain(&self.controller_hosts())
        {
            if topo.lookup(host).is_some() {
                continue;
            }
            topo.add_host(host.as_str()).expect("unique hosts");
            let spec = self
                .host_links
                .get(host)
                .copied()
                .unwrap_or(self.default_link);
            topo.add_link(host, STAR_SWITCH, spec).expect("valid link");
        }
        topo
    }

    /// Lowers, analyzes, builds, runs, and reports.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the description is inconsistent.
    pub fn run(self) -> Result<RunResult, ScenarioError> {
        let Lowered {
            facts,
            topics,
            targets,
        } = self.lower();
        let analysis = analyze_facts(&facts);
        if analysis.has_deny() && !self.allow_deny {
            return Err(ScenarioError::from_report(&analysis));
        }
        // Baseline for the zero-copy regression gate: any delta over the
        // run means some path deep-copied a shared RecordBatch.
        let batch_copies_before = s2g_proto::shared_batch_copies();
        let duration = self.duration;
        let topo = self.build_topology();
        let n_switches = topo
            .nodes()
            .filter(|(_, n)| n.kind == s2g_net::NodeKind::Switch)
            .count();
        let net = Network::with_config(topo, self.net_cfg).into_handle();
        let mut sim = Sim::new(self.seed);
        sim.set_transport(Box::new(NetTransport(net.clone())));
        sim.set_event_limit(self.event_limit);

        // Run-wide telemetry: one shared registry/series/tracer handle every
        // component records into. Created before the components so build and
        // respawn recipes alike attach the same handle.
        let tele = Telemetry::new();
        tele.set_trace_enabled(self.telemetry_trace);

        // CPU per host; ledger for memory.
        let mut cpus: BTreeMap<String, CpuHandle> = BTreeMap::new();
        for (_, node) in net.borrow().topology().nodes() {
            if node.kind == s2g_net::NodeKind::Host {
                let speed = self.host_cpu_pct.get(&node.name).copied().unwrap_or(100.0) / 100.0;
                cpus.insert(
                    node.name.clone(),
                    HostCpu::shared(node.name.clone(), self.server.cores, speed),
                );
            }
        }
        let baseline = MemModel::JVM.os_base + MemModel::JVM.per_switch * n_switches as u64;
        let ledger: LedgerHandle = MemLedger::new(baseline).into_handle();

        // Deterministic pid layout: controllers, brokers, store replicas
        // group by group, stage instances, producers, consumers.
        let ctrl_hosts = self.controller_hosts();
        let n_ctrl = ctrl_hosts.len() as u32;
        let nb = facts.brokers.len() as u32;
        let controller_pids: Vec<ProcessId> = (0..n_ctrl).map(ProcessId).collect();
        let broker_pids: BTreeMap<BrokerId, ProcessId> = (0..nb)
            .map(|i| (BrokerId(i), ProcessId(n_ctrl + i)))
            .collect();
        let bootstrap_for = |host: &str| {
            let i = facts.brokers.iter().position(|b| b.host == host);
            ProcessId(n_ctrl + i.unwrap_or(0) as u32)
        };

        // Stores. With `with_replicated_store(n)` each declaration becomes
        // an n-member group: replica 0 on the declared host, the rest on
        // auto-added `<host>-r<i>` hosts. SPE store sinks address replica
        // 0; durability clients get the whole group and rotate through it
        // on timeout.
        let mut stores: Vec<StoreReplica> = Vec::new();
        let mut store_groups: BTreeMap<String, Vec<ProcessId>> = BTreeMap::new();
        for (host, cfg) in &self.stores {
            let first = n_ctrl + nb + stores.len() as u32;
            let group: Vec<ProcessId> = (first..first + self.store_replication as u32)
                .map(ProcessId)
                .collect();
            for (index, replica_host) in self.store_replica_hosts(host).into_iter().enumerate() {
                stores.push(StoreReplica {
                    group_host: host.clone(),
                    host: replica_host,
                    cfg: cfg.clone(),
                    group: group.clone(),
                    index,
                });
            }
            store_groups.insert(host.clone(), group);
        }

        // Controllers. Each broker's rack is the host it is placed on, so
        // topic creation spreads a partition's replicas across hosts before
        // reusing one (Kafka's `broker.rack`).
        let racks: BTreeMap<BrokerId, String> = facts
            .brokers
            .iter()
            .enumerate()
            .map(|(i, b)| (BrokerId(i as u32), b.host.clone()))
            .collect();
        match self.mode {
            CoordinationMode::Zk => {
                let pid = sim.spawn(Box::new(ZkController::with_racks(
                    facts.controller.clone(),
                    broker_pids.clone(),
                    &topics,
                    &racks,
                )));
                place(&net, pid, &ctrl_hosts[0]);
                ledger
                    .borrow_mut()
                    .register("zk-controller", MemModel::JVM.controller);
            }
            CoordinationMode::Kraft => {
                let quorum: BTreeMap<BrokerId, ProcessId> = (0..n_ctrl)
                    .map(|i| (BrokerId(100_000 + i), controller_pids[i as usize]))
                    .collect();
                for (i, host) in ctrl_hosts.iter().enumerate() {
                    let pid = sim.spawn(Box::new(KraftController::with_racks(
                        BrokerId(100_000 + i as u32),
                        quorum.clone(),
                        broker_pids.clone(),
                        facts.controller.clone(),
                        topics.clone(),
                        racks.clone(),
                    )));
                    place(&net, pid, host);
                    ledger
                        .borrow_mut()
                        .register(format!("kraft-{i}"), MemModel::JVM.controller);
                }
            }
        }

        // Every other component comes from the lowered configs plus the
        // factories only the scenario holds (plans, sources, sinks). Each
        // classic SPE job is the degenerate 1×1 layout keeping the job
        // name, host, and producer id it always had.
        let jobs: Vec<SpeJobMeta> = self
            .spe_jobs
            .into_iter()
            .zip(facts.jobs)
            .enumerate()
            .map(|(j, ((host, spec), f))| {
                let stage_par: Vec<usize> = (0..f.n_stages)
                    .map(|s| if f.parallel { spec.par_of(s) } else { 1 })
                    .collect();
                let sink = match spec.sink {
                    SpeSinkSpec::Topic(t) => SpeSink::Topic(t),
                    SpeSinkSpec::Collect => SpeSink::Collect,
                    SpeSinkSpec::StoreOn { host: sh, table } => SpeSink::Store {
                        store: store_groups.get(&sh).expect("validated store host")[0],
                        table,
                    },
                };
                SpeJobMeta {
                    name: f.name,
                    bootstrap: bootstrap_for(&host),
                    host,
                    plan: spec.plan,
                    cfg: f.cfg,
                    sources: f.sources,
                    sink,
                    parallel: f.parallel,
                    n_stages: f.n_stages,
                    key_groups: f.key_groups,
                    prev_stage_par: stage_par.clone(),
                    stage_par,
                    rescale: f.rescale,
                    job_idx: j,
                }
            })
            .collect();
        let producers: Vec<ProducerStub> = self
            .producers
            .into_iter()
            .zip(facts.producers)
            .map(|((host, source, _), f)| ProducerStub {
                bootstrap: bootstrap_for(&host),
                host,
                source,
                cfg: f.cfg,
            })
            .collect();
        let consumers: Vec<ConsumerStub> = self
            .consumers
            .into_iter()
            .zip(facts.consumers)
            .map(|((host, _, _, sink), f)| ConsumerStub {
                bootstrap: bootstrap_for(&host),
                host,
                cfg: f.cfg,
                topics: f.topics,
                sink,
            })
            .collect();
        let mut table = Components {
            entries: BTreeMap::new(),
            targets,
            brokers: facts.brokers,
            stores,
            jobs,
            producers,
            consumers,
            mode: self.mode,
            controller_pids,
            broker_pids,
            durability: self.broker_durability,
            log_store: log_store(),
            checkpointing: self.checkpointing,
            snapshots: snapshot_store(),
            store_groups,
            ledger: ledger.clone(),
            tele: tele.clone(),
            monitor: MonitorCore::new_handle(),
            cpus,
            net: net.clone(),
        };
        for (k, key) in table.initial_keys().into_iter().enumerate() {
            let pid = table.spawn(&mut sim, key, SimTime::ZERO, 0);
            debug_assert_eq!(pid, ProcessId(n_ctrl + k as u32), "pid layout");
        }

        // Fault injector, memory sampler, throughput sampler. Process-level
        // crash/restart events are applied by this orchestrator (it owns the
        // component table); the injector handles the network-level rest.
        let process_events: Vec<(SimTime, FaultAction)> =
            self.faults.process_events().cloned().collect();
        if self.faults.has_network_events() {
            sim.spawn(Box::new(FaultInjector::new(net.clone(), self.faults)));
        }
        let sampler_pid = sim.spawn(Box::new(MemSampler::new(
            ledger.clone(),
            self.server.sample_interval,
            duration,
        )));
        // A watched node the network lacks (one the analyzer denied and
        // `allow_deny_diagnostics` let through) gets no series.
        let names: Vec<&str> = self
            .watch_tx
            .iter()
            .filter(|n| facts.network_nodes.contains(n))
            .map(String::as_str)
            .collect();
        let tx_pid = if names.is_empty() {
            None
        } else {
            Some(sim.spawn(Box::new(TxSampler::new(
                net.clone(),
                &names,
                SimDuration::from_secs(1),
                duration,
            ))))
        };
        // The telemetry sampler is spawned after every other process so
        // toggling it never shifts an existing pid (and with it the
        // deterministic event order of a seeded run).
        if self.telemetry {
            let sampler_cpus: Vec<(String, CpuHandle)> = table
                .cpus
                .iter()
                .map(|(h, c)| (h.clone(), c.clone()))
                .collect();
            sim.spawn(Box::new(
                tele.sampler(self.telemetry_interval, sampler_cpus),
            ));
        }

        // Execute, pausing at each process-fault instant to crash or
        // restart the targeted components.
        for (at, action) in process_events {
            if at >= duration {
                break;
            }
            sim.run_until(at);
            // A target the table cannot find (one the analyzer denied and
            // `allow_deny_diagnostics` let through) is skipped.
            let Some((target, crash, scope)) = table.resolve(&action) else {
                continue;
            };
            let phase = if crash {
                "fault:crash"
            } else {
                "fault:restart"
            };
            tele.trace_instant(at, &scope, phase, "fault");
            match target {
                Target::One(key) if crash => table.crash(&mut sim, key, at),
                Target::One(key) => table.restart(&mut sim, key, at),
                Target::Job(j) if crash => {
                    for key in table.job_keys(j) {
                        table.crash(&mut sim, key, at);
                    }
                }
                Target::Job(j) => table.restart_job(&mut sim, j, at),
            }
        }
        sim.run_until(duration);

        // Harvest the report.
        let producers_report: Vec<ProducerReport> = (0..table.producers.len())
            .map(|i| {
                let key = Key::Producer(i);
                let recovery = table.entries[&key].client_recovery();
                let p = table
                    .process_mut::<ProducerProcess>(&mut sim, key)
                    .expect("producer process (live or corpse)");
                // The report takes the stub's logs instead of copying them.
                let (outcomes, sent_index) = p.take_logs();
                ProducerReport {
                    id: ProducerId(i as u32),
                    stats: p.client().stats(),
                    outcomes,
                    sent_index,
                    recovery,
                }
            })
            .collect();
        let consumers_report: Vec<ConsumerReport> = (0..table.consumers.len())
            .map(|i| {
                let key = Key::Consumer(i);
                let c = table
                    .process::<ConsumerProcess>(&sim, key)
                    .expect("consumer process (live or corpse)");
                ConsumerReport {
                    id: i as u32,
                    stats: c.client().stats(),
                    recovery: table.entries[&key].client_recovery(),
                }
            })
            .collect();
        // Two passes over the brokers: attributing leadership moves to one
        // crashed broker needs every *other* broker's election history.
        type BrokerView = (
            BrokerStats,
            Vec<(SimTime, TopicPartition, bool)>,
            Option<BrokerRecoveryInfo>,
        );
        let broker_views: Vec<BrokerView> = (0..nb)
            .map(|i| {
                let b = table
                    .process::<Broker>(&sim, Key::Broker(i))
                    .expect("broker process (live or corpse)");
                (b.stats(), b.leadership_events().to_vec(), b.recovery_info())
            })
            .collect();
        let isr_shrinks: u64 = broker_views.iter().map(|(s, _, _)| s.isr_shrinks).sum();
        let isr_expands: u64 = broker_views.iter().map(|(s, _, _)| s.isr_expands).sum();
        let mut brokers_report = Vec::new();
        for (i, (stats, events, info)) in broker_views.iter().enumerate() {
            let info = *info;
            let crashed_at = table.entries[&Key::Broker(i as u32)].crashed_at;
            let recovery = crashed_at.map(|t| {
                // Partitions some *other* broker won at/after the crash:
                // leadership that moved off (or shuffled around) this
                // broker while it was down.
                let moved: std::collections::BTreeSet<&TopicPartition> = broker_views
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .flat_map(|(_, (_, ev, _))| ev.iter())
                    .filter(|(at, _, became)| *became && *at >= t)
                    .map(|(_, tp, _)| tp)
                    .collect();
                BrokerRecoveryReport {
                    crashed_at: t,
                    restarted_at: info.map(|r| r.restarted_at),
                    recovered_at: info.and_then(|r| r.recovered_at),
                    replayed_records: info.map_or(0, |r| r.replayed_records),
                    replayed_bytes: info.map_or(0, |r| r.replayed_bytes),
                    replayed_segments: info.map_or(0, |r| r.replayed_segments),
                    replay_saved_bytes: info.map_or(0, |r| r.replay_saved_bytes),
                    leadership_moves: moved.len() as u64,
                    isr_shrinks,
                    isr_expands,
                }
            });
            brokers_report.push(BrokerReport {
                id: BrokerId(i as u32),
                stats: *stats,
                leadership_events: events.clone(),
                recovery,
            });
        }
        let stores_report: Vec<StoreReport> = table
            .stores
            .iter()
            .enumerate()
            .map(|(r, replica)| {
                let key = Key::Store(r as u32);
                let st = table.process::<StoreServer>(&sim, key);
                let recovery = table.entries[&key].crashed_at.map(|t| {
                    let info = st.and_then(StoreServer::recovery_info);
                    StoreRecoveryReport {
                        crashed_at: t,
                        restarted_at: info.map(|i| i.restarted_at),
                        resynced_at: info.and_then(|i| i.resynced_at),
                        sync_ops: info.map_or(0, |i| i.sync_ops),
                        sync_bytes: info.map_or(0, |i| i.sync_bytes),
                    }
                });
                StoreReport {
                    host: replica.group_host.clone(),
                    replica: replica.index as u32,
                    kv_keys: st.map_or(0, |sv| sv.kv().len() as u64),
                    is_primary: st.is_some_and(StoreServer::is_primary),
                    oplog_len: st.map_or(0, |sv| sv.oplog_len() as u64),
                    oplog_truncated: st.map_or(0, StoreServer::oplog_truncated),
                    recovery,
                }
            })
            .collect();
        let mut spe_report = BTreeMap::new();
        let mut spe_instances = BTreeMap::new();
        for (j, meta) in table.jobs.iter().enumerate() {
            let mut per: Vec<(usize, SpeReport)> = Vec::new();
            for key in table.job_keys(j) {
                let Key::Instance(_, stage, _) = key else {
                    unreachable!("job keys are stage instances")
                };
                let c = &table.entries[&key];
                let w = table.process::<SpeWorker>(&sim, key);
                let recovery = c.crashed_at.map(|t| {
                    let info = w.and_then(SpeWorker::recovery_info);
                    RecoveryReport {
                        crashed_at: t,
                        restarted_at: info.map(|i| i.restarted_at),
                        restored_at: info.and_then(|i| i.restored_at),
                        snapshot_taken_at: info.and_then(|i| i.snapshot_taken_at),
                        snapshot_bytes: info.map_or(0, |i| i.snapshot_bytes),
                        delta_chain_len: info.map_or(0, |i| i.delta_chain),
                        first_batch_at: info.and_then(|i| i.first_batch_at),
                    }
                });
                let w = w.expect("spe instance (live or corpse)");
                let report = SpeReport {
                    metrics: w.metrics().to_vec(),
                    record_counts: w.plan().record_counts(),
                    collected: w.collected().to_vec(),
                    mean_busy_runtime: w.mean_busy_runtime(),
                    checkpoints: w.checkpoint_stats(),
                    checkpoint_log: w.checkpoint_persist_log(),
                    consumer_stats: w.consumer().stats(),
                    recovery,
                };
                if meta.parallel {
                    spe_instances.insert(c.name.clone(), report.clone());
                }
                per.push((stage, report));
            }
            let agg = if meta.parallel {
                aggregate_spe_reports(meta, &per)
            } else {
                per.into_iter()
                    .next()
                    .map(|(_, r)| r)
                    .expect("one worker per classic job")
            };
            spe_report.insert(meta.name.clone(), agg);
        }
        let sampler = sim
            .process_ref::<MemSampler>(sampler_pid)
            .expect("mem sampler");
        let mem_samples = sampler.samples().to_vec();
        let peak_mem_bytes = sampler.peak_bytes();
        let tx_series = tx_pid
            .map(|pid| {
                sim.process_ref::<TxSampler>(pid)
                    .expect("tx sampler")
                    .series()
                    .to_vec()
            })
            .unwrap_or_default();
        let cpu_handles: Vec<CpuHandle> = table.cpus.values().cloned().collect();
        let cpu_series = cpu_utilization_series(
            &cpu_handles,
            self.server.sample_interval,
            duration,
            self.server.cores,
        );

        // The data plane is designed so no hop ever deep-copies a shared
        // batch (producers retry Arc clones, brokers borrow, followers are
        // sole owners); surface the run's delta so tests and the CI perf
        // gate can assert it stayed zero.
        let shared_batch_copies = s2g_proto::shared_batch_copies() - batch_copies_before;
        tele.counter_add("runtime", "shared_batch_copies", shared_batch_copies);

        let metric_series: Vec<MetricSeries> = tele.series().all().to_vec();

        let report = RunReport {
            name: self.name,
            duration,
            server: self.server,
            sim_stats: sim.stats(),
            producers: producers_report,
            consumers: consumers_report,
            brokers: brokers_report,
            stores: stores_report,
            spe: spe_report,
            spe_instances,
            mem_samples,
            peak_mem_bytes,
            cpu_series,
            tx_series,
            metric_series,
            shared_batch_copies,
        };

        let pids = |f: fn(&Key) -> bool| -> Vec<ProcessId> {
            table
                .entries
                .iter()
                .filter(|(k, _)| f(k))
                .map(|(_, c)| c.pid)
                .collect()
        };
        let producer_pids = pids(|k| matches!(k, Key::Producer(_)));
        let consumer_pids = pids(|k| matches!(k, Key::Consumer(_)));
        let spe_pids = table
            .entries
            .iter()
            .filter(|(k, _)| matches!(k, Key::Instance(..)))
            .map(|(_, c)| (c.name.clone(), c.pid))
            .collect();
        let store_pids = table
            .store_groups
            .iter()
            .map(|(host, group)| (host.clone(), group[0]))
            .collect();
        Ok(RunResult {
            sim,
            net,
            monitor: table.monitor,
            ledger,
            cpus: table.cpus,
            broker_pids: table.broker_pids.into_values().collect(),
            producer_pids,
            consumer_pids,
            spe_pids,
            store_pids,
            store_group_pids: table.store_groups,
            checkpoint_snapshots: table.snapshots,
            telemetry: tele,
            report,
        })
    }
}

/// Scenario-wide batching overrides applied to every producer config
/// (standalone stubs and embedded SPE sink producers).
#[derive(Debug, Clone, Copy, Default)]
struct BatchingOverrides {
    /// `with_batching(false)`: collapse to one record per produce request.
    disabled: bool,
    linger: Option<SimDuration>,
    max_bytes: Option<usize>,
    compression: Option<Compression>,
}

impl BatchingOverrides {
    fn apply(&self, cfg: &mut ProducerConfig) {
        if let Some(l) = self.linger {
            cfg.linger = l;
        }
        if let Some(b) = self.max_bytes {
            cfg.batch_max_bytes = b;
        }
        if let Some(c) = self.compression {
            cfg.compression = c;
        }
        if self.disabled {
            // Per-record requests: every record pays the full request
            // overhead. Compression is pointless on batches of one.
            cfg.batch_max_records = 1;
            cfg.batch_max_bytes = 1;
            cfg.linger = SimDuration::ZERO;
            cfg.compression = Compression::None;
        }
    }
}

/// A scenario after [`Scenario::lower`]: the analyzer's facts plus what
/// only the spawner needs.
struct Lowered {
    /// Effective configs, topics, hosts and the normalized fault plan.
    facts: ScenarioFacts,
    /// Declared plus auto-declared shuffle topics, replication applied.
    topics: Vec<TopicSpec>,
    /// Every process name a fault may target (the analyzer's
    /// `valid_process_targets` are its keys).
    targets: BTreeMap<String, Target>,
}

/// One entry of the run's component table, by kind and index. The derived
/// order is also the initial spawn order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Broker(u32),
    /// A store replica, by global replica index.
    Store(u32),
    /// A stage instance: `(job, stage, instance)`.
    Instance(usize, usize, usize),
    Producer(usize),
    Consumer(usize),
}

/// What a crash/restart fault acts on.
#[derive(Clone, Copy)]
enum Target {
    /// Every stage instance of a job; a restart is where a rescale takes
    /// effect.
    Job(usize),
    /// One component.
    One(Key),
}

/// Names every process a crash/restart fault may target: each job, each
/// `job/stage/instance` a parallel job may ever run (rescale targets
/// included), the `job/instance` shorthand for its last stage, and the
/// `producer-<idx>`/`consumer-<idx>` stubs. The first name wins a clash, so
/// job names shadow everything else.
fn process_targets(
    jobs: &[JobFacts],
    producers: usize,
    consumers: usize,
) -> BTreeMap<String, Target> {
    let mut names: Vec<(String, Target)> = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| (job.name.clone(), Target::Job(j)))
        .collect();
    for (j, job) in jobs.iter().enumerate().filter(|(_, job)| job.parallel) {
        let instance = |s: usize, i: usize| Target::One(Key::Instance(j, s, i));
        for (s, max) in job.max_per.iter().enumerate() {
            names.extend((0..*max).map(|i| (instance_name(&job.name, s, i), instance(s, i))));
        }
        let last = job.n_stages - 1;
        names.extend(
            (0..job.max_per[last]).map(|i| (format!("{}/{i}", job.name), instance(last, i))),
        );
    }
    names.extend((0..producers).map(|i| (format!("producer-{i}"), Target::One(Key::Producer(i)))));
    names.extend((0..consumers).map(|i| (format!("consumer-{i}"), Target::One(Key::Consumer(i)))));
    let mut targets = BTreeMap::new();
    for (name, target) in names {
        targets.entry(name).or_insert(target);
    }
    targets
}

/// Places a spawned process on its host.
fn place(net: &NetHandle, pid: ProcessId, host: &str) {
    let mut n = net.borrow_mut();
    let node = n
        .topology()
        .lookup(host)
        .unwrap_or_else(|| panic!("host `{host}` missing from topology"));
    n.place(pid, node);
}

/// One spawned process in the run's component table.
struct Component {
    /// `broker-<i>`, `store-<host>`, the stage instance (or classic job)
    /// name, `producer-<i>` or `consumer-<i>`.
    name: String,
    host: String,
    pid: ProcessId,
    slot: MemSlot,
    /// 0 at the initial spawn, bumped by every respawn (an instance a
    /// rescale adds starts at 1). A broker stamps it into its heartbeats,
    /// a stage instance uses it as its sink producer's epoch.
    incarnation: u64,
    /// The fault plan's last crash of this component.
    crashed_at: Option<SimTime>,
    /// The respawn after that crash.
    restarted_at: Option<SimTime>,
    /// The dead process while it is down, so the report can still read
    /// its pre-crash metrics.
    corpse: Option<Box<dyn Process>>,
}

impl Component {
    fn client_recovery(&self) -> Option<ClientRecoveryReport> {
        self.crashed_at.map(|crashed_at| ClientRecoveryReport {
            crashed_at,
            restarted_at: self.restarted_at,
        })
    }
}

/// One store-group replica's recipe.
struct StoreReplica {
    /// The declared host (names the group).
    group_host: String,
    /// The host this replica runs on (`<host>` or `<host>-r<i>`).
    host: String,
    cfg: StoreConfig,
    /// Every member's pid, in index order.
    group: Vec<ProcessId>,
    /// Member index within the group.
    index: usize,
}

/// A producer stub's recipe. A respawn reuses the same producer id and —
/// deliberately — the same producer epoch: the source restarts from record
/// zero, and the broker's idempotent dedup recognizes the already-appended
/// `(epoch, seq)` prefix and acknowledges it without appending second
/// copies, so the log converges to the no-fault contents.
struct ProducerStub {
    host: String,
    source: SourceSpec,
    cfg: ProducerConfig,
    bootstrap: ProcessId,
}

/// A consumer stub's recipe. A respawned group member resumes from its
/// broker-committed offsets; without a group it restarts at the log start
/// and re-reads (duplicate deliveries the monitor makes observable).
struct ConsumerStub {
    host: String,
    cfg: ConsumerConfig,
    topics: Vec<String>,
    sink: ConsumerSinkSpec,
    bootstrap: ProcessId,
}

/// The run's component table: one entry per spawned broker, store replica,
/// stage instance and client stub, plus the recipes and run-wide handles
/// that build them. Spawning, crashing, restarting and the report's
/// live-or-corpse lookup each have one path through it.
struct Components {
    entries: BTreeMap<Key, Component>,
    targets: BTreeMap<String, Target>,
    brokers: Vec<BrokerFacts>,
    stores: Vec<StoreReplica>,
    jobs: Vec<SpeJobMeta>,
    producers: Vec<ProducerStub>,
    consumers: Vec<ConsumerStub>,
    mode: CoordinationMode,
    controller_pids: Vec<ProcessId>,
    broker_pids: BTreeMap<BrokerId, ProcessId>,
    durability: Option<BrokerDurabilitySpec>,
    log_store: LogStoreHandle,
    checkpointing: Option<CheckpointSpec>,
    snapshots: SnapshotStoreHandle,
    store_groups: BTreeMap<String, Vec<ProcessId>>,
    ledger: LedgerHandle,
    tele: Telemetry,
    monitor: MonitorHandle,
    cpus: BTreeMap<String, CpuHandle>,
    net: NetHandle,
}

impl Components {
    /// Every component present at the start, in spawn (and key) order.
    fn initial_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = (0..self.brokers.len() as u32).map(Key::Broker).collect();
        keys.extend((0..self.stores.len() as u32).map(Key::Store));
        for (j, meta) in self.jobs.iter().enumerate() {
            for (s, par) in meta.stage_par.iter().enumerate() {
                keys.extend((0..*par).map(|i| Key::Instance(j, s, i)));
            }
        }
        keys.extend((0..self.producers.len()).map(Key::Producer));
        keys.extend((0..self.consumers.len()).map(Key::Consumer));
        keys
    }

    /// Every spawned stage instance of job `j`, retired ones included.
    fn job_keys(&self, j: usize) -> Vec<Key> {
        self.entries
            .range(Key::Instance(j, 0, 0)..Key::Instance(j + 1, 0, 0))
            .map(|(k, _)| *k)
            .collect()
    }

    /// The one fault resolver: a crash/restart action's target, whether it
    /// crashes, and the name its trace marker carries. `None` when the
    /// table cannot find the target.
    fn resolve(&self, action: &FaultAction) -> Option<(Target, bool, String)> {
        let named = |n: &String| Some((*self.targets.get(n)?, n.clone()));
        let entry = |key: Key| Some((Target::One(key), self.entries.get(&key)?.name.clone()));
        let ((target, name), crash) = match action {
            FaultAction::CrashProcess(n) => (named(n)?, true),
            FaultAction::RestartProcess(n) => (named(n)?, false),
            FaultAction::CrashBroker(b) => (entry(Key::Broker(*b))?, true),
            FaultAction::RestartBroker(b) => (entry(Key::Broker(*b))?, false),
            FaultAction::CrashStore(r) => (entry(Key::Store(*r))?, true),
            FaultAction::RestartStore(r) => (entry(Key::Store(*r))?, false),
            _ => return None,
        };
        Some((target, crash, name))
    }

    /// The one spawn path: registers the memory slot, builds the process
    /// from its recipe, starts it at `at` on its host's CPU, and places it.
    fn spawn(&mut self, sim: &mut Sim, key: Key, at: SimTime, incarnation: u64) -> ProcessId {
        let m = &MemModel::JVM;
        let (name, host, mem) = match key {
            Key::Broker(i) => (
                format!("broker-{i}"),
                self.brokers[i as usize].host.clone(),
                m.broker,
            ),
            Key::Store(r) => {
                let host = self.stores[r as usize].host.clone();
                (format!("store-{host}"), host, m.store)
            }
            Key::Instance(j, s, i) => {
                let meta = &self.jobs[j];
                (meta.instance_name(s, i), meta.instance_host(s, i), m.spe)
            }
            Key::Producer(i) => {
                let p = &self.producers[i];
                let heap = p.cfg.buffer_memory as f64 * m.producer_heap_factor;
                (
                    format!("producer-{i}"),
                    p.host.clone(),
                    m.producer_base + heap as u64,
                )
            }
            Key::Consumer(i) => (
                format!("consumer-{i}"),
                self.consumers[i].host.clone(),
                m.consumer,
            ),
        };
        let ledger_name = match key {
            Key::Instance(..) => format!("spe-{name}"),
            _ => name.clone(),
        };
        let slot = self.ledger.borrow_mut().register(ledger_name, mem);
        let pid = sim.spawn_at(at, self.build(key, &name, slot, incarnation));
        if let Some(cpu) = self.cpus.get(&host) {
            sim.attach_cpu(pid, cpu.clone());
        }
        place(&self.net, pid, &host);
        self.entries.insert(
            key,
            Component {
                name,
                host,
                pid,
                slot,
                incarnation,
                crashed_at: None,
                restarted_at: None,
                corpse: None,
            },
        );
        pid
    }

    /// The one crash path: kills a live component and keeps its corpse.
    fn crash(&mut self, sim: &mut Sim, key: Key, at: SimTime) {
        let Some(c) = self.entries.get_mut(&key) else {
            return;
        };
        if let Some(corpse) = sim.kill(c.pid) {
            c.crashed_at = Some(at);
            c.restarted_at = None;
            c.corpse = Some(corpse);
        }
    }

    /// The one restart path: rebuilds a dead component in place (same pid,
    /// slot and host, bumped incarnation). A live one is left alone. A
    /// stage instance that was never spawned (a rescale grew its stage)
    /// starts fresh on its pre-provisioned host and still restores its key
    /// groups from the old instances' checkpoint chains.
    fn restart(&mut self, sim: &mut Sim, key: Key, at: SimTime) {
        let Some(c) = self.entries.get(&key) else {
            if let Key::Instance(..) = key {
                self.spawn(sim, key, at, 1);
            }
            return;
        };
        if sim.is_alive(c.pid) {
            return;
        }
        let (pid, incarnation) = (c.pid, c.incarnation + 1);
        let p = self.build(key, &c.name, c.slot, incarnation);
        sim.respawn(pid, p);
        let c = self.entries.get_mut(&key).expect("looked up above");
        if let Some(cpu) = self.cpus.get(&c.host) {
            sim.attach_cpu(pid, cpu.clone());
        }
        c.incarnation = incarnation;
        c.restarted_at = Some(at);
        c.corpse = None;
    }

    /// Restarts a whole job. Every stage adopts the rescale target
    /// parallelism, if one is set, and each respawned instance restores
    /// from the *previous* layout's chains.
    fn restart_job(&mut self, sim: &mut Sim, j: usize, at: SimTime) {
        let meta = &mut self.jobs[j];
        meta.prev_stage_par = meta.stage_par.clone();
        if let Some(m) = meta.rescale {
            meta.stage_par.fill(m);
        }
        if meta.stage_par != meta.prev_stage_par {
            // A rescale redraws every instance's key-group ownership, so
            // still-running instances of the old layout are bounced too:
            // left alive they would keep fetching their old partitions,
            // overlapping the new layout's owners. Those within the new
            // layout respawn below with the new wiring; those beyond it are
            // retired.
            for key in self.job_keys(j) {
                self.crash(sim, key, at);
            }
        }
        let meta = &self.jobs[j];
        let keys: Vec<Key> = (0..meta.n_stages)
            .flat_map(|s| (0..meta.stage_par[s]).map(move |i| Key::Instance(j, s, i)))
            .collect();
        for key in keys {
            self.restart(sim, key, at);
        }
        // Later single-instance respawns restore from the new layout.
        let meta = &mut self.jobs[j];
        meta.prev_stage_par = meta.stage_par.clone();
    }

    /// The one live-or-corpse lookup: a crashed-and-not-restarted
    /// component is absent from the process table, so its report reads the
    /// corpse.
    fn process<'a, T: Process>(&'a self, sim: &'a Sim, key: Key) -> Option<&'a T> {
        let c = self.entries.get(&key)?;
        sim.process_ref::<T>(c.pid).or_else(|| {
            let corpse = c.corpse.as_deref()?;
            (corpse as &dyn std::any::Any).downcast_ref::<T>()
        })
    }

    /// [`process`](Self::process), mutably.
    fn process_mut<'a, T: Process>(&'a mut self, sim: &'a mut Sim, key: Key) -> Option<&'a mut T> {
        let c = self.entries.get_mut(&key)?;
        if let Some(p) = sim.process_mut::<T>(c.pid) {
            return Some(p);
        }
        let corpse = c.corpse.as_deref_mut()?;
        (corpse as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    /// Builds one component from its kind's recipe: incarnation 0 is the
    /// initial spawn, anything later a recovering respawn.
    fn build(&self, key: Key, name: &str, slot: MemSlot, incarnation: u64) -> Box<dyn Process> {
        let recover = incarnation > 0;
        match key {
            Key::Broker(i) => {
                let mut b = Broker::new(
                    BrokerId(i),
                    self.brokers[i as usize].cfg.clone(),
                    self.mode,
                    self.controller_pids.clone(),
                    self.broker_pids.clone(),
                );
                b.set_mem_slot(self.ledger.clone(), slot);
                b.set_incarnation(incarnation);
                b.set_telemetry(self.tele.clone());
                match &self.durability {
                    Some(BrokerDurabilitySpec::InMemory) => b.set_durability(
                        Box::new(InMemoryLogBackend::new(self.log_store.clone())),
                        recover,
                    ),
                    Some(BrokerDurabilitySpec::StoreOn { host }) => b.set_durability(
                        Box::new(DurableLogBackend::replicated(
                            self.store_groups
                                .get(host)
                                .expect("validated broker-log store")
                                .clone(),
                            incarnation,
                        )),
                        recover,
                    ),
                    // Without a log backend the broker restarts empty (the
                    // data-loss contrast); still record metrics.
                    None if recover => b.mark_restarted(),
                    None => {}
                }
                Box::new(b)
            }
            Key::Store(r) => {
                let replica = &self.stores[r as usize];
                let mut st = StoreServer::new(replica.cfg.clone());
                st.set_name(name);
                st.set_mem_slot(self.ledger.clone(), slot);
                st.set_telemetry(self.tele.clone());
                if replica.group.len() > 1 {
                    // A recovering member pulls the op log from a ready
                    // peer before serving again.
                    st.set_group(replica.group.clone(), replica.index, recover);
                }
                Box::new(st)
            }
            Key::Instance(j, s, i) => Box::new(self.build_worker(j, s, i, name, slot, incarnation)),
            Key::Producer(i) => {
                let stub = &self.producers[i];
                let mut client = ProducerClient::new(
                    ProducerId(i as u32),
                    stub.cfg.clone(),
                    stub.bootstrap,
                    self.broker_pids.clone(),
                    0,
                );
                client.set_mem_slot(self.ledger.clone(), slot);
                let mut p = ProducerProcess::new(client, stub.source.build());
                p.set_telemetry(self.tele.clone());
                Box::new(p)
            }
            Key::Consumer(i) => {
                let stub = &self.consumers[i];
                let sink = MonitoredSink::new(self.monitor.clone(), i as u32, stub.sink.build());
                let client = ConsumerClient::new(
                    stub.cfg.clone(),
                    stub.bootstrap,
                    self.broker_pids.clone(),
                    stub.topics.clone(),
                );
                let mut p = ConsumerProcess::new(i as u32, client, Box::new(sink));
                p.set_telemetry(self.tele.clone());
                Box::new(p)
            }
        }
    }

    /// Builds one stage instance around a fresh plan. A recovering
    /// instance restores from every old instance of its stage (under the
    /// pre-restart parallelism) and keeps only the key groups it owns now —
    /// the rescale-correct redistribution.
    fn build_worker(
        &self,
        j: usize,
        stage: usize,
        index: usize,
        name: &str,
        slot: MemSlot,
        incarnation: u64,
    ) -> SpeWorker {
        let meta = &self.jobs[j];
        let recover = incarnation > 0;
        let full = (meta.plan)();
        let plan = if meta.parallel {
            full.into_stages()
                .into_iter()
                .nth(stage)
                .expect("stage index within the probed stage count")
        } else {
            full
        };
        let mut w = SpeWorker::new(
            name.to_string(),
            meta.cfg.clone(),
            meta.stage_sources(stage),
            plan,
            meta.stage_sink(stage),
            meta.bootstrap,
            self.broker_pids.clone(),
            meta.producer_id(stage, index),
        );
        w.set_mem_slot(self.ledger.clone(), slot);
        if meta.parallel {
            let old_par = meta.prev_stage_par[stage];
            let restore_from: Vec<String> = if recover {
                (0..old_par)
                    .map(|k| instance_name(&meta.name, stage, k))
                    .collect()
            } else {
                Vec::new()
            };
            let old_producers: Vec<ProducerId> =
                (0..old_par).map(|k| meta.producer_id(stage, k)).collect();
            w.set_instance(StageInstanceCfg {
                stage,
                instance: index as u32,
                parallelism: meta.stage_par[stage] as u32,
                key_groups: meta.key_groups,
                restore_from,
                old_producers,
            });
        }
        if meta.cfg.checkpoint.is_some() {
            let backend: Box<dyn StateBackend> =
                match self.checkpointing.as_ref().map(|s| &s.backend) {
                    Some(CheckpointBackendSpec::StoreOn { host }) => {
                        Box::new(DurableBackend::replicated(
                            self.store_groups
                                .get(host)
                                .expect("validated checkpoint store host")
                                .clone(),
                        ))
                    }
                    _ => Box::new(InMemoryBackend::new(self.snapshots.clone())),
                };
            w.attach_checkpointing(backend, recover);
        }
        // After the checkpointing attach so the coordinator is covered too.
        w.set_telemetry(self.tele.clone());
        if recover {
            w.mark_restarted();
            w.set_producer_epoch(incarnation as u32);
        }
        w
    }
}

/// The per-job half of the SPE build state: everything shared by (and
/// needed to rebuild) the job's stage instances, plus the current and
/// previous per-stage parallelism — the rescale bookkeeping.
struct SpeJobMeta {
    name: String,
    host: String,
    plan: Box<dyn Fn() -> Plan>,
    cfg: SpeConfig,
    sources: Vec<String>,
    sink: SpeSink,
    parallel: bool,
    n_stages: usize,
    key_groups: u32,
    /// Current parallelism per stage (changes on a rescale restart).
    stage_par: Vec<usize>,
    /// Parallelism each stage ran at before the in-flight restart — the
    /// instance set whose chains a respawn restores from.
    prev_stage_par: Vec<usize>,
    rescale: Option<usize>,
    job_idx: usize,
    bootstrap: ProcessId,
}

impl SpeJobMeta {
    fn instance_name(&self, stage: usize, index: usize) -> String {
        if self.parallel {
            instance_name(&self.name, stage, index)
        } else {
            self.name.clone()
        }
    }

    fn instance_host(&self, stage: usize, index: usize) -> String {
        if self.parallel {
            Scenario::instance_host(&self.host, stage, index)
        } else {
            self.host.clone()
        }
    }

    /// Stable producer id per (job, stage, instance); the classic layout
    /// keeps its original `1000 + job` id.
    fn producer_id(&self, stage: usize, index: usize) -> ProducerId {
        if self.parallel {
            ProducerId(100_000 + self.job_idx as u32 * 10_000 + stage as u32 * 100 + index as u32)
        } else {
            ProducerId(1_000 + self.job_idx as u32)
        }
    }

    /// Stage 0 reads the job's declared sources; later stages read their
    /// keyed shuffle topic.
    fn stage_sources(&self, stage: usize) -> Vec<String> {
        if stage == 0 {
            self.sources.clone()
        } else {
            vec![shuffle_topic(&self.name, stage)]
        }
    }

    /// The last stage feeds the job's declared sink; earlier stages feed
    /// the next stage's shuffle topic.
    fn stage_sink(&self, stage: usize) -> SpeSink {
        if stage + 1 == self.n_stages {
            self.sink.clone()
        } else {
            SpeSink::Topic(shuffle_topic(&self.name, stage + 1))
        }
    }
}

/// Folds a parallel job's per-instance reports into one job-level report:
/// input records are counted at stage 0, output records at the last stage,
/// batch metrics interleave in time order, checkpoint/consumer counters
/// add, and the recovery entry follows the earliest-crashed instance.
fn aggregate_spe_reports(meta: &SpeJobMeta, per: &[(usize, SpeReport)]) -> SpeReport {
    let mut metrics: Vec<BatchMetric> = per
        .iter()
        .flat_map(|(_, r)| r.metrics.iter().copied())
        .collect();
    metrics.sort_by_key(|m| (m.start, m.end));
    let records_in: u64 = per
        .iter()
        .filter(|(s, _)| *s == 0)
        .map(|(_, r)| r.record_counts.0)
        .sum();
    let records_out: u64 = per
        .iter()
        .filter(|(s, _)| *s + 1 == meta.n_stages)
        .map(|(_, r)| r.record_counts.1)
        .sum();
    let collected: Vec<Event> = per
        .iter()
        .flat_map(|(_, r)| r.collected.iter().cloned())
        .collect();
    let busy: Vec<&BatchMetric> = metrics.iter().filter(|m| m.records_in > 0).collect();
    let mean_busy_runtime = if busy.is_empty() {
        SimDuration::ZERO
    } else {
        SimDuration::from_nanos(
            busy.iter().map(|m| m.runtime().as_nanos()).sum::<u64>() / busy.len() as u64,
        )
    };
    let mut checkpoints = CheckpointStats::default();
    for (_, r) in per {
        checkpoints.absorb(&r.checkpoints);
    }
    let mut checkpoint_log: Vec<(SimTime, SimTime)> = per
        .iter()
        .flat_map(|(_, r)| r.checkpoint_log.iter().copied())
        .collect();
    checkpoint_log.sort();
    let mut consumer_stats = ConsumerStats::default();
    for (_, r) in per {
        let c = &r.consumer_stats;
        consumer_stats.fetches += c.fetches;
        consumer_stats.records += c.records;
        consumer_stats.timeouts += c.timeouts;
        consumer_stats.offset_resets += c.offset_resets;
        consumer_stats.offset_commits += c.offset_commits;
        consumer_stats.resumed_partitions += c.resumed_partitions;
        consumer_stats.group_joins += c.group_joins;
        consumer_stats.rebalances += c.rebalances;
    }
    let recovery = per
        .iter()
        .filter_map(|(_, r)| r.recovery)
        .min_by_key(|r| r.crashed_at);
    SpeReport {
        metrics,
        record_counts: (records_in, records_out),
        collected,
        mean_busy_runtime,
        checkpoints,
        checkpoint_log,
        consumer_stats,
        recovery,
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("brokers", &self.brokers.len())
            .field("producers", &self.producers.len())
            .field("consumers", &self.consumers.len())
            .field("spe_jobs", &self.spe_jobs.len())
            .field("topics", &self.topics.len())
            .finish()
    }
}

/// Crash/restart bookkeeping for one client stub targeted by the fault
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRecoveryReport {
    /// When the fault plan killed the stub.
    pub crashed_at: SimTime,
    /// When the respawned stub started (`None`: never restarted).
    pub restarted_at: Option<SimTime>,
}

/// Per-producer results.
#[derive(Debug, Clone)]
pub struct ProducerReport {
    /// Producer id (declaration order).
    pub id: ProducerId,
    /// Counters. For a crashed-and-restarted stub these reflect the
    /// respawned incarnation (the pre-crash one died with its process).
    pub stats: ProducerStats,
    /// Completed record outcomes.
    pub outcomes: Vec<ProduceOutcome>,
    /// All sends as `(topic, seq, created)`.
    pub sent_index: Vec<(String, u64, SimTime)>,
    /// Crash/restart metrics; present when this stub was crashed by the
    /// fault plan.
    pub recovery: Option<ClientRecoveryReport>,
}

/// Per-consumer results.
#[derive(Debug, Clone, Copy)]
pub struct ConsumerReport {
    /// Consumer index.
    pub id: u32,
    /// Counters. For a crashed-and-restarted stub these reflect the
    /// respawned incarnation.
    pub stats: ConsumerStats,
    /// Crash/restart metrics; present when this stub was crashed by the
    /// fault plan.
    pub recovery: Option<ClientRecoveryReport>,
}

/// Per-broker results.
#[derive(Debug, Clone)]
pub struct BrokerReport {
    /// Broker id.
    pub id: BrokerId,
    /// Counters.
    pub stats: BrokerStats,
    /// Leadership transitions (time, partition, became-leader).
    pub leadership_events: Vec<(SimTime, TopicPartition, bool)>,
    /// Crash/recovery metrics; present when this broker was crashed by the
    /// fault plan.
    pub recovery: Option<BrokerRecoveryReport>,
}

/// Recovery metrics for one crashed (and possibly restarted) broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerRecoveryReport {
    /// When the fault plan killed the broker.
    pub crashed_at: SimTime,
    /// When the respawned broker started (`None`: never restarted).
    pub restarted_at: Option<SimTime>,
    /// When log replay completed and the broker resumed serving.
    pub recovered_at: Option<SimTime>,
    /// Records rebuilt from persisted segments.
    pub replayed_records: u64,
    /// Encoded segment bytes read back during replay.
    pub replayed_bytes: u64,
    /// Segments read back during replay.
    pub replayed_segments: u64,
    /// Bytes compaction/retention reclaimed before the crash — replay work
    /// the restarted broker never had to do. The replay-savings half of the
    /// bounded-recovery story.
    pub replay_saved_bytes: u64,
    /// Distinct partitions some *other* broker was elected leader of at or
    /// after the crash — leadership that moved off (or shuffled around)
    /// this broker while it was down. Zero at RF=1: nobody else can take
    /// over, the partitions just go dark.
    pub leadership_moves: u64,
    /// ISR shrink events recorded cluster-wide over the run (leaders
    /// dropping a lagging or dead replica from the in-sync set).
    pub isr_shrinks: u64,
    /// ISR expand events recorded cluster-wide over the run (caught-up
    /// followers re-admitted to the in-sync set).
    pub isr_expands: u64,
}

impl BrokerRecoveryReport {
    /// Restart-to-serving latency: what durable-log replay costs.
    pub fn replay_latency(&self) -> Option<SimDuration> {
        match (self.restarted_at, self.recovered_at) {
            (Some(a), Some(b)) => Some(b.saturating_since(a)),
            _ => None,
        }
    }

    /// Crash-to-serving latency: the broker's unavailability window.
    pub fn unavailability(&self) -> Option<SimDuration> {
        self.recovered_at
            .map(|t| t.saturating_since(self.crashed_at))
    }
}

/// Per-store-replica results.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// The declared store host (the group's name).
    pub host: String,
    /// Replica index within the group (0 = initial primary).
    pub replica: u32,
    /// KV keys resident at the end of the run.
    pub kv_keys: u64,
    /// Whether this replica was the acting primary at the end of the run.
    pub is_primary: bool,
    /// Group op-log entries still retained at the end of the run (bounded
    /// by peer-acked truncation).
    pub oplog_len: u64,
    /// Ops this replica discarded as primary via peer-acked truncation.
    pub oplog_truncated: u64,
    /// Crash/recovery metrics; present when this replica was crashed by the
    /// fault plan.
    pub recovery: Option<StoreRecoveryReport>,
}

/// Recovery metrics for one crashed (and possibly restarted) store replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRecoveryReport {
    /// When the fault plan killed the replica.
    pub crashed_at: SimTime,
    /// When the respawned replica started (`None`: never restarted).
    pub restarted_at: Option<SimTime>,
    /// When op-log catch-up completed and the replica rejoined its group.
    pub resynced_at: Option<SimTime>,
    /// Ops pulled from a peer during catch-up.
    pub sync_ops: u64,
    /// Approximate bytes transferred during catch-up.
    pub sync_bytes: u64,
}

impl StoreRecoveryReport {
    /// Restart-to-rejoined latency: what op-log catch-up costs.
    pub fn resync_latency(&self) -> Option<SimDuration> {
        match (self.restarted_at, self.resynced_at) {
            (Some(a), Some(b)) => Some(b.saturating_since(a)),
            _ => None,
        }
    }

    /// Crash-to-rejoined latency: how long the group ran a member short.
    pub fn unavailability(&self) -> Option<SimDuration> {
        self.resynced_at
            .map(|t| t.saturating_since(self.crashed_at))
    }
}

/// Per-SPE-job results.
#[derive(Debug, Clone)]
pub struct SpeReport {
    /// Per-batch metrics.
    pub metrics: Vec<BatchMetric>,
    /// `(records_in, records_out)` through the plan.
    pub record_counts: (u64, u64),
    /// Locally collected results (Collect sink only).
    pub collected: Vec<Event>,
    /// Mean runtime over non-empty batches.
    pub mean_busy_runtime: SimDuration,
    /// Checkpoint counters (zeros when checkpointing is disabled).
    pub checkpoints: CheckpointStats,
    /// `(accepted, durable)` instants of every persisted capture — the
    /// per-checkpoint latency series (what store replication inflates).
    pub checkpoint_log: Vec<(SimTime, SimTime)>,
    /// The worker's embedded consumer counters; `offset_resets == 0` on a
    /// recovery run means the worker resumed from committed offsets.
    pub consumer_stats: ConsumerStats,
    /// Crash/recovery metrics; present when this job was crashed by the
    /// fault plan.
    pub recovery: Option<RecoveryReport>,
}

/// Recovery metrics for one crashed (and possibly restarted) SPE job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// When the fault plan killed the worker.
    pub crashed_at: SimTime,
    /// When the respawned worker started (None: never restarted).
    pub restarted_at: Option<SimTime>,
    /// When state restoration completed.
    pub restored_at: Option<SimTime>,
    /// Capture time of the newest restored chain element.
    pub snapshot_taken_at: Option<SimTime>,
    /// Encoded bytes read back during restore (base + deltas).
    pub snapshot_bytes: u64,
    /// Deltas applied on top of the base during restore (0 for a full
    /// snapshot restore).
    pub delta_chain_len: u64,
    /// Completion time of the first post-restart batch with input.
    pub first_batch_at: Option<SimTime>,
}

impl RecoveryReport {
    /// Crash-to-first-processed-batch latency: the user-visible outage.
    pub fn recovery_latency(&self) -> Option<SimDuration> {
        self.first_batch_at
            .map(|t| t.saturating_since(self.crashed_at))
    }

    /// Restart-to-restore latency: what the state backend costs.
    pub fn restore_latency(&self) -> Option<SimDuration> {
        match (self.restarted_at, self.restored_at) {
            (Some(a), Some(b)) => Some(b.saturating_since(a)),
            _ => None,
        }
    }
}

/// Everything measured during a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Configured duration.
    pub duration: SimTime,
    /// The modeled server.
    pub server: ServerSpec,
    /// Kernel counters.
    pub sim_stats: SimStats,
    /// Producer results, by declaration order.
    pub producers: Vec<ProducerReport>,
    /// Consumer results, by declaration order.
    pub consumers: Vec<ConsumerReport>,
    /// Broker results, by id.
    pub brokers: Vec<BrokerReport>,
    /// Store-replica results, in flattened replica order (declaration
    /// order x replication factor). Empty when no store is declared.
    pub stores: Vec<StoreReport>,
    /// SPE results, by job name. For parallel jobs this is the aggregated
    /// view (stage-0 input, last-stage output, summed counters); the
    /// per-instance breakdown is in
    /// [`spe_instances`](RunReport::spe_instances).
    pub spe: BTreeMap<String, SpeReport>,
    /// Per-instance SPE results of parallel jobs, keyed by
    /// `job/stage/instance` (empty when no job is parallel).
    pub spe_instances: BTreeMap<String, SpeReport>,
    /// Memory samples (500 ms cadence).
    pub mem_samples: Vec<(SimTime, u64)>,
    /// Peak memory observed.
    pub peak_mem_bytes: u64,
    /// Server CPU utilization per sampling window.
    pub cpu_series: Vec<(SimTime, f64)>,
    /// Per-node transmit throughput series (when watched).
    pub tx_series: Vec<TxSeries>,
    /// Every metric time series the telemetry sampler collected (empty when
    /// sampling is disabled via [`Scenario::with_telemetry`]): consumer lag
    /// per partition, per-instance record counts, broker log/LSO gauges,
    /// checkpoint counters, store op-log lengths, host CPU occupancy.
    pub metric_series: Vec<MetricSeries>,
    /// Times a shared [`RecordBatch`](s2g_proto::RecordBatch) had to be
    /// deep-copied during the run. The batch-first data plane keeps this at
    /// zero; a regression that reintroduces per-consumer record cloning
    /// shows up here (also exported as the `runtime/shared_batch_copies`
    /// telemetry counter).
    pub shared_batch_copies: u64,
}

impl RunReport {
    /// Peak memory as a fraction of the server's memory.
    pub fn peak_mem_fraction(&self) -> f64 {
        self.peak_mem_bytes as f64 / self.server.mem_bytes as f64
    }

    /// CPU utilization samples as plain numbers (for CDFs).
    pub fn cpu_samples(&self) -> Vec<f64> {
        self.cpu_series.iter().map(|(_, u)| *u).collect()
    }
}

/// A finished run: the report plus live handles for deeper inspection.
pub struct RunResult {
    /// The simulator (query processes via `process_ref`).
    pub sim: Sim,
    /// The emulated network.
    pub net: NetHandle,
    /// The delivery monitor.
    pub monitor: MonitorHandle,
    /// The memory ledger.
    pub ledger: LedgerHandle,
    /// Per-host CPU models.
    pub cpus: BTreeMap<String, CpuHandle>,
    /// Broker process ids, by broker id.
    pub broker_pids: Vec<ProcessId>,
    /// Producer process ids, by declaration order.
    pub producer_pids: Vec<ProcessId>,
    /// Consumer process ids, by declaration order.
    pub consumer_pids: Vec<ProcessId>,
    /// SPE worker process ids: by job name for classic jobs, by
    /// `job/stage/instance` for parallel jobs' instances.
    pub spe_pids: BTreeMap<String, ProcessId>,
    /// Store process ids, by host (a replicated store's replica 0).
    pub store_pids: BTreeMap<String, ProcessId>,
    /// Every store replica's process id, by declared host, in member-index
    /// order (equals `store_pids` singletons without replication).
    pub store_group_pids: BTreeMap<String, Vec<ProcessId>>,
    /// The in-memory checkpoint snapshots taken during the run, by job name
    /// (empty for durable backends, whose snapshots live in the store).
    pub checkpoint_snapshots: SnapshotStoreHandle,
    /// The run-wide telemetry handle: the live metrics registry, the
    /// sampled time series (`tidy_csv()`), and the causal event trace
    /// (`chrome_json()` when tracing was enabled).
    pub telemetry: Telemetry,
    /// The measurements.
    pub report: RunReport,
}

impl RunResult {
    /// Builds the Fig. 6b delivery matrix for one producer across all
    /// consumers.
    pub fn delivery_matrix(&self, producer_idx: usize) -> DeliveryMatrix {
        let p = &self.report.producers[producer_idx];
        let consumers: Vec<u32> = self.report.consumers.iter().map(|c| c.id).collect();
        let core = self.monitor.borrow();
        DeliveryMatrix::build(&core, p.id, p.sent_index.clone(), &consumers)
    }

    /// Mean end-to-end latency over a topic's deliveries.
    pub fn mean_latency(&self, topic: &str) -> Option<SimDuration> {
        self.monitor.borrow().mean_latency(topic)
    }

    /// Total records delivered across all consumers.
    pub fn total_deliveries(&self) -> usize {
        self.monitor.borrow().deliveries.len()
    }
}

impl fmt::Debug for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunResult")
            .field("report", &self.report.name)
            .field("deliveries", &self.total_deliveries())
            .finish()
    }
}
