//! A plain-data view of a scenario, extracted by `s2g-core` before a run.
//!
//! The analyzer never sees the `Scenario` type itself (that would make
//! `s2g-core` and `s2g-analyze` mutually dependent); core flattens the
//! builder state — with every scenario-level override already applied, so
//! rules reason about *effective* configs — into these structs and hands
//! them to [`crate::analyze`].

use s2g_broker::{BrokerConfig, ConsumerConfig, ControllerConfig, ProducerConfig};
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::SpeConfig;

/// One declared (or auto-declared shuffle) topic.
#[derive(Debug, Clone)]
pub struct TopicFacts {
    /// Topic name.
    pub name: String,
    /// Partition count.
    pub partitions: u32,
    /// Effective replication factor (after any
    /// `with_replicated_partitions` override and broker-count cap).
    pub replication: u32,
    /// Replication factor as literally declared on the `TopicSpec`,
    /// before any override/cap — what the author asked for.
    pub declared_replication: u32,
    /// True for a generated `__shuffle.<job>.<stage>` topic.
    pub shuffle: bool,
}

/// One broker, with its post-override config.
#[derive(Debug, Clone)]
pub struct BrokerFacts {
    /// Placement host.
    pub host: String,
    /// Effective config (scenario-level retention/compaction knobs folded
    /// in, as `run` would).
    pub cfg: BrokerConfig,
}

/// One producer stub, with rate/size hints recovered from its source spec.
#[derive(Debug, Clone)]
pub struct ProducerFacts {
    /// Fault-target name (`producer-<idx>`).
    pub name: String,
    /// Topics the source emits to.
    pub topics: Vec<String>,
    /// Effective config (acks override and batching overrides applied).
    pub cfg: ProducerConfig,
    /// Smallest inter-record interval the source can sustain, when the
    /// spec implies one (`Rate`/`Items` intervals, `Poisson` mean,
    /// `RandomTopics` bitrate).
    pub min_interval: Option<SimDuration>,
    /// Largest payload the source emits, when the spec declares one.
    pub max_payload: Option<usize>,
}

/// One consumer stub.
#[derive(Debug, Clone)]
pub struct ConsumerFacts {
    /// Fault-target name (`consumer-<idx>`).
    pub name: String,
    /// Subscribed topics.
    pub topics: Vec<String>,
    /// Effective config (`with_transactional_sinks` read-committed fold
    /// applied).
    pub cfg: ConsumerConfig,
}

/// One stream job, flattened to its effective engine config and stage
/// layout.
#[derive(Debug, Clone)]
pub struct JobFacts {
    /// Job name (also its fault-target name).
    pub name: String,
    /// Source topics.
    pub sources: Vec<String>,
    /// Sink topic, when the sink is a topic.
    pub sink_topic: Option<String>,
    /// Store host, when the sink is a store.
    pub sink_store_host: Option<String>,
    /// Effective engine config: scenario-level checkpointing fallback,
    /// transactional-sink fold, acks override, and batching overrides all
    /// applied, exactly as `run` would.
    pub cfg: SpeConfig,
    /// True when the job uses the parallel stage machinery.
    pub parallel: bool,
    /// Stage count of the job's plan.
    pub n_stages: usize,
    /// Per-stage maximum instance count (covers initial parallelism and
    /// any rescale target).
    pub max_per: Vec<usize>,
    /// Fixed key-group count.
    pub key_groups: u32,
    /// Rescale-on-restart target parallelism, when set.
    pub rescale: Option<usize>,
}

/// What a fault event acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// A named process: an SPE job, a `job/stage/instance` stage
    /// instance, or a `producer-<idx>`/`consumer-<idx>` stub.
    Process(String),
    /// A broker by declaration index.
    Broker(u32),
    /// A store replica by global replica index.
    Store(u32),
    /// A link/node/routing action; the label names the affected host or
    /// `a-b` link so outage windows can be paired up.
    Net(String),
}

/// Crash/restart polarity of a fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Takes the target down.
    Crash,
    /// Brings the target back.
    Restart,
    /// Anything else (loss/latency/routing tweaks).
    Other,
}

/// One fault-plan event, normalized.
#[derive(Debug, Clone)]
pub struct FaultFacts {
    /// Scheduled time.
    pub at: SimTime,
    /// Target.
    pub target: FaultTarget,
    /// Polarity.
    pub kind: FaultKind,
}

/// The flattened scenario handed to the analyzer.
#[derive(Debug, Clone)]
pub struct ScenarioFacts {
    /// Scenario name (for messages only).
    pub name: String,
    /// Simulated run length.
    pub duration: SimTime,
    /// One-way latency of the default access link (round-trip estimates).
    pub link_latency: SimDuration,
    /// Controller config (election timing).
    pub controller: ControllerConfig,
    /// Declared topics plus the shuffle topics `run` would auto-declare.
    pub topics: Vec<TopicFacts>,
    /// `with_replicated_partitions` override, when set.
    pub partition_replication: Option<u32>,
    /// Brokers in declaration order (`CrashBroker(i)` indexes this).
    pub brokers: Vec<BrokerFacts>,
    /// Declared store hosts (replica 0 of each group).
    pub store_hosts: Vec<String>,
    /// Replicas per store declaration.
    pub store_replication: usize,
    /// Producer stubs.
    pub producers: Vec<ProducerFacts>,
    /// Consumer stubs.
    pub consumers: Vec<ConsumerFacts>,
    /// Stream jobs.
    pub jobs: Vec<JobFacts>,
    /// The fault plan, normalized and time-ordered.
    pub faults: Vec<FaultFacts>,
    /// Every process name a fault may legally target (job names, stage
    /// instances, stubs) — the typo-suggestion corpus.
    pub valid_process_targets: Vec<String>,
    /// Hosts every component and controller needs to exist.
    pub required_hosts: Vec<String>,
    /// Every node (hosts and switches) of the network `run` builds: the
    /// explicit topology's, or a generated star that always holds
    /// `required_hosts`.
    pub network_nodes: Vec<String>,
    /// Nodes named by `watch_throughput`.
    pub watched_nodes: Vec<String>,
    /// Scenario-level checkpoint interval, when checkpointing is on.
    pub checkpoint_interval: Option<SimDuration>,
    /// Store host backing scenario checkpoints, when store-backed.
    pub checkpoint_store_host: Option<String>,
    /// Store host backing broker durability, when store-backed.
    pub durability_store_host: Option<String>,
    /// Scenario-level retention age (per-broker configs are in
    /// [`BrokerFacts::cfg`], already folded).
    pub log_retention_age: Option<SimDuration>,
    /// `with_transactional_sinks` was called.
    pub transactional_sinks: bool,
}

impl ScenarioFacts {
    /// Largest effective replication factor across topics (1 when no
    /// topics are declared).
    pub fn max_replication(&self) -> u32 {
        self.topics.iter().map(|t| t.replication).max().unwrap_or(1)
    }

    /// True when any producer stub or topic-sink job produces with
    /// `acks=all`.
    pub fn any_acks_all(&self) -> bool {
        use s2g_proto::AckMode;
        self.producers.iter().any(|p| p.cfg.acks == AckMode::All)
            || self
                .jobs
                .iter()
                .any(|j| j.sink_topic.is_some() && j.cfg.producer.acks == AckMode::All)
    }
}
