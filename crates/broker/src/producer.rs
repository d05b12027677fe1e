//! The producer client: buffering, batching, retries, delivery timeouts.
//!
//! [`ProducerClient`] is an embeddable state machine (the stream processing
//! engine embeds one to emit results); [`ProducerProcess`] pairs it with a
//! pluggable [`DataSource`] to form stream2gym's standalone producer stubs.
//!
//! Faithfully modeled Kafka-producer behaviors the experiments depend on:
//!
//! * `buffer.memory` — records queue in a bounded pool (16/32 MB in Fig. 9c);
//! * `request.timeout.ms` + retries with backoff — an unreachable leader
//!   causes timed-out requests that retry until `delivery.timeout.ms`
//!   expires, which is why the disconnected producer's topic-B messages
//!   arrive with up-to-partition-length latency in Fig. 6c rather than
//!   being lost;
//! * `retry.backoff.ms` — a failed batch waits out the backoff before it is
//!   resent, and metadata refreshes go out at most once per backoff, so a
//!   leader that rejects at once (a fenced minority under a partition)
//!   costs one round trip per backoff instead of a retry storm;
//! * per-partition in-flight slots — a blocked partition does not
//!   head-of-line-block the other topic.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};

use rand::rngs::StdRng;

use s2g_proto::{ClientRpc, CorrelationId, ProducerId, Record, RecordBatch, TopicPartition};
use s2g_sim::{
    downcast, Ctx, LedgerHandle, MemSlot, Message, Process, ProcessId, SimDuration, SimTime,
    TimerToken,
};
use s2g_telemetry::Telemetry;

use crate::config::ProducerConfig;
use crate::metadata::MetadataCache;

/// Tag namespace base for producer-owned timers and CPU work. The embedding
/// process must forward tags in `PRODUCER_TAGS..PRODUCER_TAGS_END`.
pub const PRODUCER_TAGS: u64 = 1 << 40;
/// End of the producer tag namespace (exclusive).
pub const PRODUCER_TAGS_END: u64 = 1 << 41;

mod off {
    pub const RETRY_PUMP: u64 = 1;
    pub const META_TIMEOUT: u64 = 2;
    pub const NOOP_CPU: u64 = 3;
    pub const TXN_RETRY: u64 = 4;
    pub const META_REFRESH: u64 = 5;
    pub const LINGER_BASE: u64 = 1_000;
    pub const REQ_TIMEOUT_BASE: u64 = 1_000_000;
}

/// What a data source tells its producer process to do next.
#[derive(Debug)]
pub enum SourceAction {
    /// Emit a record to `topic`, then call back after `next_after`.
    Emit {
        /// Destination topic.
        topic: String,
        /// Optional key.
        key: Option<Vec<u8>>,
        /// Payload.
        value: Vec<u8>,
        /// Delay before the next `next()` call.
        next_after: SimDuration,
    },
    /// Do nothing and call back after the given delay.
    Wait(SimDuration),
    /// The source is exhausted; stop stepping.
    Done,
}

/// A pluggable data generator for producer stubs (stream2gym's `prodType`).
pub trait DataSource: Any {
    /// Produces the next action. `now` is the current simulated time and
    /// `rng` the run's seeded generator (for stochastic sources).
    fn next(&mut self, now: SimTime, rng: &mut StdRng) -> SourceAction;
}

/// Final outcome of one produced record.
#[derive(Debug, Clone)]
pub struct ProduceOutcome {
    /// Producer-assigned sequence number.
    pub seq: u64,
    /// Destination topic.
    pub topic: String,
    /// When the record entered the producer.
    pub created: SimTime,
    /// When the outcome was decided (ack received or delivery timeout).
    pub completed: SimTime,
    /// True if the broker acknowledged the record.
    pub delivered: bool,
}

/// A produced batch whose records reached their final outcome, handed to
/// the embedding process by [`ProducerClient::drain_completed`].
#[derive(Debug)]
pub struct CompletedBatch {
    /// The partition the batch was produced to.
    pub tp: TopicPartition,
    /// The batch's records, in production order.
    pub batch: RecordBatch,
    /// When the outcome was decided (ack received or delivery timeout).
    pub completed: SimTime,
    /// True if the broker acknowledged the batch.
    pub delivered: bool,
}

/// Producer counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProducerStats {
    /// Records accepted into the buffer.
    pub sent: u64,
    /// Records acknowledged.
    pub acked: u64,
    /// Records that exhausted their delivery timeout.
    pub failed: u64,
    /// Records rejected because the buffer pool was full.
    pub buffer_rejected: u64,
    /// Produce request retries.
    pub retries: u64,
}

#[derive(Debug)]
struct AccumBatch {
    /// The topic's dense id: the linger timer tag's offset.
    topic_id: u64,
    /// Round-robin counter picking the partition of keyless sub-batches.
    rr: u32,
    records: Vec<Record>,
    bytes: usize,
    linger_timer: Option<TimerToken>,
}

#[derive(Debug)]
struct ReadyBatch {
    tp: TopicPartition,
    /// The sealed, shareable batch. Sealed once at flush time; every send
    /// and retry reuses it with a reference-count bump instead of cloning
    /// the records.
    batch: RecordBatch,
    /// Uncompressed record bytes, for buffer-pool accounting.
    bytes: usize,
    created: SimTime,
    /// Earliest resend time: `retry_backoff` after the last failed attempt.
    not_before: SimTime,
    /// The open transaction the batch belongs to, captured at flush time.
    txn: Option<u64>,
}

/// One outstanding transaction-control RPC (EndTxn / TxnRecover), kept so a
/// lost request or response can be re-sent — a lost commit marker would
/// otherwise park read-committed consumers at the stale LSO forever.
#[derive(Debug, Clone, Copy)]
enum TxnCtl {
    End {
        broker: ProcessId,
        txn: u64,
        commit: bool,
    },
    Recover {
        broker: ProcessId,
        producer: ProducerId,
        commit_upto: u64,
        epoch: u32,
    },
}

#[derive(Debug)]
struct Inflight {
    batch: ReadyBatch,
    timer: TimerToken,
}

/// The embeddable producer state machine.
pub struct ProducerClient {
    id: ProducerId,
    /// This client incarnation's epoch: bumped by the orchestrator when a
    /// crashed embedding process restarts, so broker-side idempotent dedup
    /// distinguishes a fresh sequence-zero stream from a stale retry.
    epoch: u32,
    cfg: ProducerConfig,
    bootstrap: ProcessId,
    /// Every broker endpoint, in broker-id order — the rotation list used
    /// when the current bootstrap stops answering (broker crash/restart).
    bootstrap_candidates: Vec<ProcessId>,
    brokers: BTreeMap<s2g_proto::BrokerId, ProcessId>,
    metadata: MetadataCache,
    meta_versions: u64,
    meta_inflight: Option<(CorrelationId, TimerToken)>,
    /// When the last metadata request went out; the next one waits until
    /// `retry_backoff` after it.
    meta_sent_at: Option<SimTime>,
    /// A deferred metadata refresh is armed (`META_REFRESH` timer).
    meta_refresh_armed: bool,
    next_seq: u64,
    next_corr: u64,
    corr_step: u64,
    accum: BTreeMap<String, AccumBatch>,
    ready: BTreeMap<TopicPartition, VecDeque<ReadyBatch>>,
    inflight: BTreeMap<TopicPartition, Inflight>,
    corr_to_tp: HashMap<u64, TopicPartition>,
    buffer_used: usize,
    stats: ProducerStats,
    /// Batches completed since the embedder last drained them. The client
    /// keeps no per-record log of its own: the embedder decides what, if
    /// anything, a completion leaves behind.
    completed: Vec<CompletedBatch>,
    mem: Option<(LedgerHandle, MemSlot)>,
    /// The open transaction stamped on produced batches, when transactional.
    txn: Option<u64>,
    /// Records handed to the buffer per transaction.
    txn_sent: BTreeMap<u64, u64>,
    /// Records *acknowledged* per transaction. Failed (delivery-timeout)
    /// records deliberately do not count: a transaction whose staged batch
    /// did not fully reach the broker must never look committable — the
    /// checkpoint stalls instead of committing a hole into the sink.
    txn_done: BTreeMap<u64, u64>,
    /// Outstanding EndTxn/TxnRecover RPCs by correlation id.
    txn_ctl: BTreeMap<u64, TxnCtl>,
    /// Telemetry sink; records nothing until a scope is attached.
    tele: Telemetry,
    /// Scope metrics are recorded under; empty means detached.
    tele_scope: String,
}

impl ProducerClient {
    /// Creates a client. `bootstrap` is the broker used for metadata;
    /// `brokers` maps broker ids to process ids. `corr_parity` (0 or 1)
    /// disambiguates correlation ids when a producer and consumer client
    /// share one process.
    pub fn new(
        id: ProducerId,
        cfg: ProducerConfig,
        bootstrap: ProcessId,
        brokers: BTreeMap<s2g_proto::BrokerId, ProcessId>,
        corr_parity: u64,
    ) -> Self {
        ProducerClient {
            id,
            epoch: 0,
            cfg,
            bootstrap,
            bootstrap_candidates: brokers.values().copied().collect(),
            brokers,
            metadata: MetadataCache::new(),
            meta_versions: 0,
            meta_inflight: None,
            meta_sent_at: None,
            meta_refresh_armed: false,
            next_seq: 0,
            next_corr: corr_parity,
            corr_step: 2,
            accum: BTreeMap::new(),
            ready: BTreeMap::new(),
            inflight: BTreeMap::new(),
            corr_to_tp: HashMap::new(),
            buffer_used: 0,
            stats: ProducerStats::default(),
            completed: Vec::new(),
            mem: None,
            txn: None,
            txn_sent: BTreeMap::new(),
            txn_done: BTreeMap::new(),
            txn_ctl: BTreeMap::new(),
            tele: Telemetry::new(),
            tele_scope: String::new(),
        }
    }

    /// Attaches the run-wide telemetry sink. The client records sent /
    /// acked record counts, produce trace events, and transaction
    /// begin/commit instants under `scope`.
    pub fn set_telemetry(&mut self, tele: Telemetry, scope: impl Into<String>) {
        self.tele = tele;
        self.tele_scope = scope.into();
    }

    /// Attaches a memory-ledger slot; dynamic usage tracks the buffer fill.
    pub fn set_mem_slot(&mut self, ledger: LedgerHandle, slot: MemSlot) {
        self.mem = Some((ledger, slot));
    }

    /// This producer's id.
    pub fn id(&self) -> ProducerId {
        self.id
    }

    /// Sets the producer epoch stamped on every record (Kafka's producer
    /// epoch). Call on a respawned client so its fresh sequence numbers are
    /// not mistaken for retries of the previous incarnation's.
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Opens (or closes, with `None`) the transaction stamped on produced
    /// batches. Call [`flush_all`](Self::flush_all) first when switching
    /// transactions so accumulating records are not carried into the new
    /// one — a transactional sink flushes at every checkpoint capture.
    pub fn set_transactional(&mut self, txn: Option<u64>) {
        self.txn = txn;
    }

    /// The currently open transaction, if any.
    pub fn current_txn(&self) -> Option<u64> {
        self.txn
    }

    /// Records of transaction `txn` not yet acknowledged by the broker —
    /// the commit barrier of a transactional sink. Failed records keep the
    /// count positive forever: committing (or durably preparing) a
    /// transaction with records missing from the log would silently break
    /// exactly-once, so the pipeline stalls instead.
    pub fn txn_outstanding(&self, txn: u64) -> u64 {
        let sent = self.txn_sent.get(&txn).copied().unwrap_or(0);
        let done = self.txn_done.get(&txn).copied().unwrap_or(0);
        sent.saturating_sub(done)
    }

    /// True while an EndTxn/TxnRecover marker is awaiting its broker ack.
    pub fn txn_ctl_pending(&self) -> bool {
        !self.txn_ctl.is_empty()
    }

    /// Sends the commit (or abort) marker for `txn` to every broker; lost
    /// markers are re-sent on the retry timer until acknowledged.
    pub fn end_txn(&mut self, ctx: &mut Ctx<'_>, txn: u64, commit: bool) {
        if !self.tele_scope.is_empty() && self.tele.trace_enabled() {
            self.tele.trace_instant(
                ctx.now(),
                &self.tele_scope,
                if commit {
                    "txn:end:commit"
                } else {
                    "txn:end:abort"
                },
                "txn",
            );
        }
        let brokers = self.broker_endpoints();
        for broker in brokers {
            let corr = self.next_corr();
            self.txn_ctl.insert(
                corr.0,
                TxnCtl::End {
                    broker,
                    txn,
                    commit,
                },
            );
            ctx.send(
                broker,
                ClientRpc::EndTxn {
                    corr,
                    producer: self.id,
                    txn,
                    commit,
                },
            );
        }
        self.arm_txn_retry(ctx);
    }

    /// Asks every broker to resolve the transactions a crashed incarnation
    /// of this producer left open: commit those at or below `commit_upto`
    /// (their checkpoint is durable), abort the rest. The recover carries
    /// this incarnation's epoch, so only older incarnations' transactions
    /// are touched even when the RPC is delayed or retried.
    pub fn recover_txns(&mut self, ctx: &mut Ctx<'_>, commit_upto: u64) {
        let id = self.id;
        self.recover_txns_for(ctx, id, commit_upto);
    }

    /// Like [`recover_txns`](Self::recover_txns) but for an arbitrary
    /// producer id — the rescale path, where a shrunk stage's surviving
    /// instance resolves the transactions of old instances that have no
    /// successor (their producer ids never come back).
    pub fn recover_txns_for(&mut self, ctx: &mut Ctx<'_>, producer: ProducerId, commit_upto: u64) {
        let brokers = self.broker_endpoints();
        let epoch = self.epoch;
        for broker in brokers {
            let corr = self.next_corr();
            self.txn_ctl.insert(
                corr.0,
                TxnCtl::Recover {
                    broker,
                    producer,
                    commit_upto,
                    epoch,
                },
            );
            ctx.send(
                broker,
                ClientRpc::TxnRecover {
                    corr,
                    producer,
                    commit_upto,
                    epoch,
                },
            );
        }
        self.arm_txn_retry(ctx);
    }

    fn broker_endpoints(&self) -> Vec<ProcessId> {
        self.brokers.values().copied().collect()
    }

    fn arm_txn_retry(&mut self, ctx: &mut Ctx<'_>) {
        if !self.txn_ctl.is_empty() {
            ctx.set_timer(self.cfg.request_timeout, PRODUCER_TAGS + off::TXN_RETRY);
        }
    }

    fn retry_txn_ctl(&mut self, ctx: &mut Ctx<'_>) {
        if self.txn_ctl.is_empty() {
            return;
        }
        let pending: Vec<TxnCtl> = std::mem::take(&mut self.txn_ctl).into_values().collect();
        for ctl in pending {
            let corr = self.next_corr();
            self.txn_ctl.insert(corr.0, ctl);
            match ctl {
                TxnCtl::End {
                    broker,
                    txn,
                    commit,
                } => ctx.send(
                    broker,
                    ClientRpc::EndTxn {
                        corr,
                        producer: self.id,
                        txn,
                        commit,
                    },
                ),
                TxnCtl::Recover {
                    broker,
                    producer,
                    commit_upto,
                    epoch,
                } => ctx.send(
                    broker,
                    ClientRpc::TxnRecover {
                        corr,
                        producer,
                        commit_upto,
                        epoch,
                    },
                ),
            }
        }
        self.arm_txn_retry(ctx);
    }

    /// Counters.
    pub fn stats(&self) -> ProducerStats {
        self.stats
    }

    /// Hands over the batches completed (acked or timed out) since the last
    /// drain, in completion order. The embedding process drains after each
    /// handler that reaches the client; what it drops is gone for good.
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, CompletedBatch> {
        self.completed.drain(..)
    }

    /// Completed batches not yet drained — zero after every handler of a
    /// well-behaved embedder, so the client holds no per-record history.
    pub fn pending_completions(&self) -> usize {
        self.completed.len()
    }

    /// Bytes currently queued in the buffer pool.
    pub fn buffer_used(&self) -> usize {
        self.buffer_used
    }

    /// Kicks off metadata discovery. Call from `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.request_metadata(ctx);
    }

    fn next_corr(&mut self) -> CorrelationId {
        let c = self.next_corr;
        self.next_corr += self.corr_step;
        CorrelationId(c)
    }

    fn update_mem(&mut self) {
        if let Some((ledger, slot)) = &self.mem {
            ledger
                .borrow_mut()
                .set_dynamic(*slot, self.buffer_used as u64);
        }
    }

    /// Sends a metadata request unless one is in flight. Requests go out at
    /// most once per `retry_backoff` (Kafka's `retry.backoff.ms` also backs
    /// off metadata refreshes); an early one arms a single deferred refresh
    /// instead of sending.
    fn request_metadata(&mut self, ctx: &mut Ctx<'_>) {
        if self.meta_inflight.is_some() || self.meta_refresh_armed {
            return;
        }
        let now = ctx.now();
        let due = self
            .meta_sent_at
            .map_or(now, |t| t + self.cfg.retry_backoff);
        if due > now {
            self.meta_refresh_armed = true;
            ctx.set_timer(due - now, PRODUCER_TAGS + off::META_REFRESH);
            return;
        }
        self.meta_sent_at = Some(now);
        let corr = self.next_corr();
        let timer = ctx.set_timer(self.cfg.request_timeout, PRODUCER_TAGS + off::META_TIMEOUT);
        self.meta_inflight = Some((corr, timer));
        ctx.send(self.bootstrap, ClientRpc::MetadataRequest { corr });
    }

    /// Advances to the next broker endpoint for bootstrap traffic (called
    /// after a metadata timeout, i.e. the current endpoint is unreachable).
    fn rotate_bootstrap(&mut self) {
        if self.bootstrap_candidates.len() < 2 {
            return;
        }
        let cur = self
            .bootstrap_candidates
            .iter()
            .position(|p| *p == self.bootstrap)
            .unwrap_or(0);
        self.bootstrap = self.bootstrap_candidates[(cur + 1) % self.bootstrap_candidates.len()];
    }

    /// Queues one record for `topic`, returning its producer sequence
    /// number. Returns `None` (and counts a buffer rejection) when the
    /// buffer pool is exhausted.
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        topic: &str,
        key: Option<Vec<u8>>,
        value: Vec<u8>,
    ) -> Option<u64> {
        let record = match key {
            Some(k) => Record::new(k, value, ctx.now()),
            None => Record::keyless(value, ctx.now()),
        }
        .from_producer(self.id, self.next_seq)
        .with_producer_epoch(self.epoch);
        let bytes = record.encoded_len();
        if self.buffer_used + bytes > self.cfg.buffer_memory {
            self.stats.buffer_rejected += 1;
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.sent += 1;
        if let Some(t) = self.txn {
            *self.txn_sent.entry(t).or_insert(0) += 1;
        }
        self.buffer_used += bytes;
        self.update_mem();
        if !self.cfg.cpu_per_record.is_zero() {
            ctx.exec(self.cfg.cpu_per_record, PRODUCER_TAGS + off::NOOP_CPU);
        }
        // Look the topic up first: only its first send allocates a key.
        if !self.accum.contains_key(topic) {
            let batch = AccumBatch {
                topic_id: self.accum.len() as u64,
                rr: 0,
                records: Vec::new(),
                bytes: 0,
                linger_timer: None,
            };
            self.accum.insert(topic.to_string(), batch);
        }
        let entry = self.accum.get_mut(topic).expect("inserted above");
        entry.records.push(record);
        entry.bytes += bytes;
        if entry.linger_timer.is_none() {
            let tag = PRODUCER_TAGS + off::LINGER_BASE + entry.topic_id;
            entry.linger_timer = Some(ctx.set_timer(self.cfg.linger, tag));
        }
        if entry.records.len() >= self.cfg.batch_max_records
            || entry.bytes >= self.cfg.batch_max_bytes
        {
            self.flush_topic(ctx, topic);
        }
        Some(seq)
    }

    /// Flushes every accumulating batch immediately.
    pub fn flush_all(&mut self, ctx: &mut Ctx<'_>) {
        let topics: Vec<String> = self.accum.keys().cloned().collect();
        for t in topics {
            self.flush_topic(ctx, &t);
        }
    }

    fn flush_topic(&mut self, ctx: &mut Ctx<'_>, topic: &str) {
        let Some(batch) = self.accum.get_mut(topic) else {
            return;
        };
        if batch.records.is_empty() {
            return;
        }
        if let Some(t) = batch.linger_timer.take() {
            ctx.cancel_timer(t);
        }
        let records = std::mem::take(&mut batch.records);
        batch.bytes = 0;
        // Partition selection. Keyed records route by the stable FNV-1a
        // key hash (`hash(key) % partitions`) — the same helper that
        // assigns key groups, so a keyed record always lands on the
        // partition whose downstream owner holds its state. Keyless
        // records keep the original behavior: the whole sub-batch goes to
        // the next round-robin partition. Partition 0 optimistically when
        // metadata has not arrived yet. Records split by partition number;
        // each sub-batch builds its `TopicPartition` once.
        let parts = self.metadata.partitions_of(topic);
        let n_parts = parts.len() as u32;
        let mut split: BTreeMap<u32, (Vec<Record>, usize)> = BTreeMap::new();
        let mut rr_part: Option<u32> = None;
        for r in records {
            let rbytes = r.encoded_len();
            let part = match (&r.key, n_parts) {
                (_, 0) => 0,
                (Some(k), _) => s2g_proto::partition_for_key(k, n_parts),
                (None, _) => *rr_part.get_or_insert_with(|| {
                    let part = parts[batch.rr as usize % parts.len()].partition;
                    batch.rr += 1;
                    part
                }),
            };
            let slot = split.entry(part).or_default();
            slot.0.push(r);
            slot.1 += rbytes;
        }
        for (part, (records, bytes)) in split {
            let tp = TopicPartition::new(topic, part);
            let created = records
                .first()
                .map(|r| r.timestamp)
                .unwrap_or_else(|| ctx.now());
            let sealed = RecordBatch::from_records(records).with_compression(self.cfg.compression);
            if !sealed.compression().is_none() && !self.cfg.compress_cpu_per_byte.is_zero() {
                // Compressing the sealed batch costs CPU proportional to
                // the raw record bytes — the produce-side half of the
                // compression trade (the wire carries fewer bytes).
                ctx.exec(
                    self.cfg.compress_cpu_per_byte * bytes as u64,
                    PRODUCER_TAGS + off::NOOP_CPU,
                );
            }
            self.ready
                .entry(tp.clone())
                .or_default()
                .push_back(ReadyBatch {
                    tp,
                    batch: sealed,
                    bytes,
                    created,
                    not_before: SimTime::ZERO,
                    txn: self.txn,
                });
        }
        self.pump(ctx);
    }

    /// Sends the head batch of every partition with no request in flight.
    /// A partition whose head batch is still backing off is skipped; the
    /// `RETRY_PUMP` timer armed by `retry_or_fail` wakes it. Gating on the
    /// head keeps per-partition order and the idempotent sequence intact.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let tps: Vec<TopicPartition> = self
            .ready
            .iter()
            .filter(|(tp, q)| {
                q.front().is_some_and(|b| b.not_before <= now) && !self.inflight.contains_key(*tp)
            })
            .map(|(tp, _)| tp.clone())
            .collect();
        let mut need_meta = false;
        for tp in tps {
            let leader = match self.metadata.leader(&tp) {
                Some(l) => l,
                None => {
                    need_meta = true;
                    continue;
                }
            };
            let Some(&leader_pid) = self.brokers.get(&leader) else {
                need_meta = true;
                continue;
            };
            let batch = match self.ready.get_mut(&tp).and_then(VecDeque::pop_front) {
                Some(b) => b,
                None => continue,
            };
            let corr = self.next_corr();
            let timer = ctx.set_timer(
                self.cfg.request_timeout,
                PRODUCER_TAGS + off::REQ_TIMEOUT_BASE + corr.0,
            );
            ctx.send(
                leader_pid,
                ClientRpc::ProduceRequest {
                    corr,
                    tp: tp.clone(),
                    // Arc bump, not a record copy — the retry path keeps
                    // the same sealed batch alive in `inflight`.
                    batch: batch.batch.clone(),
                    acks: self.cfg.acks,
                    // Stamp the reign this produce is aimed at; a broker on
                    // a newer epoch bounces it (StaleEpoch, retriable) and
                    // the metadata refresh re-aims the retry.
                    epoch: self.metadata.epoch(&tp),
                    txn: batch.txn,
                },
            );
            if !self.tele_scope.is_empty() {
                self.tele
                    .counter_add(&self.tele_scope, "records_sent", batch.batch.len() as u64);
                if self.tele.trace_enabled() {
                    self.tele.trace_instant(
                        ctx.now(),
                        &self.tele_scope,
                        &format!("produce:{tp}"),
                        "producer",
                    );
                }
            }
            self.corr_to_tp.insert(corr.0, tp.clone());
            self.inflight.insert(tp, Inflight { batch, timer });
        }
        if need_meta {
            self.request_metadata(ctx);
        }
    }

    fn complete_batch(&mut self, now: SimTime, batch: ReadyBatch, delivered: bool) {
        self.buffer_used -= batch.bytes;
        self.update_mem();
        if let (Some(t), true) = (batch.txn, delivered) {
            *self.txn_done.entry(t).or_insert(0) += batch.batch.len() as u64;
        }
        if delivered {
            self.stats.acked += batch.batch.len() as u64;
        } else {
            self.stats.failed += batch.batch.len() as u64;
        }
        if !self.tele_scope.is_empty() {
            self.tele.counter_add(
                &self.tele_scope,
                if delivered {
                    "records_acked"
                } else {
                    "records_failed"
                },
                batch.batch.len() as u64,
            );
        }
        self.completed.push(CompletedBatch {
            tp: batch.tp,
            batch: batch.batch,
            completed: now,
            delivered,
        });
    }

    fn retry_or_fail(&mut self, ctx: &mut Ctx<'_>, mut batch: ReadyBatch) {
        let now = ctx.now();
        if now.saturating_since(batch.created) > self.cfg.delivery_timeout {
            self.complete_batch(now, batch, false);
            return;
        }
        self.stats.retries += 1;
        batch.not_before = now + self.cfg.retry_backoff;
        self.ready
            .entry(batch.tp.clone())
            .or_default()
            .push_front(batch);
        self.request_metadata(ctx);
        ctx.set_timer(self.cfg.retry_backoff, PRODUCER_TAGS + off::RETRY_PUMP);
    }

    /// Handles an incoming message. Returns the message back when it is not
    /// addressed to this client.
    pub fn handle_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: Box<dyn Message>,
    ) -> Option<Box<dyn Message>> {
        let rpc = match downcast::<ClientRpc>(msg) {
            Ok(r) => r,
            Err(m) => return Some(m),
        };
        match *rpc {
            ClientRpc::ProduceResponse { corr, error, .. } => {
                // A missing entry means a stale response for a timed-out
                // request: consume the message without acting on it.
                let tp = self.corr_to_tp.remove(&corr.0)?;
                let inflight = self.inflight.remove(&tp)?;
                ctx.cancel_timer(inflight.timer);
                if error.is_ok() {
                    let now = ctx.now();
                    self.complete_batch(now, inflight.batch, true);
                } else if error.is_retriable() {
                    self.retry_or_fail(ctx, inflight.batch);
                } else {
                    let now = ctx.now();
                    self.complete_batch(now, inflight.batch, false);
                }
                self.pump(ctx);
                None
            }
            ClientRpc::MetadataResponse { corr, partitions } => {
                match self.meta_inflight {
                    Some((c, timer)) if c == corr => {
                        ctx.cancel_timer(timer);
                        self.meta_inflight = None;
                        self.meta_versions += 1;
                        self.metadata
                            .install_snapshot(partitions, self.meta_versions);
                        self.pump(ctx);
                        None
                    }
                    // Not ours — may belong to a co-embedded consumer client.
                    _ => Some(Box::new(ClientRpc::MetadataResponse { corr, partitions })),
                }
            }
            ClientRpc::EndTxnResponse { corr, error } => {
                // A fenced (or otherwise failed) marker was NOT applied:
                // keep the entry so the retry timer re-sends it, or the LSO
                // would park read-committed consumers forever.
                if error.is_ok() {
                    self.txn_ctl.remove(&corr.0);
                }
                None
            }
            ClientRpc::TxnRecoverResponse { corr } => {
                self.txn_ctl.remove(&corr.0);
                None
            }
            other => Some(Box::new(other)),
        }
    }

    /// Handles a timer tag in the producer namespace. Returns `true` if the
    /// tag belonged to this client.
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> bool {
        if !(PRODUCER_TAGS..PRODUCER_TAGS_END).contains(&tag) {
            return false;
        }
        let o = tag - PRODUCER_TAGS;
        if o == off::RETRY_PUMP {
            self.pump(ctx);
        } else if o == off::TXN_RETRY {
            self.retry_txn_ctl(ctx);
        } else if o == off::META_REFRESH {
            self.meta_refresh_armed = false;
            self.request_metadata(ctx);
        } else if o == off::META_TIMEOUT {
            // Metadata request lost — the bootstrap may be down (broker
            // crash). Rotate to the next broker endpoint and retry; a
            // single-broker cluster retries the same endpoint until its
            // restart answers.
            self.meta_inflight = None;
            self.rotate_bootstrap();
            self.request_metadata(ctx);
        } else if (off::LINGER_BASE..off::REQ_TIMEOUT_BASE).contains(&o) {
            let topic_id = o - off::LINGER_BASE;
            let topic = self
                .accum
                .iter_mut()
                .find(|(_, b)| b.topic_id == topic_id)
                .map(|(t, b)| {
                    b.linger_timer = None;
                    t.clone()
                });
            if let Some(t) = topic {
                self.flush_topic(ctx, &t);
            }
        } else if o >= off::REQ_TIMEOUT_BASE {
            let corr = o - off::REQ_TIMEOUT_BASE;
            if let Some(tp) = self.corr_to_tp.remove(&corr) {
                if let Some(inflight) = self.inflight.remove(&tp) {
                    self.retry_or_fail(ctx, inflight.batch);
                }
            }
        }
        true
    }
}

impl std::fmt::Debug for ProducerClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProducerClient")
            .field("id", &self.id)
            .field("buffer_used", &self.buffer_used)
            .field("stats", &self.stats)
            .finish()
    }
}

/// A standalone producer stub: a [`ProducerClient`] driven by a
/// [`DataSource`], with background CPU churn for the resource model. The
/// stub owns the per-record logs a run report carries.
pub struct ProducerProcess {
    client: ProducerClient,
    source: Box<dyn DataSource>,
    source_done: bool,
    name: String,
    /// Per-record outcomes (ack / delivery timeout), in completion order.
    outcomes: Vec<ProduceOutcome>,
    /// Every record the client accepted, as `(topic, seq, created)`.
    sent_index: Vec<(String, u64, SimTime)>,
}

const SOURCE_STEP: u64 = 0;
const BACKGROUND_TICK: u64 = 1;
const BACKGROUND_DONE: u64 = 2;
const STARTUP_DONE: u64 = 3;

impl ProducerProcess {
    /// Attaches the run-wide telemetry sink under this process's name.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        let scope = self.name.clone();
        self.client.set_telemetry(tele, scope);
    }

    /// Creates a producer stub.
    pub fn new(client: ProducerClient, source: Box<dyn DataSource>) -> Self {
        let name = format!("producer-{}", client.id().0);
        ProducerProcess {
            client,
            source,
            source_done: false,
            name,
            outcomes: Vec::new(),
            sent_index: Vec::new(),
        }
    }

    /// The embedded client (stats, buffer fill).
    pub fn client(&self) -> &ProducerClient {
        &self.client
    }

    /// Per-record outcomes (ack / delivery timeout), in completion order.
    pub fn outcomes(&self) -> &[ProduceOutcome] {
        &self.outcomes
    }

    /// Every record accepted into the buffer, as `(topic, seq, created)` in
    /// production order — the message axis of delivery matrices (Fig. 6b).
    pub fn sent_index(&self) -> &[(String, u64, SimTime)] {
        &self.sent_index
    }

    /// Moves both per-record logs out (outcomes, then the send index),
    /// leaving them empty — a run report takes them instead of copying.
    pub fn take_logs(&mut self) -> (Vec<ProduceOutcome>, Vec<(String, u64, SimTime)>) {
        (
            std::mem::take(&mut self.outcomes),
            std::mem::take(&mut self.sent_index),
        )
    }

    /// Expands the client's completed batches into per-record outcomes.
    fn record_completions(&mut self) {
        for done in self.client.drain_completed() {
            for r in done.batch.iter() {
                self.outcomes.push(ProduceOutcome {
                    seq: r.producer_seq,
                    topic: done.tp.topic.clone(),
                    created: r.timestamp,
                    completed: done.completed,
                    delivered: done.delivered,
                });
            }
        }
    }

    /// The data source, downcast to its concrete type.
    pub fn source_as<T: DataSource>(&self) -> Option<&T> {
        (self.source.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    fn step_source(&mut self, ctx: &mut Ctx<'_>) {
        if self.source_done {
            return;
        }
        let now = ctx.now();
        let action = {
            let rng = ctx.rng();
            // Split borrow: rng and source are independent.
            self.source.next(now, rng)
        };
        match action {
            SourceAction::Emit {
                topic,
                key,
                value,
                next_after,
            } => {
                if let Some(seq) = self.client.send(ctx, &topic, key, value) {
                    self.sent_index.push((topic, seq, now));
                }
                ctx.set_timer(next_after, SOURCE_STEP);
            }
            SourceAction::Wait(d) => {
                ctx.set_timer(d, SOURCE_STEP);
            }
            SourceAction::Done => {
                self.source_done = true;
                self.client.flush_all(ctx);
            }
        }
    }
}

impl Process for ProducerProcess {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.exec(self.client.cfg.startup_cpu, STARTUP_DONE);
        self.client.start(ctx);
        ctx.set_timer(SimDuration::ZERO, SOURCE_STEP);
        ctx.set_timer(self.client.cfg.background_interval, BACKGROUND_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        self.client.handle_message(ctx, msg);
        self.record_completions();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.client.handle_timer(ctx, tag) {
            self.record_completions();
            return;
        }
        match tag {
            SOURCE_STEP => self.step_source(ctx),
            BACKGROUND_TICK => {
                if !self.client.cfg.background_cpu.is_zero() {
                    ctx.exec(self.client.cfg.background_cpu, BACKGROUND_DONE);
                }
                ctx.set_timer(self.client.cfg.background_interval, BACKGROUND_TICK);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for ProducerProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProducerProcess")
            .field("client", &self.client)
            .finish()
    }
}
