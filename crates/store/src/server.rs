//! The data-store server process (`storeType` node attribute).
//!
//! Hosts a [`KvStore`] and a [`TableStore`] behind an RPC interface, charges
//! CPU per operation, and reports resident bytes to the memory ledger —
//! exactly the role MySQL plays on its own node in the paper's pipelines.
//!
//! Beyond application sinks, the KV half doubles as the durability tier for
//! the fault-tolerance subsystems: SPE checkpoints persist snapshots under
//! `ckpt/<job>` keys (`s2g_spe`'s `DurableBackend`), and durable broker
//! logs persist segments and meta blobs under `brokerlog/<broker>/...`
//! keys (`s2g_broker`'s `DurableLogBackend`) — both paying this server's
//! CPU cost and the network path to reach it.
//!
//! # Replication
//!
//! A standalone store is a single point of failure: crash it and every
//! checkpoint and broker-log blob is gone, silently voiding the guarantees
//! built on top. [`StoreServer::set_group`] turns N servers into a
//! **store group**: one primary quorum-replicates every mutation
//! (`Put`/`Delete`/`Insert`) to its replicas and acknowledges the client
//! only once a majority has applied it, so an acknowledged write survives
//! any minority of store crashes. Members heartbeat each other; when the
//! primary dies, the lowest-indexed live member catches up to the most
//! advanced surviving replica and claims the primary role under a bumped
//! group epoch. A restarted member rejoins in a recovering state, pulls the
//! full operation log from a ready peer (paying wire cost for every byte),
//! and only then serves again. Non-primary members proxy client requests to
//! the primary, so a [`BlobClient`](crate::BlobClient) that rotates
//! endpoints on timeout reaches the group through any live member.

use s2g_sim::{
    downcast, Ctx, LedgerHandle, MemSlot, Message, Process, ProcessId, SimDuration, SimTime,
};
use s2g_telemetry::Telemetry;

use crate::kv::KvStore;
use crate::table::{TableError, TableStore};

/// One replicated store mutation — the unit of the group's operation log.
#[derive(Debug, Clone)]
pub enum StoreOp {
    /// Write a KV pair.
    Put {
        /// Key.
        key: String,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Remove a key.
    Delete {
        /// Key.
        key: String,
    },
    /// Insert a row (auto-creating the table on first insert).
    Insert {
        /// Table name.
        table: String,
        /// Row cells.
        row: Vec<String>,
    },
}

impl StoreOp {
    /// Approximate wire size of the op when replicated or synced.
    pub fn wire_size(&self) -> usize {
        1 + match self {
            StoreOp::Put { key, value } => key.len() + value.len(),
            StoreOp::Delete { key } => key.len(),
            StoreOp::Insert { table, row } => {
                table.len() + row.iter().map(String::len).sum::<usize>()
            }
        }
    }
}

/// RPCs understood by the store server.
#[derive(Debug, Clone)]
pub enum StoreRpc {
    /// Write a KV pair.
    Put {
        /// Request id for the ack.
        corr: u64,
        /// Key.
        key: String,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Ack for a put.
    PutAck {
        /// Request id.
        corr: u64,
    },
    /// Read a key.
    Get {
        /// Request id.
        corr: u64,
        /// Key.
        key: String,
    },
    /// Reply to a get.
    GetResult {
        /// Request id.
        corr: u64,
        /// The value, if present.
        value: Option<Vec<u8>>,
    },
    /// Remove a key (dead log segments, superseded checkpoint blobs).
    Delete {
        /// Request id.
        corr: u64,
        /// Key.
        key: String,
    },
    /// Ack for a delete.
    DeleteAck {
        /// Request id.
        corr: u64,
        /// Whether the key existed.
        existed: bool,
    },
    /// Insert a row into a table (auto-creates the table with generic
    /// column names on first insert).
    Insert {
        /// Request id.
        corr: u64,
        /// Table name.
        table: String,
        /// Row cells.
        row: Vec<String>,
    },
    /// Ack for an insert.
    InsertAck {
        /// Request id.
        corr: u64,
        /// Whether the insert succeeded.
        ok: bool,
    },
    /// A non-primary group member proxies a client request to the primary,
    /// which replies directly to the original requester.
    Forward {
        /// The client the primary should answer.
        origin: ProcessId,
        /// The proxied request.
        rpc: Box<StoreRpc>,
    },
    /// Primary → replica: apply one op of the group's operation log.
    Replicate {
        /// The primary's group epoch (stale primaries are ignored).
        epoch: u64,
        /// Index of the primary member sending this.
        primary: u32,
        /// Sequence of the op in the group log (1-based).
        seq: u64,
        /// The mutation.
        op: StoreOp,
    },
    /// Replica → primary: cumulative acknowledgement of applied ops.
    ReplicateAck {
        /// Member index of the acking replica.
        from: u32,
        /// The replica's highest contiguously applied sequence.
        applied_seq: u64,
        /// The epoch the replica is following.
        epoch: u64,
    },
    /// Member ↔ member liveness + progress gossip.
    GroupHeartbeat {
        /// Sender's member index.
        from: u32,
        /// Sender's group epoch.
        epoch: u64,
        /// Who the sender believes is primary.
        primary: u32,
        /// Sender's highest applied sequence.
        applied_seq: u64,
        /// Whether the sender has caught up and serves requests.
        ready: bool,
    },
    /// A recovering (or claiming) member asks a peer for the op log suffix
    /// after `from_seq`.
    SyncRequest {
        /// Request id.
        corr: u64,
        /// The requester's highest applied sequence.
        from_seq: u64,
    },
    /// Op-log suffix transfer; `entries[i]` carries seq `from_seq + 1 + i`.
    SyncResponse {
        /// Request id.
        corr: u64,
        /// Responder's group epoch.
        epoch: u64,
        /// Responder's view of the primary index.
        primary: u32,
        /// The sequence the suffix starts after.
        from_seq: u64,
        /// The ops after `from_seq`, in sequence order.
        entries: Vec<StoreOp>,
        /// Full-state bootstrap, sent when the requester's needed suffix
        /// was truncated by peer-acked op-log cleaning: the responder's
        /// complete state as of `from_seq`. The receiver installs it,
        /// adopts `from_seq` as both its applied sequence and its log
        /// start, and applies `entries` (normally empty) on top.
        snapshot: Option<StateTransfer>,
    },
}

/// A full-state transfer for group resync below the truncated log start.
#[derive(Debug, Clone, Default)]
pub struct StateTransfer {
    /// Every KV pair.
    pub kv: Vec<(String, Vec<u8>)>,
    /// Every table as `(name, columns, rows)`.
    pub tables: Vec<(String, Vec<String>, Vec<Vec<String>>)>,
}

impl StateTransfer {
    /// Approximate wire size of the transfer.
    pub fn wire_size(&self) -> usize {
        self.kv
            .iter()
            .map(|(k, v)| k.len() + v.len() + 8)
            .sum::<usize>()
            + self
                .tables
                .iter()
                .map(|(n, cols, rows)| {
                    n.len()
                        + cols.iter().map(String::len).sum::<usize>()
                        + rows
                            .iter()
                            .map(|r| r.iter().map(String::len).sum::<usize>() + 4)
                            .sum::<usize>()
                })
                .sum::<usize>()
    }
}

impl Message for StoreRpc {
    fn wire_size(&self) -> usize {
        38 + match self {
            StoreRpc::Put { key, value, .. } => key.len() + value.len(),
            StoreRpc::PutAck { .. } => 8,
            StoreRpc::Get { key, .. } => key.len(),
            StoreRpc::GetResult { value, .. } => 8 + value.as_ref().map_or(0, Vec::len),
            StoreRpc::Delete { key, .. } => key.len(),
            StoreRpc::DeleteAck { .. } => 9,
            StoreRpc::Insert { table, row, .. } => {
                table.len() + row.iter().map(String::len).sum::<usize>()
            }
            StoreRpc::InsertAck { .. } => 9,
            StoreRpc::Forward { rpc, .. } => 8 + rpc.wire_size(),
            StoreRpc::Replicate { op, .. } => 24 + op.wire_size(),
            StoreRpc::ReplicateAck { .. } => 20,
            StoreRpc::GroupHeartbeat { .. } => 29,
            StoreRpc::SyncRequest { .. } => 16,
            StoreRpc::SyncResponse {
                entries, snapshot, ..
            } => {
                28 + entries.iter().map(StoreOp::wire_size).sum::<usize>()
                    + snapshot.as_ref().map_or(0, StateTransfer::wire_size)
            }
        }
    }
}

/// Store server tunables (the `storeCfg` YAML file).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// CPU cost per operation.
    pub cpu_per_op: SimDuration,
    /// One-time startup CPU cost.
    pub startup_cpu: SimDuration,
    /// Background churn per interval.
    pub background_cpu: SimDuration,
    /// Background churn period.
    pub background_interval: SimDuration,
    /// Heartbeat period between store-group members.
    pub group_heartbeat_interval: SimDuration,
    /// A member silent for longer than this is considered dead; the lowest
    /// surviving member then claims the primary role.
    pub group_session_timeout: SimDuration,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            cpu_per_op: SimDuration::from_micros(40),
            startup_cpu: SimDuration::from_millis(800),
            background_cpu: SimDuration::from_millis(3),
            background_interval: SimDuration::from_millis(100),
            group_heartbeat_interval: SimDuration::from_millis(250),
            group_session_timeout: SimDuration::from_millis(1_200),
        }
    }
}

mod tags {
    pub const STARTUP_DONE: u64 = 0;
    pub const BACKGROUND_TICK: u64 = 1;
    pub const BACKGROUND_DONE: u64 = 2;
    pub const GROUP_HB_TICK: u64 = 3;
    pub const SYNC_RETRY: u64 = 4;
    pub const CPU_BASE: u64 = 1 << 50;
}

/// How long a recovering member waits for a sync response before re-asking
/// its peers (the request or the response was lost).
const SYNC_RETRY_INTERVAL: SimDuration = SimDuration::from_millis(700);

/// Max op-log entries the primary re-sends to one lagging replica per
/// heartbeat round (repair for lost `Replicate` messages).
const REPAIR_BATCH: u64 = 128;

/// Recovery metrics for one restarted store-group member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRecoveryInfo {
    /// When the respawned member started.
    pub restarted_at: SimTime,
    /// When the member finished syncing the op log and resumed serving.
    pub resynced_at: Option<SimTime>,
    /// Ops pulled from a peer during catch-up.
    pub sync_ops: u64,
    /// Approximate bytes transferred during catch-up.
    pub sync_bytes: u64,
}

/// Quorum tracking for one mutation awaiting majority application.
#[derive(Debug)]
struct PendingWrite {
    client: ProcessId,
    ack: StoreRpc,
    acked_by: Vec<bool>,
}

/// Group-membership state of one replicated store member.
#[derive(Debug)]
struct GroupState {
    members: Vec<ProcessId>,
    index: usize,
    epoch: u64,
    primary: usize,
    applied_seq: u64,
    /// The retained operation log: `oplog[i]` holds seq `log_start + i + 1`.
    /// The prefix every live member has acked is truncated away
    /// (`log_start` advances); members needing older history are brought
    /// back by a full [`StateTransfer`] instead of replay.
    oplog: Vec<StoreOp>,
    /// Sequences discarded from the front of `oplog` (0 = nothing
    /// truncated yet).
    log_start: u64,
    /// Lifetime count of ops this member truncated as primary.
    truncated_ops: u64,
    ready: bool,
    peer_last_seen: Vec<SimTime>,
    peer_seq: Vec<u64>,
    peer_ready: Vec<bool>,
    /// Replicated ops that arrived ahead of a gap, keyed by seq.
    ooo: std::collections::BTreeMap<u64, StoreOp>,
    /// Writes awaiting quorum, keyed by seq.
    pending_writes: std::collections::BTreeMap<u64, PendingWrite>,
    next_sync_corr: u64,
    sync_inflight: Option<u64>,
    /// A failover claim is waiting for catch-up from a more advanced peer.
    claim_pending: bool,
    recovery: Option<StoreRecoveryInfo>,
}

impl GroupState {
    fn quorum(&self) -> usize {
        self.members.len() / 2 + 1
    }

    fn peer_alive(&self, i: usize, now: SimTime, timeout: SimDuration) -> bool {
        i == self.index || now.saturating_since(self.peer_last_seen[i]) <= timeout
    }
}

/// The store server process.
pub struct StoreServer {
    cfg: StoreConfig,
    kv: KvStore,
    tables: TableStore,
    pending: std::collections::HashMap<u64, (ProcessId, StoreRpc)>,
    next_tag: u64,
    mem: Option<(LedgerHandle, MemSlot)>,
    group: Option<GroupState>,
    name: String,
    /// Telemetry sink (an unshared default until the orchestrator attaches
    /// the run-wide one).
    tele: Telemetry,
}

impl StoreServer {
    /// Creates a store server.
    pub fn new(cfg: StoreConfig) -> Self {
        StoreServer {
            cfg,
            kv: KvStore::new(),
            tables: TableStore::new(),
            pending: std::collections::HashMap::new(),
            next_tag: 0,
            mem: None,
            group: None,
            name: "store".to_string(),
            tele: Telemetry::new(),
        }
    }

    /// Names the server (distinguishes group replicas in traces).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Attaches the run-wide telemetry sink. The server records its op-log
    /// length and applied sequence as gauges under its own name.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// Refreshes the op-log gauges after message/timer handling.
    fn telemetry_gauges(&self) {
        if self.group.is_some() {
            self.tele
                .gauge_set(&self.name, "oplog_len", self.oplog_len() as f64);
            self.tele
                .gauge_set(&self.name, "applied_seq", self.applied_seq() as f64);
        }
    }

    /// Attaches a memory-ledger slot.
    pub fn set_mem_slot(&mut self, ledger: LedgerHandle, slot: MemSlot) {
        self.mem = Some((ledger, slot));
    }

    /// Joins this server to a replication group. `members` lists every
    /// member's process id in index order (identical on every member);
    /// `index` is this member's slot. With `recovering` set (the respawn
    /// path) the member starts unready and pulls the op log from a peer
    /// before serving.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_group(&mut self, members: Vec<ProcessId>, index: usize, recovering: bool) {
        assert!(index < members.len(), "group index out of range");
        let n = members.len();
        self.group = Some(GroupState {
            members,
            index,
            epoch: 0,
            primary: 0,
            applied_seq: 0,
            oplog: Vec::new(),
            log_start: 0,
            truncated_ops: 0,
            ready: !recovering,
            peer_last_seen: vec![SimTime::ZERO; n],
            peer_seq: vec![0; n],
            peer_ready: vec![false; n],
            ooo: std::collections::BTreeMap::new(),
            pending_writes: std::collections::BTreeMap::new(),
            next_sync_corr: 0,
            sync_inflight: None,
            claim_pending: false,
            recovery: None,
        });
    }

    /// True when this server is its group's acting primary (or standalone).
    pub fn is_primary(&self) -> bool {
        match &self.group {
            None => true,
            Some(g) => g.ready && g.primary == g.index,
        }
    }

    /// The group epoch (0 when standalone).
    pub fn group_epoch(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.epoch)
    }

    /// The highest contiguously applied group-log sequence (0 standalone).
    pub fn applied_seq(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.applied_seq)
    }

    /// Op-log entries currently retained (0 standalone) — bounded by
    /// peer-acked truncation instead of growing with run length.
    pub fn oplog_len(&self) -> usize {
        self.group.as_ref().map_or(0, |g| g.oplog.len())
    }

    /// Ops this member discarded as primary via peer-acked truncation.
    pub fn oplog_truncated(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.truncated_ops)
    }

    /// Recovery details when this member incarnation rejoined its group.
    pub fn recovery_info(&self) -> Option<StoreRecoveryInfo> {
        self.group.as_ref().and_then(|g| g.recovery)
    }

    /// The KV store (post-run inspection).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// The table store (post-run inspection).
    pub fn tables(&self) -> &TableStore {
        &self.tables
    }

    /// Mutable table access (e.g. pre-creating schemas before a run).
    pub fn tables_mut(&mut self) -> &mut TableStore {
        &mut self.tables
    }

    fn update_mem(&mut self) {
        if let Some((ledger, slot)) = &self.mem {
            let bytes = (self.kv.resident_bytes() + self.tables.resident_bytes()) as u64;
            ledger.borrow_mut().set_dynamic(*slot, bytes);
        }
    }

    fn respond_after_cpu(&mut self, ctx: &mut Ctx<'_>, to: ProcessId, rpc: StoreRpc) {
        let tag = tags::CPU_BASE + self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, (to, rpc));
        ctx.exec(self.cfg.cpu_per_op, tag);
    }

    /// Applies one mutation to the local stores. `Insert` races (a duplicate
    /// `CreateTable` behind a lost-RPC retry, or a replicated op re-applied
    /// during repair) are tolerated: an already-existing table is simply
    /// inserted into instead of panicking.
    fn apply_op(&mut self, op: &StoreOp) -> StoreRpcOutcomeBits {
        let mut bits = StoreRpcOutcomeBits {
            existed: false,
            ok: true,
        };
        match op {
            StoreOp::Put { key, value } => {
                self.kv.put(key.clone(), value.clone());
            }
            StoreOp::Delete { key } => {
                bits.existed = self.kv.delete(key).is_some();
            }
            StoreOp::Insert { table, row } => {
                if self.tables.table_names().iter().all(|t| t != table) {
                    let cols: Vec<String> = (0..row.len()).map(|i| format!("c{i}")).collect();
                    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                    match self.tables.create_table(table, &col_refs) {
                        // `AlreadyExists` is not a bug: a duplicate
                        // `CreateTable` can race a lost-RPC retry (or a
                        // repair re-send in a replication group); fall
                        // through to the insert either way.
                        Ok(()) | Err(TableError::TableExists(_)) => {}
                        Err(_) => {
                            bits.ok = false;
                            return bits;
                        }
                    }
                }
                bits.ok = self.tables.insert(table, row.clone()).is_ok();
            }
        }
        self.update_mem();
        bits
    }

    /// Builds the client-facing ack for a mutation.
    fn ack_for(rpc: &StoreRpc, bits: StoreRpcOutcomeBits) -> StoreRpc {
        match rpc {
            StoreRpc::Put { corr, .. } => StoreRpc::PutAck { corr: *corr },
            StoreRpc::Delete { corr, .. } => StoreRpc::DeleteAck {
                corr: *corr,
                existed: bits.existed,
            },
            StoreRpc::Insert { corr, .. } => StoreRpc::InsertAck {
                corr: *corr,
                ok: bits.ok,
            },
            _ => unreachable!("ack_for only takes mutations"),
        }
    }

    fn op_of(rpc: &StoreRpc) -> Option<StoreOp> {
        match rpc {
            StoreRpc::Put { key, value, .. } => Some(StoreOp::Put {
                key: key.clone(),
                value: value.clone(),
            }),
            StoreRpc::Delete { key, .. } => Some(StoreOp::Delete { key: key.clone() }),
            StoreRpc::Insert { table, row, .. } => Some(StoreOp::Insert {
                table: table.clone(),
                row: row.clone(),
            }),
            _ => None,
        }
    }

    /// Primary path for a client mutation: apply locally, append to the
    /// group log, replicate to peers, and ack once a majority applied.
    fn primary_mutate(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, rpc: StoreRpc) {
        let op = Self::op_of(&rpc).expect("mutation");
        let bits = self.apply_op(&op);
        let ack = Self::ack_for(&rpc, bits);
        let Some(g) = self.group.as_mut() else {
            // Standalone: ack immediately (the original single-server path).
            self.respond_after_cpu(ctx, from, ack);
            return;
        };
        g.applied_seq += 1;
        let seq = g.applied_seq;
        g.oplog.push(op.clone());
        let mut acked_by = vec![false; g.members.len()];
        acked_by[g.index] = true;
        let quorum = g.quorum();
        let epoch = g.epoch;
        let primary = g.index as u32;
        let peers: Vec<ProcessId> = g
            .members
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != g.index)
            .map(|(_, p)| *p)
            .collect();
        if acked_by.iter().filter(|b| **b).count() >= quorum {
            // Single-member group: durable by definition.
            self.respond_after_cpu(ctx, from, ack);
        } else {
            g.pending_writes.insert(
                seq,
                PendingWrite {
                    client: from,
                    ack,
                    acked_by,
                },
            );
        }
        for p in peers {
            ctx.send(
                p,
                StoreRpc::Replicate {
                    epoch,
                    primary,
                    seq,
                    op: op.clone(),
                },
            );
        }
    }

    /// Acks every pending write newly covered by a quorum.
    fn pump_quorum(&mut self, ctx: &mut Ctx<'_>) {
        let Some(g) = self.group.as_mut() else { return };
        let quorum = g.quorum();
        let ready: Vec<u64> = g
            .pending_writes
            .iter()
            .filter(|(_, w)| w.acked_by.iter().filter(|b| **b).count() >= quorum)
            .map(|(s, _)| *s)
            .collect();
        let mut acks = Vec::new();
        for s in ready {
            if let Some(w) = g.pending_writes.remove(&s) {
                acks.push((w.client, w.ack));
            }
        }
        for (client, ack) in acks {
            self.respond_after_cpu(ctx, client, ack);
        }
    }

    /// Handles a client-facing RPC (possibly proxied). `origin` is who gets
    /// the answer.
    fn handle_client_rpc(&mut self, ctx: &mut Ctx<'_>, origin: ProcessId, rpc: StoreRpc) {
        let grouped = self.group.is_some();
        if grouped && !self.group.as_ref().is_some_and(|g| g.ready) {
            // Recovering member: not serving. Client retries rotate onward.
            return;
        }
        if grouped && !self.is_primary() {
            // Proxy to the primary, which answers the origin directly.
            let primary_pid = {
                let g = self.group.as_ref().expect("grouped");
                g.members[g.primary]
            };
            ctx.send(
                primary_pid,
                StoreRpc::Forward {
                    origin,
                    rpc: Box::new(rpc),
                },
            );
            return;
        }
        match rpc {
            StoreRpc::Get { corr, key } => {
                let value = self.kv.get_counted(&key).map(|b| b.to_vec());
                self.respond_after_cpu(ctx, origin, StoreRpc::GetResult { corr, value });
            }
            m @ (StoreRpc::Put { .. } | StoreRpc::Delete { .. } | StoreRpc::Insert { .. }) => {
                self.primary_mutate(ctx, origin, m);
            }
            _ => {}
        }
    }

    /// Adopts a newer group epoch (and its primary). A member that was
    /// itself the *acting primary* of an older epoch may hold a divergent,
    /// never-quorum-acked tail it applied while isolated; counting its
    /// inflated `applied_seq` toward the new primary's quorums would fake
    /// durability. Such a member steps down hard: it discards its local
    /// state and op log, drops its pending writes (their clients retry
    /// through the group), and rebuilds from a full sync off the new
    /// regime — after which it is byte-identical to replay of the
    /// canonical log.
    fn follow_epoch(&mut self, ctx: &mut Ctx<'_>, epoch: u64, primary: u32) {
        let deposed = {
            let Some(g) = self.group.as_mut() else { return };
            if epoch <= g.epoch {
                if epoch == g.epoch && g.primary != primary as usize {
                    g.primary = primary as usize;
                }
                return;
            }
            let was_acting_primary = g.ready && g.primary == g.index && g.index != primary as usize;
            g.epoch = epoch;
            g.primary = primary as usize;
            g.claim_pending = false;
            if was_acting_primary {
                g.ready = false;
                g.applied_seq = 0;
                g.oplog.clear();
                g.log_start = 0;
                g.ooo.clear();
                g.pending_writes.clear();
            }
            was_acting_primary
        };
        if deposed {
            self.kv = KvStore::new();
            self.tables = TableStore::new();
            self.update_mem();
            self.start_sync(ctx, None);
        }
    }

    /// Replica path: apply a replicated op in sequence order, buffering
    /// out-of-order arrivals, and cumulatively ack progress.
    fn handle_replicate(
        &mut self,
        ctx: &mut Ctx<'_>,
        epoch: u64,
        primary: u32,
        seq: u64,
        op: StoreOp,
    ) {
        {
            let Some(g) = self.group.as_ref() else { return };
            if epoch < g.epoch {
                return; // stale primary
            }
        }
        self.follow_epoch(ctx, epoch, primary);
        {
            let Some(g) = self.group.as_mut() else { return };
            if !g.ready {
                return; // rebuilding: the sync brings these ops instead
            }
            if g.primary != primary as usize {
                g.primary = primary as usize;
            }
            if seq > g.applied_seq {
                g.ooo.insert(seq, op);
            }
        }
        // Drain in-order ops.
        loop {
            let next = {
                let g = self.group.as_ref().expect("grouped");
                let next_seq = g.applied_seq + 1;
                g.ooo.contains_key(&next_seq).then_some(next_seq)
            };
            let Some(next_seq) = next else { break };
            let op = self
                .group
                .as_mut()
                .expect("grouped")
                .ooo
                .remove(&next_seq)
                .expect("just checked");
            self.apply_op(&op);
            let g = self.group.as_mut().expect("grouped");
            g.applied_seq = next_seq;
            g.oplog.push(op);
        }
        let g = self.group.as_ref().expect("grouped");
        let (from, applied_seq, epoch) = (g.index as u32, g.applied_seq, g.epoch);
        let primary_pid = g.members[g.primary];
        ctx.send(
            primary_pid,
            StoreRpc::ReplicateAck {
                from,
                applied_seq,
                epoch,
            },
        );
    }

    fn handle_replicate_ack(&mut self, ctx: &mut Ctx<'_>, from: u32, applied_seq: u64, epoch: u64) {
        {
            let Some(g) = self.group.as_mut() else { return };
            if epoch != g.epoch {
                return;
            }
            let i = from as usize;
            if i >= g.members.len() {
                return;
            }
            g.peer_seq[i] = g.peer_seq[i].max(applied_seq);
            for (s, w) in g.pending_writes.iter_mut() {
                if *s <= applied_seq {
                    w.acked_by[i] = true;
                }
            }
        }
        self.pump_quorum(ctx);
    }

    fn handle_heartbeat(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: u32,
        epoch: u64,
        primary: u32,
        applied_seq: u64,
        ready: bool,
    ) {
        let now = ctx.now();
        {
            let Some(g) = self.group.as_mut() else { return };
            let i = from as usize;
            if i >= g.members.len() {
                return;
            }
            g.peer_last_seen[i] = now;
            g.peer_seq[i] = g.peer_seq[i].max(applied_seq);
            g.peer_ready[i] = ready;
        }
        // A newer primary claimed; follow it (a deposed acting primary
        // rebuilds, see `follow_epoch`).
        self.follow_epoch(ctx, epoch, primary);
        // The heartbeat's applied_seq doubles as a cumulative ack: a lost
        // ReplicateAck heals here instead of stalling the quorum until the
        // client re-sends the whole blob.
        let ack_progress = {
            let Some(g) = self.group.as_mut() else { return };
            let i = from as usize;
            if g.primary == g.index && g.ready {
                let mut any = false;
                for (seq, w) in g.pending_writes.iter_mut() {
                    if *seq <= applied_seq && !w.acked_by[i] {
                        w.acked_by[i] = true;
                        any = true;
                    }
                }
                any
            } else {
                false
            }
        };
        if ack_progress {
            self.pump_quorum(ctx);
        }
        let mut repair: Vec<(ProcessId, StoreRpc)> = Vec::new();
        {
            let Some(g) = self.group.as_mut() else { return };
            let i = from as usize;
            // Primary-side repair: re-send the op-log suffix a lagging ready
            // replica is missing (lost Replicate messages heal here).
            if g.primary == g.index && g.ready && ready && applied_seq < g.applied_seq {
                let peer = g.members[i];
                // Truncated prefix cannot be repaired record-by-record; a
                // peer that far behind resyncs via the snapshot path when
                // it asks. (A live ready peer is never behind `log_start` —
                // truncation only discards what every live member acked.)
                let start = applied_seq.max(g.log_start);
                let upto = (start + REPAIR_BATCH).min(g.applied_seq);
                for seq in (start + 1)..=upto {
                    repair.push((
                        peer,
                        StoreRpc::Replicate {
                            epoch: g.epoch,
                            primary: g.index as u32,
                            seq,
                            op: g.oplog[(seq - 1 - g.log_start) as usize].clone(),
                        },
                    ));
                }
            }
        }
        for (to, rpc) in repair {
            ctx.send(to, rpc);
        }
    }

    fn handle_sync_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcessId,
        corr: u64,
        from_seq: u64,
    ) {
        let (epoch, primary, log_start, applied) = {
            let Some(g) = self.group.as_ref() else { return };
            if !g.ready {
                return; // cannot seed others while recovering ourselves
            }
            (g.epoch, g.primary as u32, g.log_start, g.applied_seq)
        };
        if from_seq < log_start {
            // The suffix the requester needs was truncated away by
            // peer-acked cleaning: ship a full state snapshot instead. The
            // receiver adopts our applied sequence wholesale.
            let snapshot = StateTransfer {
                kv: self
                    .kv
                    .entries()
                    .map(|(k, v)| (k.clone(), v.to_vec()))
                    .collect(),
                tables: self.tables.dump(),
            };
            ctx.send(
                from,
                StoreRpc::SyncResponse {
                    corr,
                    epoch,
                    primary,
                    from_seq: applied,
                    entries: Vec::new(),
                    snapshot: Some(snapshot),
                },
            );
            return;
        }
        let g = self.group.as_ref().expect("checked above");
        let start = from_seq.min(applied);
        let entries: Vec<StoreOp> = g.oplog[(start - log_start) as usize..].to_vec();
        ctx.send(
            from,
            StoreRpc::SyncResponse {
                corr,
                epoch,
                primary,
                from_seq: start,
                entries,
                snapshot: None,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_sync_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        corr: u64,
        epoch: u64,
        primary: u32,
        from_seq: u64,
        entries: Vec<StoreOp>,
        snapshot: Option<StateTransfer>,
    ) {
        {
            let Some(g) = self.group.as_ref() else { return };
            if g.sync_inflight != Some(corr) {
                return; // stale or duplicate response
            }
        }
        let mut sync_ops = 0u64;
        let mut sync_bytes = 0u64;
        if let Some(snap) = snapshot {
            // Bootstrap from the full state transfer: install it, adopt the
            // responder's applied sequence, and start an empty log there.
            sync_bytes += snap.wire_size() as u64;
            sync_ops += (snap.kv.len()
                + snap
                    .tables
                    .iter()
                    .map(|(_, _, rows)| rows.len())
                    .sum::<usize>()) as u64;
            self.kv = KvStore::new();
            self.tables = TableStore::new();
            for (k, v) in snap.kv {
                self.kv.put(k, v);
            }
            for (name, cols, rows) in snap.tables {
                let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                let _ = self.tables.create_table(&name, &col_refs);
                for row in rows {
                    let _ = self.tables.insert(&name, row);
                }
            }
            self.update_mem();
            let g = self.group.as_mut().expect("grouped");
            g.oplog.clear();
            g.ooo.clear();
            g.applied_seq = from_seq;
            g.log_start = from_seq;
        }
        for (i, op) in entries.iter().enumerate() {
            let seq = from_seq + 1 + i as u64;
            let applied = self.group.as_ref().expect("grouped").applied_seq;
            if seq != applied + 1 {
                continue; // already have it (duplicate retry overlap)
            }
            self.apply_op(op);
            let g = self.group.as_mut().expect("grouped");
            g.applied_seq = seq;
            g.oplog.push(op.clone());
            sync_ops += 1;
            sync_bytes += op.wire_size() as u64;
        }
        let was_claiming;
        {
            let g = self.group.as_mut().expect("grouped");
            g.sync_inflight = None;
            if epoch > g.epoch {
                g.epoch = epoch;
                g.primary = primary as usize;
            }
            was_claiming = g.claim_pending;
            if !g.ready {
                g.ready = true;
                if let Some(r) = g.recovery.as_mut() {
                    r.resynced_at = Some(ctx.now());
                    r.sync_ops += sync_ops;
                    r.sync_bytes += sync_bytes;
                }
                self.tele
                    .trace_end(ctx.now(), &self.name, "recovery:resync", "recovery");
            }
        }
        if was_claiming {
            self.try_claim_primary(ctx);
        }
    }

    /// Starts (or retries) a sync. A rejoin broadcasts to every peer (any
    /// ready member's full log will do; the first answer wins); a failover
    /// catch-up passes the single most-advanced live peer as `targets`, so
    /// a less-advanced peer's earlier (useless) answer can never consume
    /// the one response that matters.
    fn start_sync(&mut self, ctx: &mut Ctx<'_>, targets: Option<Vec<ProcessId>>) {
        let Some(g) = self.group.as_mut() else { return };
        g.next_sync_corr += 1;
        let corr = g.next_sync_corr;
        g.sync_inflight = Some(corr);
        let from_seq = g.applied_seq;
        let peers: Vec<ProcessId> = targets.unwrap_or_else(|| {
            g.members
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != g.index)
                .map(|(_, p)| *p)
                .collect()
        });
        for p in peers {
            ctx.send(p, StoreRpc::SyncRequest { corr, from_seq });
        }
        ctx.set_timer(SYNC_RETRY_INTERVAL, tags::SYNC_RETRY);
    }

    /// Claims the primary role if this member is the lowest-indexed live
    /// candidate and is at least as advanced as every live peer; otherwise
    /// first pulls the missing suffix from the most advanced live peer.
    fn try_claim_primary(&mut self, ctx: &mut Ctx<'_>) {
        let needs_catchup: Option<ProcessId> = {
            let Some(g) = self.group.as_ref() else { return };
            if !g.ready {
                return;
            }
            let now = ctx.now();
            let timeout = self.cfg.group_session_timeout;
            // The current primary must be dead, and no live ready member may
            // be ordered before us.
            if g.primary == g.index || g.peer_alive(g.primary, now, timeout) {
                return;
            }
            // A claim needs a live majority in sight: a partitioned
            // minority member that merely stopped *hearing* the others must
            // never crown itself — on heal it would depose the true
            // primary and quorum-acked writes with it.
            let alive = (0..g.members.len())
                .filter(|i| g.peer_alive(*i, now, timeout))
                .count();
            if alive < g.quorum() {
                return;
            }
            let lowest_live = (0..g.members.len())
                .find(|i| *i == g.index || (g.peer_alive(*i, now, timeout) && g.peer_ready[*i]));
            if lowest_live != Some(g.index) {
                return;
            }
            let ahead = (0..g.members.len())
                .filter(|i| *i != g.index && *i != g.primary && g.peer_alive(*i, now, timeout))
                .max_by_key(|i| g.peer_seq[*i])
                .filter(|i| g.peer_seq[*i] > g.applied_seq);
            ahead.map(|i| g.members[i])
        };
        if let Some(ahead_pid) = needs_catchup {
            // Catch up from the most advanced live peer first, so an acked
            // write on a surviving majority is never lost to the failover.
            // The sync is targeted: only that peer is asked, so no
            // less-advanced peer can answer first with nothing.
            let g = self.group.as_mut().expect("grouped");
            g.claim_pending = true;
            if g.sync_inflight.is_none() {
                self.start_sync(ctx, Some(vec![ahead_pid]));
            }
            return;
        }
        let g = self.group.as_mut().expect("grouped");
        g.claim_pending = false;
        g.epoch += 1;
        g.primary = g.index;
        self.send_heartbeats(ctx);
    }

    /// Primary-side op-log truncation: discards the prefix every *live*
    /// member has acknowledged applying (their heartbeat/ack sequences are
    /// cumulative state snapshots of their progress), so long runs stop
    /// growing the log — and the resync cost of the next rejoin. A member
    /// that was dead past the truncation point is brought back by a full
    /// [`StateTransfer`] instead of replay.
    fn truncate_acked_oplog(&mut self, now: SimTime) {
        let timeout = self.cfg.group_session_timeout;
        let Some(g) = self.group.as_mut() else { return };
        if g.primary != g.index || !g.ready || g.members.len() < 2 {
            return;
        }
        let mut floor = g.applied_seq;
        for i in 0..g.members.len() {
            if i == g.index {
                continue;
            }
            if g.peer_alive(i, now, timeout) {
                // A live recovering member reports 0 until its sync lands,
                // which (correctly) freezes truncation meanwhile.
                floor = floor.min(g.peer_seq[i]);
            }
        }
        if floor <= g.log_start {
            return;
        }
        let drop = (floor - g.log_start) as usize;
        g.oplog.drain(..drop);
        g.truncated_ops += drop as u64;
        g.log_start = floor;
    }

    fn send_heartbeats(&mut self, ctx: &mut Ctx<'_>) {
        let Some(g) = self.group.as_ref() else { return };
        let hb = StoreRpc::GroupHeartbeat {
            from: g.index as u32,
            epoch: g.epoch,
            primary: g.primary as u32,
            applied_seq: g.applied_seq,
            ready: g.ready,
        };
        let peers: Vec<ProcessId> = g
            .members
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != g.index)
            .map(|(_, p)| *p)
            .collect();
        for p in peers {
            ctx.send(p, hb.clone());
        }
    }
}

/// Per-op outcome bits threaded into client acks.
#[derive(Debug, Clone, Copy)]
struct StoreRpcOutcomeBits {
    existed: bool,
    ok: bool,
}

impl Process for StoreServer {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.exec(self.cfg.startup_cpu, tags::STARTUP_DONE);
        ctx.set_timer(self.cfg.background_interval, tags::BACKGROUND_TICK);
        let recovering = self.group.as_ref().is_some_and(|g| !g.ready);
        if let Some(g) = self.group.as_mut() {
            // Until real heartbeats land, assume peers were alive "now" so a
            // fresh start does not immediately declare everyone dead.
            let now = ctx.now();
            for t in g.peer_last_seen.iter_mut() {
                *t = now;
            }
            if recovering {
                g.recovery = Some(StoreRecoveryInfo {
                    restarted_at: now,
                    resynced_at: None,
                    sync_ops: 0,
                    sync_bytes: 0,
                });
                self.tele
                    .trace_begin(now, &self.name, "recovery:resync", "recovery");
            }
            ctx.set_timer(self.cfg.group_heartbeat_interval, tags::GROUP_HB_TICK);
        }
        if recovering {
            self.start_sync(ctx, None);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        let Ok(rpc) = downcast::<StoreRpc>(msg) else {
            return;
        };
        match *rpc {
            StoreRpc::Forward { origin, rpc } => {
                // Only the acting primary serves proxied requests; anything
                // else drops them (the client's retry rotates onward).
                if self.is_primary() && self.group.is_some() {
                    self.handle_client_rpc(ctx, origin, *rpc);
                }
            }
            StoreRpc::Replicate {
                epoch,
                primary,
                seq,
                op,
            } => self.handle_replicate(ctx, epoch, primary, seq, op),
            StoreRpc::ReplicateAck {
                from: idx,
                applied_seq,
                epoch,
            } => self.handle_replicate_ack(ctx, idx, applied_seq, epoch),
            StoreRpc::GroupHeartbeat {
                from: idx,
                epoch,
                primary,
                applied_seq,
                ready,
            } => self.handle_heartbeat(ctx, idx, epoch, primary, applied_seq, ready),
            StoreRpc::SyncRequest { corr, from_seq } => {
                self.handle_sync_request(ctx, from, corr, from_seq)
            }
            StoreRpc::SyncResponse {
                corr,
                epoch,
                primary,
                from_seq,
                entries,
                snapshot,
            } => self.handle_sync_response(ctx, corr, epoch, primary, from_seq, entries, snapshot),
            client_rpc @ (StoreRpc::Put { .. }
            | StoreRpc::Get { .. }
            | StoreRpc::Delete { .. }
            | StoreRpc::Insert { .. }) => {
                self.handle_client_rpc(ctx, from, client_rpc);
            }
            // Responses are never received by the server.
            StoreRpc::PutAck { .. }
            | StoreRpc::GetResult { .. }
            | StoreRpc::DeleteAck { .. }
            | StoreRpc::InsertAck { .. } => {}
        }
        self.telemetry_gauges();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            tags::BACKGROUND_TICK => {
                if !self.cfg.background_cpu.is_zero() {
                    ctx.exec(self.cfg.background_cpu, tags::BACKGROUND_DONE);
                }
                ctx.set_timer(self.cfg.background_interval, tags::BACKGROUND_TICK);
            }
            tags::GROUP_HB_TICK => {
                self.send_heartbeats(ctx);
                self.try_claim_primary(ctx);
                self.truncate_acked_oplog(ctx.now());
                self.telemetry_gauges();
                ctx.set_timer(self.cfg.group_heartbeat_interval, tags::GROUP_HB_TICK);
            }
            tags::SYNC_RETRY => {
                let (retry, claiming) = self.group.as_ref().map_or((false, false), |g| {
                    (g.sync_inflight.is_some(), g.claim_pending)
                });
                if retry {
                    if claiming {
                        // Re-evaluate the catch-up target: the previously
                        // chosen peer may itself have died.
                        if let Some(g) = self.group.as_mut() {
                            g.sync_inflight = None;
                        }
                        self.try_claim_primary(ctx);
                    } else {
                        self.start_sync(ctx, None);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag >= tags::CPU_BASE {
            if let Some((to, rpc)) = self.pending.remove(&tag) {
                ctx.send(to, rpc);
            }
        }
    }
}

impl std::fmt::Debug for StoreServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServer")
            .field("kv_keys", &self.kv.len())
            .field("table_rows", &self.tables.total_rows())
            .field("primary", &self.is_primary())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_sim::{Sim, SimTime};

    struct TestClient {
        store: ProcessId,
        acks: u32,
        got: Option<Option<Vec<u8>>>,
    }

    impl Process for TestClient {
        fn name(&self) -> &str {
            "client"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(
                self.store,
                StoreRpc::Put {
                    corr: 1,
                    key: "k".into(),
                    value: b"v".to_vec(),
                },
            );
            ctx.send(
                self.store,
                StoreRpc::Insert {
                    corr: 2,
                    table: "t".into(),
                    row: vec!["a".into(), "b".into()],
                },
            );
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
            let Ok(rpc) = downcast::<StoreRpc>(msg) else {
                return;
            };
            match *rpc {
                StoreRpc::PutAck { .. } | StoreRpc::InsertAck { .. } => {
                    self.acks += 1;
                    if self.acks == 2 {
                        ctx.send(
                            self.store,
                            StoreRpc::Get {
                                corr: 3,
                                key: "k".into(),
                            },
                        );
                    }
                }
                StoreRpc::GetResult { value, .. } => self.got = Some(value),
                _ => {}
            }
        }
    }

    #[test]
    fn put_insert_get_round_trip() {
        let mut sim = Sim::new(0);
        let store = sim.spawn(Box::new(StoreServer::new(StoreConfig::default())));
        let client = sim.spawn(Box::new(TestClient {
            store,
            acks: 0,
            got: None,
        }));
        sim.run_until(SimTime::from_secs(5));
        let c = sim.process_ref::<TestClient>(client).unwrap();
        assert_eq!(c.acks, 2);
        assert_eq!(c.got, Some(Some(b"v".to_vec())));
        let s = sim.process_ref::<StoreServer>(store).unwrap();
        assert_eq!(s.kv().len(), 1);
        assert_eq!(s.tables().total_rows(), 1);
    }

    /// A retried `Insert` whose first copy already auto-created the table
    /// (the lost-ack retry path) must not panic and must keep inserting.
    struct DuplicateInsertClient {
        store: ProcessId,
        acks_ok: u32,
    }

    impl Process for DuplicateInsertClient {
        fn name(&self) -> &str {
            "dup-client"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // Two identical creates-via-insert in flight at once: the second
            // arrives after the first created the table.
            for corr in [1, 2] {
                ctx.send(
                    self.store,
                    StoreRpc::Insert {
                        corr,
                        table: "races".into(),
                        row: vec!["x".into()],
                    },
                );
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
            if let Ok(rpc) = downcast::<StoreRpc>(msg) {
                if let StoreRpc::InsertAck { ok: true, .. } = *rpc {
                    self.acks_ok += 1;
                }
            }
        }
    }

    #[test]
    fn duplicate_create_table_race_returns_ok_instead_of_panicking() {
        let mut sim = Sim::new(0);
        let mut server = StoreServer::new(StoreConfig::default());
        // Pre-create the table, as a raced duplicate CreateTable would: the
        // insert handler must treat AlreadyExists as success.
        server
            .tables_mut()
            .create_table("races", &["c0"])
            .expect("fresh table");
        let store = sim.spawn(Box::new(server));
        let client = sim.spawn(Box::new(DuplicateInsertClient { store, acks_ok: 0 }));
        sim.run_until(SimTime::from_secs(5));
        let c = sim.process_ref::<DuplicateInsertClient>(client).unwrap();
        assert_eq!(c.acks_ok, 2, "both retried inserts succeed");
        let s = sim.process_ref::<StoreServer>(store).unwrap();
        assert_eq!(s.tables().total_rows(), 2);
    }

    /// Spawns an n-member group plus a client writing through member 0.
    fn spawn_group(sim: &mut Sim, n: usize) -> Vec<ProcessId> {
        let pids: Vec<ProcessId> = (0..n)
            .map(|i| {
                let mut s = StoreServer::new(StoreConfig::default());
                s.set_name(format!("store-{i}"));
                sim.spawn(Box::new(s))
            })
            .collect();
        for (i, pid) in pids.iter().enumerate() {
            sim.process_mut::<StoreServer>(*pid)
                .unwrap()
                .set_group(pids.clone(), i, false);
        }
        pids
    }

    #[test]
    fn group_replicates_writes_to_every_member() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        let client = sim.spawn(Box::new(TestClient {
            store: pids[0],
            acks: 0,
            got: None,
        }));
        sim.run_until(SimTime::from_secs(10));
        let c = sim.process_ref::<TestClient>(client).unwrap();
        assert_eq!(c.acks, 2, "quorum acks arrived");
        assert_eq!(c.got, Some(Some(b"v".to_vec())));
        for pid in &pids {
            let s = sim.process_ref::<StoreServer>(*pid).unwrap();
            assert_eq!(s.kv().len(), 1, "replicated to every member");
            assert_eq!(s.tables().total_rows(), 1);
            assert_eq!(s.applied_seq(), 2);
        }
        assert!(sim
            .process_ref::<StoreServer>(pids[0])
            .unwrap()
            .is_primary());
        assert!(!sim
            .process_ref::<StoreServer>(pids[1])
            .unwrap()
            .is_primary());
    }

    #[test]
    fn replica_proxies_client_requests_to_the_primary() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        // Talk to member 2 (a replica): it must forward to the primary and
        // the client must still get its acks.
        let client = sim.spawn(Box::new(TestClient {
            store: pids[2],
            acks: 0,
            got: None,
        }));
        sim.run_until(SimTime::from_secs(10));
        let c = sim.process_ref::<TestClient>(client).unwrap();
        assert_eq!(c.acks, 2, "proxied writes are acknowledged");
        assert_eq!(c.got, Some(Some(b"v".to_vec())));
    }

    #[test]
    fn failover_promotes_the_next_member() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        let client = sim.spawn(Box::new(TestClient {
            store: pids[0],
            acks: 0,
            got: None,
        }));
        sim.run_until(SimTime::from_secs(5));
        // Kill the primary; member 1 must claim within the session timeout.
        sim.kill(pids[0]);
        sim.run_until(SimTime::from_secs(10));
        let s1 = sim.process_ref::<StoreServer>(pids[1]).unwrap();
        assert!(s1.is_primary(), "member 1 claimed after the primary died");
        assert!(s1.group_epoch() > 0, "claim bumped the group epoch");
        let s2 = sim.process_ref::<StoreServer>(pids[2]).unwrap();
        assert!(!s2.is_primary());
        assert_eq!(s2.group_epoch(), s1.group_epoch(), "epoch propagated");
        let _ = client;
    }
}
