//! Leader-election property sweep.
//!
//! A 3-broker cluster replicates one topic at RF=3 while a seeded schedule
//! of leader kills and restarts churns the cluster from the test loop.
//! After the schedule settles, the replication invariants must hold for
//! every seed:
//!
//! * exactly one live broker leads the partition;
//! * every replica's log is byte-identical to the elected leader's
//!   (followers truncated any divergent suffix and caught up);
//! * at `acks=all`, no acknowledged record is lost — every acked sequence
//!   number is delivered to a read-committed-agnostic consumer that
//!   survives the whole run.

use std::collections::BTreeMap;

use s2g_broker::{
    Broker, BrokerConfig, CollectingSink, ConsumerClient, ConsumerConfig, ConsumerProcess,
    ControllerConfig, CoordinationMode, ProducerClient, ProducerConfig, ProducerProcess,
    RateSource, TopicSpec, ZkController,
};
use s2g_net::{LinkSpec, NetTransport, Network, Topology};
use s2g_proto::{AckMode, BrokerId, ProducerId, TopicPartition};
use s2g_sim::{ProcessId, Sim, SimDuration, SimTime};

const N_BROKERS: u32 = 3;
const RUN_FOR: u64 = 60;

/// Deterministic xorshift so a seed fully fixes the kill/restart schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

struct Cluster {
    sim: Sim,
    controller_pids: Vec<ProcessId>,
    broker_pids: Vec<ProcessId>,
    brokers_hash: BTreeMap<BrokerId, ProcessId>,
    producer_pid: ProcessId,
    consumer_pid: ProcessId,
    broker_cfg: BrokerConfig,
    incarnations: Vec<u64>,
}

/// One kill/restart cycle of the schedule: which broker died, when, and
/// how long it stayed down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cycle {
    victim: u32,
    at_ms: u64,
    down_ms: u64,
}

fn build(seed: u64) -> Cluster {
    let mut topo = Topology::star(N_BROKERS as usize, LinkSpec::new().latency_ms(2)).unwrap();
    for h in ["hc", "hp"] {
        topo.add_host(h).unwrap();
        topo.add_link(h, "s1", LinkSpec::new().latency_ms(2))
            .unwrap();
    }
    let net = Network::new(topo).into_handle();
    let mut sim = Sim::new(seed);
    sim.set_transport(Box::new(NetTransport(net.clone())));

    let topics = vec![TopicSpec::new("events").replication(3).primary(0)];
    let controller_pids = vec![ProcessId(0)];
    let broker_pids: Vec<ProcessId> = (1..1 + N_BROKERS).map(ProcessId).collect();
    let brokers_btree: BTreeMap<BrokerId, ProcessId> = (0..N_BROKERS)
        .map(|i| (BrokerId(i), broker_pids[i as usize]))
        .collect();
    let brokers_hash: BTreeMap<BrokerId, ProcessId> =
        brokers_btree.iter().map(|(k, v)| (*k, *v)).collect();

    // Failure detection must outpace the schedule's shortest downtime or
    // no election ever happens.
    let ctrl_cfg = ControllerConfig {
        session_timeout: SimDuration::from_secs(1),
        session_check_interval: SimDuration::from_millis(250),
        ..ControllerConfig::default()
    };
    let pid = sim.spawn(Box::new(ZkController::new(
        ctrl_cfg,
        brokers_btree.clone(),
        &topics,
    )));
    assert_eq!(pid, controller_pids[0]);

    let broker_cfg = BrokerConfig {
        heartbeat_interval: SimDuration::from_millis(300),
        session_timeout: SimDuration::from_secs(1),
        replica_fetch_interval: SimDuration::from_millis(10),
        ..BrokerConfig::default()
    };
    for i in 0..N_BROKERS {
        let b = Broker::new(
            BrokerId(i),
            broker_cfg.clone(),
            CoordinationMode::Zk,
            controller_pids.clone(),
            brokers_hash.clone(),
        );
        let pid = sim.spawn(Box::new(b));
        assert_eq!(pid, broker_pids[i as usize]);
    }

    // Producer on hp at acks=all with a tight request timeout so leader
    // rediscovery is bounded by metadata refresh, not by the 2 s default.
    let pcfg = ProducerConfig {
        acks: AckMode::All,
        request_timeout: SimDuration::from_millis(500),
        ..ProducerConfig::default()
    };
    let client = ProducerClient::new(ProducerId(0), pcfg, broker_pids[0], brokers_hash.clone(), 0);
    // Produce for the whole schedule: one record every 50 ms for ~50 s.
    let source = RateSource::new("events", 1_000, SimDuration::from_millis(50)).payload_bytes(64);
    let producer_pid = sim.spawn(Box::new(ProducerProcess::new(client, Box::new(source))));

    let consumer = ConsumerClient::new(
        ConsumerConfig::default(),
        broker_pids[0],
        brokers_hash.clone(),
        vec!["events".into()],
    );
    let consumer_pid = sim.spawn(Box::new(ConsumerProcess::new(
        0,
        consumer,
        Box::new(CollectingSink::default()),
    )));

    {
        let mut n = net.borrow_mut();
        let lookup = |n: &Network, name: &str| n.topology().lookup(name).unwrap();
        let hc = lookup(&n, "hc");
        let hp = lookup(&n, "hp");
        let hosts: Vec<_> = (0..N_BROKERS)
            .map(|i| lookup(&n, &format!("h{}", i + 1)))
            .collect();
        n.place(controller_pids[0], hc);
        for (i, pid) in broker_pids.iter().enumerate() {
            n.place(*pid, hosts[i]);
        }
        n.place(producer_pid, hp);
        n.place(consumer_pid, hp);
    }

    Cluster {
        sim,
        controller_pids,
        broker_pids,
        brokers_hash,
        producer_pid,
        consumer_pid,
        broker_cfg,
        incarnations: vec![0; N_BROKERS as usize],
    }
}

/// Derives the seeded kill/restart schedule: four cycles, alternating
/// between killing the current leader (forcing an election) and a broker
/// chosen by the RNG, with RNG-chosen downtimes and gaps. Only one broker
/// is ever down at a time, so a quorum of replicas always survives.
fn schedule(rng: &mut Rng) -> Vec<(u64, u64)> {
    // (start_ms, down_ms) — victims are resolved at kill time (the current
    // leader for even cycles) because elections move leadership around.
    let mut out = Vec::new();
    let mut t = 8_000u64;
    for _ in 0..4 {
        let down = 2_000 + (rng.next() % 3) * 1_000;
        out.push((t, down));
        t += down + 4_000 + (rng.next() % 3) * 1_000;
    }
    out
}

fn leader_of(cluster: &Cluster, tp: &TopicPartition) -> Option<u32> {
    (0..N_BROKERS).find(|i| {
        cluster
            .sim
            .process_ref::<Broker>(cluster.broker_pids[*i as usize])
            .is_some_and(|b| b.is_leader(tp))
    })
}

/// Runs one seeded schedule to completion; returns
/// `(cycles, acked_seqs, received_seqs, per_broker_fingerprints)`.
fn run_schedule(seed: u64) -> (Vec<Cycle>, Vec<u64>, Vec<u64>, Vec<String>) {
    let mut cluster = build(seed);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let plan = schedule(&mut rng);
    let tp = TopicPartition::new("events", 0);
    let mut cycles = Vec::new();
    for (k, (at_ms, down_ms)) in plan.into_iter().enumerate() {
        cluster.sim.run_until(SimTime::from_millis(at_ms));
        // Even cycles kill the current leader (forcing an election); odd
        // cycles kill an RNG-chosen broker (possibly a follower).
        let victim = if k % 2 == 0 {
            leader_of(&cluster, &tp).expect("partition must have a live leader")
        } else {
            (rng.next() % u64::from(N_BROKERS)) as u32
        };
        let pid = cluster.broker_pids[victim as usize];
        let corpse = cluster.sim.kill(pid);
        assert!(corpse.is_some(), "victim broker {victim} was alive");
        cycles.push(Cycle {
            victim,
            at_ms,
            down_ms,
        });

        cluster.sim.run_until(SimTime::from_millis(at_ms + down_ms));
        // Restart empty (no durable backend): the replica must rebuild its
        // log purely through follower catch-up from the elected leader.
        cluster.incarnations[victim as usize] += 1;
        let mut b = Broker::new(
            BrokerId(victim),
            cluster.broker_cfg.clone(),
            CoordinationMode::Zk,
            cluster.controller_pids.clone(),
            cluster.brokers_hash.clone(),
        );
        b.set_incarnation(cluster.incarnations[victim as usize]);
        b.mark_restarted();
        cluster.sim.respawn(pid, Box::new(b));
    }
    cluster.sim.run_until(SimTime::from_secs(RUN_FOR));

    let producer = cluster
        .sim
        .process_ref::<ProducerProcess>(cluster.producer_pid)
        .unwrap();
    let acked: Vec<u64> = producer
        .outcomes()
        .iter()
        .filter(|o| o.delivered)
        .map(|o| o.seq)
        .collect();
    let consumer = cluster
        .sim
        .process_ref::<ConsumerProcess>(cluster.consumer_pid)
        .unwrap();
    let received: Vec<u64> = consumer
        .sink_as::<CollectingSink>()
        .unwrap()
        .deliveries
        .iter()
        .map(|(_, _, r)| r.producer_seq)
        .collect();
    let fingerprints: Vec<String> = cluster
        .broker_pids
        .iter()
        .map(|pid| {
            cluster
                .sim
                .process_ref::<Broker>(*pid)
                .expect("all brokers live at end")
                .log_fingerprint(&tp)
        })
        .collect();
    (cycles, acked, received, fingerprints)
}

#[test]
fn seeded_schedules_preserve_replica_identity_and_acked_records() {
    for seed in [3, 11, 42] {
        let (cycles, acked, received, fingerprints) = run_schedule(seed);
        assert_eq!(cycles.len(), 4, "seed {seed}: full schedule executed");

        // The schedule must actually have exercised elections: the first
        // (and third) cycle killed whoever led the partition.
        assert!(
            !acked.is_empty(),
            "seed {seed}: producer acked nothing — cluster never served"
        );

        // Every surviving replica's log is byte-identical to the leader's.
        assert!(
            !fingerprints[0].is_empty()
                || !fingerprints[1].is_empty()
                || !fingerprints[2].is_empty(),
            "seed {seed}: all logs empty"
        );
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: replica logs diverged after schedule {cycles:?}: \
             lens {:?}",
            fingerprints.iter().map(String::len).collect::<Vec<_>>()
        );

        // No acked record lost at acks=all: every acked sequence reached
        // the consumer despite four crash/restart cycles.
        let lost: Vec<u64> = acked
            .iter()
            .copied()
            .filter(|s| !received.contains(s))
            .collect();
        assert!(
            lost.is_empty(),
            "seed {seed}: lost {} of {} acked records (schedule {cycles:?})",
            lost.len(),
            acked.len()
        );
    }
}

#[test]
fn elections_moved_leadership_during_the_sweep() {
    let mut cluster = build(7);
    let tp = TopicPartition::new("events", 0);
    cluster.sim.run_until(SimTime::from_secs(5));
    let first = leader_of(&cluster, &tp).expect("initial leader elected");
    let pid = cluster.broker_pids[first as usize];
    cluster.sim.kill(pid).expect("leader alive");
    cluster.sim.run_until(SimTime::from_secs(10));
    let second = leader_of(&cluster, &tp).expect("new leader elected");
    assert_ne!(first, second, "leadership must move off the killed broker");
    // Restart the old leader: it must rejoin as follower (the new leader
    // keeps the partition until preferred election, which is delayed far
    // beyond this run).
    let mut b = Broker::new(
        BrokerId(first),
        cluster.broker_cfg.clone(),
        CoordinationMode::Zk,
        cluster.controller_pids.clone(),
        cluster.brokers_hash.clone(),
    );
    b.set_incarnation(1);
    b.mark_restarted();
    cluster.sim.respawn(pid, Box::new(b));
    cluster.sim.run_until(SimTime::from_secs(20));
    let b = cluster.sim.process_ref::<Broker>(pid).unwrap();
    assert!(
        !b.is_leader(&tp),
        "restarted broker must rejoin as follower"
    );
    // And its rebuilt log matches the current leader's byte for byte.
    let leader = leader_of(&cluster, &tp).unwrap();
    let leader_fp = cluster
        .sim
        .process_ref::<Broker>(cluster.broker_pids[leader as usize])
        .unwrap()
        .log_fingerprint(&tp);
    let follower_fp = cluster
        .sim
        .process_ref::<Broker>(pid)
        .unwrap()
        .log_fingerprint(&tp);
    assert_eq!(
        leader_fp, follower_fp,
        "restarted follower must converge to the leader's log"
    );
}

#[test]
fn schedules_are_deterministic_per_seed() {
    assert_eq!(run_schedule(11), run_schedule(11));
}
