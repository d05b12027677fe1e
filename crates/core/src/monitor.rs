//! Monitoring: delivery records, latency series, delivery matrices.
//!
//! stream2gym "triggers a series of monitoring tasks that are responsible
//! for logging relevant information from both the network and the
//! application perspective". This module is the application side: every
//! consumer sink is wrapped by a [`MonitoredSink`] that records who received
//! which record when, from which the latency plots (Fig. 5, Fig. 6c) and
//! the message delivery matrix (Fig. 6b) are derived.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use s2g_broker::DataSink;
use s2g_proto::{ProducerId, Record, TopicPartition};
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::Event;
use s2g_telemetry::{Histogram, SummaryStats};

/// One observed delivery: a record reaching a consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryRecord {
    /// The receiving consumer's index.
    pub consumer: u32,
    /// Topic the record came from. Interned (`Rc<str>`): the monitor sees
    /// every delivered record in the run, so a per-record `String` clone
    /// here would be one of the hottest allocations in the simulator.
    pub topic: Rc<str>,
    /// The producer that created the record (or the original source record,
    /// for SPE outputs carrying provenance).
    pub producer: ProducerId,
    /// Producer sequence number.
    pub seq: u64,
    /// When the data unit entered the pipeline (origin timestamp for SPE
    /// outputs, produce time otherwise).
    pub produced: SimTime,
    /// When the consumer received it.
    pub delivered: SimTime,
}

impl DeliveryRecord {
    /// End-to-end latency of this delivery. A delivery whose origin
    /// timestamp lies *after* its arrival (possible when an SPE operator
    /// stamps synthetic origins) clamps to zero; the monitor counts those
    /// in [`MonitorCore::clamped_latencies`] so they can't silently skew
    /// latency statistics toward zero.
    pub fn latency(&self) -> SimDuration {
        self.delivered.saturating_since(self.produced)
    }

    /// Whether [`latency`](Self::latency) clamped a negative interval.
    pub fn latency_clamped(&self) -> bool {
        self.produced > self.delivered
    }
}

/// Shared collection of all deliveries in a run.
#[derive(Debug, Default)]
pub struct MonitorCore {
    /// Every delivery, in arrival order.
    pub deliveries: Vec<DeliveryRecord>,
    /// Deliveries whose produced-after-delivered latency was clamped to
    /// zero by [`DeliveryRecord::latency`].
    pub clamped_latencies: u64,
}

/// Shared handle to the monitor.
pub type MonitorHandle = Rc<RefCell<MonitorCore>>;

impl MonitorCore {
    /// Creates a shared monitor.
    pub fn new_handle() -> MonitorHandle {
        Rc::new(RefCell::new(MonitorCore::default()))
    }

    /// Deliveries for one topic (any consumer).
    pub fn for_topic<'a>(&'a self, topic: &'a str) -> impl Iterator<Item = &'a DeliveryRecord> {
        self.deliveries.iter().filter(move |d| &*d.topic == topic)
    }

    /// Deliveries seen by one consumer.
    pub fn for_consumer(&self, consumer: u32) -> impl Iterator<Item = &DeliveryRecord> {
        self.deliveries
            .iter()
            .filter(move |d| d.consumer == consumer)
    }

    /// Mean end-to-end latency over a topic, if any deliveries exist.
    pub fn mean_latency(&self, topic: &str) -> Option<SimDuration> {
        let lats: Vec<u64> = self
            .for_topic(topic)
            .map(|d| d.latency().as_nanos())
            .collect();
        if lats.is_empty() {
            return None;
        }
        Some(SimDuration::from_nanos(
            lats.iter().sum::<u64>() / lats.len() as u64,
        ))
    }

    /// Mean and tail latency (p50/p95/p99, in seconds) over a topic's
    /// deliveries, computed through the telemetry latency histogram —
    /// `None` when the topic saw no deliveries.
    pub fn latency_stats(&self, topic: &str) -> Option<SummaryStats> {
        let mut hist = Histogram::latency_seconds();
        for d in self.for_topic(topic) {
            hist.observe(d.latency().as_secs_f64());
        }
        hist.stats()
    }

    /// Latency series for one consumer and topic, ordered by delivery time
    /// (the paper's Fig. 6c axes: message order vs latency).
    pub fn latency_series(&self, consumer: u32, topic: &str) -> Vec<(SimTime, SimDuration)> {
        let mut v: Vec<(SimTime, SimDuration)> = self
            .deliveries
            .iter()
            .filter(|d| d.consumer == consumer && &*d.topic == topic)
            .map(|d| (d.delivered, d.latency()))
            .collect();
        v.sort();
        v
    }

    /// Whether `(producer, seq)` on `topic` reached `consumer`.
    pub fn was_delivered(
        &self,
        consumer: u32,
        topic: &str,
        producer: ProducerId,
        seq: u64,
    ) -> bool {
        self.deliveries.iter().any(|d| {
            d.consumer == consumer && &*d.topic == topic && d.producer == producer && d.seq == seq
        })
    }
}

/// A [`DataSink`] wrapper that records deliveries into the shared monitor
/// and forwards to the inner sink.
pub struct MonitoredSink {
    handle: MonitorHandle,
    consumer: u32,
    inner: Box<dyn DataSink>,
    /// Interned topic of the last delivery — consumers poll per partition,
    /// so the same topic repeats and one `Rc` bump replaces a `String`
    /// clone per record.
    topic_cache: Option<Rc<str>>,
}

impl MonitoredSink {
    /// Wraps `inner` for consumer index `consumer`.
    pub fn new(handle: MonitorHandle, consumer: u32, inner: Box<dyn DataSink>) -> Self {
        MonitoredSink {
            handle,
            consumer,
            inner,
            topic_cache: None,
        }
    }

    /// The wrapped sink, for post-run downcasting.
    pub fn inner(&self) -> &dyn DataSink {
        self.inner.as_ref()
    }
}

impl DataSink for MonitoredSink {
    fn on_records(&mut self, now: SimTime, tp: &TopicPartition, records: &[Record]) {
        let topic: Rc<str> = match &self.topic_cache {
            Some(t) if **t == *tp.topic => t.clone(),
            _ => {
                let t: Rc<str> = Rc::from(tp.topic.as_str());
                self.topic_cache = Some(t.clone());
                t
            }
        };
        {
            let mut core = self.handle.borrow_mut();
            for r in records {
                // SPE outputs carry their provenance in the encoded event;
                // raw records use their own produce time. `peek_origin`
                // walks the borrowed payload without decoding it — the
                // monitor never copies record bytes.
                let produced = Event::peek_origin(&r.value).unwrap_or(r.timestamp);
                if produced > now {
                    core.clamped_latencies += 1;
                }
                core.deliveries.push(DeliveryRecord {
                    consumer: self.consumer,
                    topic: topic.clone(),
                    producer: r.producer,
                    seq: r.producer_seq,
                    produced,
                    delivered: now,
                });
            }
        }
        self.inner.on_records(now, tp, records);
    }
}

/// The Fig. 6b artifact: for one producer's messages (in production order),
/// which consumers received each one.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryMatrix {
    /// The producer whose messages are tracked.
    pub producer: ProducerId,
    /// Consumer indices (rows).
    pub consumers: Vec<u32>,
    /// Tracked messages as `(topic, seq, produced)` (columns, by seq order).
    pub messages: Vec<(String, u64, SimTime)>,
    /// `received[row][col]` — whether consumer `row` got message `col`.
    pub received: Vec<Vec<bool>>,
}

impl DeliveryMatrix {
    /// Builds the matrix for `producer` from the monitor and the producer's
    /// send log (`(topic, seq, produced)` per message). A delivery marks
    /// the first column with its `(topic, seq)`; one index built up front
    /// keeps this linear in deliveries plus messages.
    pub fn build(
        core: &MonitorCore,
        producer: ProducerId,
        messages: Vec<(String, u64, SimTime)>,
        consumers: &[u32],
    ) -> Self {
        let mut received = vec![vec![false; messages.len()]; consumers.len()];
        let mut column: HashMap<(&str, u64), usize> = HashMap::with_capacity(messages.len());
        for (col, (t, s, _)) in messages.iter().enumerate() {
            column.entry((t.as_str(), *s)).or_insert(col);
        }
        for d in &core.deliveries {
            if d.producer != producer {
                continue;
            }
            let Some(row) = consumers.iter().position(|c| *c == d.consumer) else {
                continue;
            };
            if let Some(&col) = column.get(&(&*d.topic, d.seq)) {
                received[row][col] = true;
            }
        }
        DeliveryMatrix {
            producer,
            consumers: consumers.to_vec(),
            messages,
            received,
        }
    }

    /// Messages not received by a given consumer row.
    pub fn losses_for_row(&self, row: usize) -> Vec<&(String, u64, SimTime)> {
        self.messages
            .iter()
            .enumerate()
            .filter(|(col, _)| !self.received[row][*col])
            .map(|(_, m)| m)
            .collect()
    }

    /// Messages missed by every consumer.
    pub fn total_losses(&self) -> Vec<&(String, u64, SimTime)> {
        self.messages
            .iter()
            .enumerate()
            .filter(|(col, _)| self.received.iter().all(|row| !row[*col]))
            .map(|(_, m)| m)
            .collect()
    }

    /// The fraction of (message, consumer) cells delivered.
    pub fn delivery_rate(&self) -> f64 {
        let total = self.messages.len() * self.consumers.len();
        if total == 0 {
            return 1.0;
        }
        let hit: usize = self
            .received
            .iter()
            .map(|row| row.iter().filter(|b| **b).count())
            .sum();
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_broker::CollectingSink;

    fn record(producer: u32, seq: u64, ts_ms: u64) -> Record {
        use s2g_proto::Record as R;
        R::keyless(vec![1, 2, 3], SimTime::from_millis(ts_ms))
            .from_producer(ProducerId(producer), seq)
    }

    #[test]
    fn monitored_sink_records_and_forwards() {
        let handle = MonitorCore::new_handle();
        let mut sink = MonitoredSink::new(handle.clone(), 3, Box::new(CollectingSink::default()));
        let tp = TopicPartition::new("t", 0);
        sink.on_records(
            SimTime::from_millis(500),
            &tp,
            &[record(1, 0, 100), record(1, 1, 200)],
        );
        let core = handle.borrow();
        assert_eq!(core.deliveries.len(), 2);
        assert_eq!(core.deliveries[0].consumer, 3);
        assert_eq!(core.deliveries[0].latency(), SimDuration::from_millis(400));
        assert!(core.was_delivered(3, "t", ProducerId(1), 1));
        assert!(!core.was_delivered(3, "t", ProducerId(1), 2));
        // Forwarded to the inner CollectingSink too.
        let inner: &dyn DataSink = sink.inner();
        let inner = (inner as &dyn std::any::Any)
            .downcast_ref::<CollectingSink>()
            .unwrap();
        assert_eq!(inner.deliveries.len(), 2);
    }

    #[test]
    fn mean_latency_and_series() {
        let handle = MonitorCore::new_handle();
        let mut sink = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let tp = TopicPartition::new("t", 0);
        sink.on_records(SimTime::from_millis(300), &tp, &[record(1, 0, 100)]);
        sink.on_records(SimTime::from_millis(600), &tp, &[record(1, 1, 200)]);
        let core = handle.borrow();
        assert_eq!(core.mean_latency("t"), Some(SimDuration::from_millis(300)));
        assert_eq!(core.mean_latency("zz"), None);
        let series = core.latency_series(0, "t");
        assert_eq!(series.len(), 2);
        assert!(series[0].0 < series[1].0);
    }

    #[test]
    fn spe_events_use_origin_for_latency() {
        let handle = MonitorCore::new_handle();
        let mut sink = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let ev = Event::new(s2g_spe::Value::Int(1), SimTime::from_millis(900))
            .with_origin(SimTime::from_millis(100));
        let rec = Record::keyless(ev.to_bytes(), SimTime::from_millis(900))
            .from_producer(ProducerId(5), 0);
        sink.on_records(
            SimTime::from_millis(1_000),
            &TopicPartition::new("out", 0),
            &[rec],
        );
        let core = handle.borrow();
        assert_eq!(core.deliveries[0].produced, SimTime::from_millis(100));
        assert_eq!(core.deliveries[0].latency(), SimDuration::from_millis(900));
    }

    #[test]
    fn latency_stats_cover_tail_quantiles() {
        let handle = MonitorCore::new_handle();
        let mut sink = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let tp = TopicPartition::new("t", 0);
        // 90 deliveries at ~10 ms and 10 stragglers at ~1 s: the median
        // stays near the bulk while p99 lands among the stragglers.
        for i in 0..90 {
            sink.on_records(
                SimTime::from_millis(i * 20 + 10),
                &tp,
                &[record(1, i, i * 20)],
            );
        }
        for i in 90..100 {
            sink.on_records(
                SimTime::from_millis(i * 20 + 1_000),
                &tp,
                &[record(1, i, i * 20)],
            );
        }
        let core = handle.borrow();
        let stats = core.latency_stats("t").expect("deliveries exist");
        assert_eq!(stats.count, 100);
        assert!(stats.p50 < 0.05, "median near the 10ms bulk: {}", stats.p50);
        assert!(stats.p99 > 0.5, "p99 sees the 1s straggler: {}", stats.p99);
        assert!(stats.mean > stats.p50);
        assert!(core.latency_stats("zz").is_none());
    }

    #[test]
    fn clamped_negative_latencies_are_counted() {
        let handle = MonitorCore::new_handle();
        let mut sink = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let tp = TopicPartition::new("t", 0);
        // Produced at 500 ms but "delivered" at 100 ms: the latency clamps
        // to zero and the clamp is counted instead of silently vanishing.
        sink.on_records(SimTime::from_millis(100), &tp, &[record(1, 0, 500)]);
        sink.on_records(SimTime::from_millis(700), &tp, &[record(1, 1, 600)]);
        let core = handle.borrow();
        assert_eq!(core.clamped_latencies, 1);
        assert!(core.deliveries[0].latency_clamped());
        assert_eq!(core.deliveries[0].latency(), SimDuration::ZERO);
        assert!(!core.deliveries[1].latency_clamped());
    }

    #[test]
    fn delivery_matrix_matches_a_linear_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The scan `build` replaced: each delivery marks the first column
        // with its `(topic, seq)`.
        fn scan(
            core: &MonitorCore,
            producer: ProducerId,
            messages: &[(String, u64, SimTime)],
            consumers: &[u32],
        ) -> Vec<Vec<bool>> {
            let mut received = vec![vec![false; messages.len()]; consumers.len()];
            for d in &core.deliveries {
                let row = consumers.iter().position(|c| *c == d.consumer);
                let col = messages
                    .iter()
                    .position(|(t, s, _)| *s == d.seq && *t == *d.topic);
                if let (true, Some(row), Some(col)) = (d.producer == producer, row, col) {
                    received[row][col] = true;
                }
            }
            received
        }
        let topics: Vec<Rc<str>> = vec![Rc::from("ta"), Rc::from("tb")];
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Few distinct seqs, so `(topic, seq)` pairs repeat.
            let messages: Vec<(String, u64, SimTime)> = (0..rng.gen_range(0..40u64))
                .map(|i| {
                    let t = &topics[rng.gen_range(0..2usize)];
                    (
                        t.to_string(),
                        rng.gen_range(0..12u64),
                        SimTime::from_millis(i),
                    )
                })
                .collect();
            let mut core = MonitorCore::default();
            for i in 0..rng.gen_range(0..200u64) {
                core.deliveries.push(DeliveryRecord {
                    consumer: rng.gen_range(0..4u32),
                    topic: topics[rng.gen_range(0..2usize)].clone(),
                    producer: ProducerId(rng.gen_range(0..2u32)),
                    seq: rng.gen_range(0..14u64),
                    produced: SimTime::ZERO,
                    delivered: SimTime::from_millis(i),
                });
            }
            let consumers = [0, 2, 3];
            let m = DeliveryMatrix::build(&core, ProducerId(1), messages.clone(), &consumers);
            assert_eq!(
                m.received,
                scan(&core, ProducerId(1), &messages, &consumers),
                "seed {seed}"
            );
            assert_eq!(m.messages, messages);
        }
    }

    #[test]
    fn delivery_matrix_marks_losses() {
        let handle = MonitorCore::new_handle();
        let tp = TopicPartition::new("ta", 0);
        let mut sink0 = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let mut sink1 = MonitoredSink::new(handle.clone(), 1, Box::new(CollectingSink::default()));
        // Consumer 0 gets messages 0 and 1; consumer 1 only message 0.
        sink0.on_records(
            SimTime::from_millis(10),
            &tp,
            &[record(7, 0, 1), record(7, 1, 2)],
        );
        sink1.on_records(SimTime::from_millis(10), &tp, &[record(7, 0, 1)]);
        let messages = vec![
            ("ta".to_string(), 0, SimTime::from_millis(1)),
            ("ta".to_string(), 1, SimTime::from_millis(2)),
            ("ta".to_string(), 2, SimTime::from_millis(3)), // never delivered
        ];
        let core = handle.borrow();
        let m = DeliveryMatrix::build(&core, ProducerId(7), messages, &[0, 1]);
        assert_eq!(m.received[0], vec![true, true, false]);
        assert_eq!(m.received[1], vec![true, false, false]);
        assert_eq!(m.losses_for_row(1).len(), 2);
        assert_eq!(m.total_losses().len(), 1);
        assert!((m.delivery_rate() - 0.5).abs() < 1e-9);
    }
}
