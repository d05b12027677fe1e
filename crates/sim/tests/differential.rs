//! Differential property tests: the calendar-queue scheduler must be
//! observably identical to the reference `BinaryHeap` scheduler.
//!
//! A randomized fault-heavy workload (timers at mixed horizons, message
//! chatter, cancellations, CPU slices, kills and respawns) runs once under
//! each [`SchedulerKind`]; the full trace (every handler invocation, in
//! order, with its timestamp), the final [`SimStats`], and the clock must
//! match exactly.

use std::cell::RefCell;
use std::rc::Rc;

use s2g_sim::{
    downcast, Ctx, Message, Process, ProcessId, QueueDiag, SchedulerKind, Sim, SimDuration,
    SimStats, SimTime, TimerToken,
};

#[derive(Debug)]
struct Note {
    ttl: u64,
}
impl Message for Note {
    fn wire_size(&self) -> usize {
        32
    }
}

/// Deterministic splitmix64; the workload must not depend on anything that
/// differs between schedulers (like token values), only on this stream.
struct Mix(u64);
impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Every handler invocation, in order: `(time ns, pid, what happened)`.
/// Owned by the test and shared by every `Chaos` in one run.
type Log = Rc<RefCell<Vec<(u64, u32, String)>>>;

struct Chaos {
    id: u32,
    log: Log,
    peers: u32,
    rng: Mix,
    tokens: Vec<TimerToken>,
    fires: u64,
}

impl Chaos {
    fn new(id: u32, peers: u32, seed: u64, log: &Log) -> Self {
        Chaos {
            id,
            log: Rc::clone(log),
            peers,
            rng: Mix(seed ^ (u64::from(id) << 32) ^ 0xabcd_ef01),
            tokens: Vec::new(),
            fires: 0,
        }
    }

    /// Delays spanning in-bucket (< 65 µs), in-wheel (< 134 ms), and
    /// overflow-heap (up to ~800 ms) distances.
    fn delay(&mut self) -> SimDuration {
        match self.rng.below(10) {
            0..=3 => SimDuration::from_micros(1 + self.rng.below(60)),
            4..=7 => SimDuration::from_micros(100 + self.rng.below(100_000)),
            _ => SimDuration::from_millis(150 + self.rng.below(650)),
        }
    }

    fn peer(&mut self) -> ProcessId {
        ProcessId(self.rng.below(u64::from(self.peers)) as u32)
    }

    fn record(&self, ctx: &Ctx<'_>, text: String) {
        let entry = (ctx.now().as_nanos(), ctx.self_id().0, text);
        self.log.borrow_mut().push(entry);
    }
}

impl Process for Chaos {
    fn name(&self) -> &str {
        "chaos"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.record(ctx, format!("start {}", self.id));
        for tag in 0..3 {
            let d = self.delay();
            let t = ctx.set_timer(d, tag);
            self.tokens.push(t);
        }
        let to = self.peer();
        ctx.send(to, Note { ttl: 2 });
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        let note = downcast::<Note>(msg).expect("note");
        self.record(ctx, format!("msg ttl={} from={from}", note.ttl));
        if note.ttl > 0 {
            let to = self.peer();
            ctx.send(to, Note { ttl: note.ttl - 1 });
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.fires += 1;
        self.record(ctx, format!("timer tag={tag} fire={}", self.fires));
        match self.rng.below(10) {
            0..=4 => {
                let d = self.delay();
                let t = ctx.set_timer(d, tag);
                self.tokens.push(t);
            }
            5..=6 => {
                // Cancel a random stored token — possibly already fired or
                // cancelled, which must be a no-op on both schedulers.
                if !self.tokens.is_empty() {
                    let i = self.rng.below(self.tokens.len() as u64) as usize;
                    ctx.cancel_timer(self.tokens[i]);
                }
                let d = self.delay();
                let t = ctx.set_timer(d, tag);
                self.tokens.push(t);
            }
            7..=8 => {
                let to = self.peer();
                ctx.send(to, Note { ttl: 1 });
                let d = self.delay();
                self.tokens.push(ctx.set_timer(d, tag));
            }
            _ => {
                ctx.exec(SimDuration::from_micros(1 + self.rng.below(500)), tag);
            }
        }
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.record(ctx, format!("cpu tag={tag}"));
        let d = self.delay();
        self.tokens.push(ctx.set_timer(d, tag));
    }
}

/// Runs the chaos workload under `kind`, returning the full observable
/// surface: trace, stats, final clock, and queue diagnostics.
fn run(kind: SchedulerKind, seed: u64) -> (Vec<(u64, u32, String)>, SimStats, SimTime, QueueDiag) {
    const PROCS: u32 = 12;
    let log = Log::default();
    let mut sim = Sim::with_scheduler(seed, kind);
    sim.set_event_limit(2_000_000);
    for i in 0..PROCS {
        sim.spawn(Box::new(Chaos::new(i, PROCS, seed, &log)));
    }
    let mut driver = Mix(seed ^ 0x5eed);
    let mut t = SimTime::ZERO;
    for step in 0..30u64 {
        t += SimDuration::from_millis(60);
        sim.run_until(t);
        // Fault schedule: rotate kills and respawns, deterministically.
        let victim = ProcessId((step % u64::from(PROCS)) as u32);
        if sim.is_alive(victim) && driver.below(3) != 0 {
            sim.kill(victim).expect("alive");
        } else if !sim.is_alive(victim) {
            sim.respawn(
                victim,
                Box::new(Chaos::new(victim.0, PROCS, seed ^ step, &log)),
            );
        }
    }
    // Respawn everything and drain the far-future tail.
    for i in 0..PROCS {
        let pid = ProcessId(i);
        if !sim.is_alive(pid) {
            sim.respawn(pid, Box::new(Chaos::new(i, PROCS, seed ^ 0x77, &log)));
        }
    }
    sim.run_until(t + SimDuration::from_secs(3));
    let trace = log.take();
    (trace, sim.stats(), sim.now(), sim.queue_diag())
}

#[test]
fn calendar_matches_reference_on_randomized_fault_sweeps() {
    for seed in 0..12u64 {
        let (cal_trace, cal_stats, cal_now, cal_diag) = run(SchedulerKind::Calendar, seed);
        let (ref_trace, ref_stats, ref_now, ref_diag) = run(SchedulerKind::Reference, seed);
        assert!(
            cal_stats.events_processed > 1_000,
            "seed {seed}: workload too small to be meaningful ({} events)",
            cal_stats.events_processed
        );
        assert_eq!(
            cal_trace.len(),
            ref_trace.len(),
            "seed {seed}: trace length diverged"
        );
        for (i, (c, r)) in cal_trace.iter().zip(&ref_trace).enumerate() {
            assert_eq!(c, r, "seed {seed}: traces diverge at entry {i}");
        }
        assert_eq!(cal_stats, ref_stats, "seed {seed}: stats diverged");
        assert_eq!(cal_now, ref_now, "seed {seed}: clocks diverged");
        assert_eq!(
            cal_diag.live_events, ref_diag.live_events,
            "seed {seed}: live accounting diverged"
        );
        // Cancel bookkeeping must stay bounded by what is actually pending.
        for (kind, diag) in [("calendar", cal_diag), ("reference", ref_diag)] {
            assert!(
                diag.residue <= diag.queue_len,
                "seed {seed} {kind}: residue {} exceeds queue {}",
                diag.residue,
                diag.queue_len
            );
        }
    }
}

#[test]
fn same_seed_same_scheduler_is_reproducible() {
    let a = run(SchedulerKind::Calendar, 99);
    let b = run(SchedulerKind::Calendar, 99);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}
