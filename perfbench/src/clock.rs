//! Host-clock reads and the benchmark's own span recorder.
//!
//! Every host-clock read in the benchmark goes through [`now`], so the one
//! wall-clock escape for the determinism linter sits in one place. Simulated
//! time never comes from here.

use std::time::Instant;

/// Reads the host's monotonic clock.
pub fn now() -> Instant {
    // s2g-lint: allow(wall-clock) — benchmark harness timing host work, outside the sim
    Instant::now()
}

/// One finished span: a layer call made by the benchmark, timed on the host.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span within its iteration.
    pub id: usize,
    /// The enclosing span, `None` for the iteration's root.
    pub parent: Option<usize>,
    /// Layer call name, e.g. `run` or `validate_chrome_trace`.
    pub name: &'static str,
    /// Start, seconds since the recorder was created.
    pub start_s: f64,
    /// End, seconds since the recorder was created.
    pub end_s: f64,
}

/// Records nested spans in memory; a disabled recorder reads no clock.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: now(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.done.len();
        self.done.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.done[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// The recorded spans, in start order.
    pub fn finished(&self) -> &[Span] {
        &self.done
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed over spans of the same name.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut own: Vec<f64> = self.done.iter().map(|s| s.end_s - s.start_s).collect();
        for s in &self.done {
            if let Some(p) = s.parent {
                own[p] -= s.end_s - s.start_s;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in self.done.iter().zip(own) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, acc)) => *acc += t,
                None => out.push((s.name, t)),
            }
        }
        out
    }
}
