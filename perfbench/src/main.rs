//! Simulator-speed benchmark for stream2gym-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline-steady|partition-kraft|recovery-traced \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs iterations of one workload, each in a fresh child process, for `S`
//! seconds (at least two iterations, so the digest can be compared). The
//! last line of standard output is one JSON object: whether every output
//! check passed, the iterations attempted and failed, and the medians of the
//! end-to-end metrics (`--trace 0`) or of the per-layer metrics (`--trace
//! 1`). A readable table goes to standard error. See `README.md` beside this
//! package for what each metric means.

mod clock;
mod job;
mod metrics;
mod workloads;

use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use clock::{now, Span};
use job::{run_iteration, Iteration, SPAN_NAMES};
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use workloads::Workload;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run exactly one iteration and write it to standard output.
    child: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut child) =
            (None, None, None, false, false);
        while let Some(flag) = args.next() {
            if flag == "--child" {
                child = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|_| format!("bad seconds `{value}`"))?,
                    )
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    }
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace,
            child,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let it = run_iteration(args.workload, args.seed, args.trace);
        let mut out = std::io::stdout().lock();
        return match it.write(&mut out).and_then(|()| out.flush()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    match measure(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every name a child may report: metric names and span names.
fn known_names() -> Vec<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .chain(SPAN_NAMES)
        .collect()
}

/// Runs one iteration in a child process and waits for it to end.
fn spawn_iteration(args: &Args, traced: bool) -> Result<Iteration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn iteration: {e}"))?;
    if !out.status.success() {
        return Err(format!("iteration exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|_| "iteration output is not UTF-8")?;
    Iteration::parse(&text, &known_names()).ok_or_else(|| "malformed iteration output".to_string())
}

fn measure(args: &Args) -> Result<(), String> {
    // A traced run alternates untraced and traced iterations, so tracing
    // overhead is the difference of their wall times under equal load.
    let min_iterations = if args.trace { 4 } else { 2 };
    let start = now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut done: Vec<(bool, Iteration)> = Vec::new();
    while attempted < min_iterations || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && attempted % 2 == 1;
        attempted += 1;
        match spawn_iteration(args, traced) {
            Ok(it) => {
                if let Some(f) = &it.failure {
                    eprintln!("perfbench: iteration {attempted} failed: {f}");
                    failed += 1;
                }
                done.push((traced, it));
            }
            Err(e) => {
                eprintln!("perfbench: iteration {attempted} failed: {e}");
                failed += 1;
            }
        }
    }
    let digests_agree = done.windows(2).all(|w| w[0].1.digest == w[1].1.digest);
    if !digests_agree {
        eprintln!("perfbench: model.digest differs between iterations of one seed");
    }

    let (defs, values): (&[MetricDef], Vec<f64>) = if args.trace {
        let traced: Vec<&Iteration> = done.iter().filter(|(t, _)| *t).map(|(_, it)| it).collect();
        let untraced: Vec<&Iteration> =
            done.iter().filter(|(t, _)| !*t).map(|(_, it)| it).collect();
        write_spans(args, &traced)?;
        let wall = median_of(&traced, "wall_s");
        let untraced_wall = median_of(&untraced, "wall_s");
        let values = PER_LAYER
            .iter()
            .map(|m| match m.name {
                "model.digest" => traced.first().map_or(0.0, |it| (it.digest >> 11) as f64),
                "trace.wall_s" => wall,
                "trace.untraced_wall_s" => untraced_wall,
                "trace.overhead_s" => wall - untraced_wall,
                name => median_of(&traced, name),
            })
            .collect();
        (&PER_LAYER, values)
    } else {
        let all: Vec<&Iteration> = done.iter().map(|(_, it)| it).collect();
        let values = END_TO_END
            .iter()
            .map(|m| match m.name {
                "setup_s" => median(
                    all.iter()
                        .flat_map(|it| it.setups.iter().copied())
                        .collect(),
                ),
                name => median_of(&all, name),
            })
            .collect();
        (&END_TO_END, values)
    };
    let finite = values.iter().all(|v| v.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not a finite number");
    }

    eprintln!(
        "{} seed {} ({} iterations, {failed} failed)",
        args.workload.name(),
        args.seed,
        attempted
    );
    for (m, v) in defs.iter().zip(&values) {
        eprintln!("  {:<28} {:>18.6} {}", m.name, v, m.unit);
    }
    let metrics: Vec<String> = defs
        .iter()
        .zip(&values)
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = failed == 0 && digests_agree && finite && !done.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(())
}

/// Median of one metric over iterations that reported it; 0 when none did.
fn median_of(its: &[&Iteration], name: &str) -> f64 {
    median(
        its.iter()
            .filter_map(|it| it.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect(),
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Writes the traced iterations' spans as a Chrome trace (one thread per
/// iteration) under `out/` in this package.
fn write_spans(args: &Args, traced: &[&Iteration]) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let events: Vec<String> = traced
        .iter()
        .enumerate()
        .flat_map(|(i, it)| it.spans.iter().map(move |s| span_event(i, s)))
        .collect();
    let json = format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"));
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

fn span_event(iteration: usize, s: &Span) -> String {
    let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
    format!(
        "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {iteration}, \"ts\": {}, \"dur\": {}, \
         \"args\": {{\"iteration\": {iteration}, \"span\": {}, \"parent\": {parent}}}}}",
        s.name,
        s.start_s * 1e6,
        (s.end_s - s.start_s) * 1e6,
        s.id
    )
}
