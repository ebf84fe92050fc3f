//! `retrace-perf`: the repository's benchmark.
//!
//! ```text
//! retrace-perf --workload <userver_replay|userver_analysis|fleet_triage>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it measures one untraced pass, then one traced
//! pass plus the layer probes, and reports the per-layer metrics and the
//! tracing overhead; the spans go to `out/trace-<workload>-<seed>.json`
//! in the benchmark's directory. Either way every output is checked, and
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod fleet;
mod layers;
mod out;
mod probe;
mod stats;
mod trace;
mod uanalysis;
mod ureplay;

use std::process::ExitCode;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one run of a workload produced.
pub struct Outcome {
    /// Checked operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Reported metrics (end-to-end or per-layer, by run kind).
    pub metrics: Vec<Metric>,
}

/// The measuring loop shared by the workloads: runs `pass` at least
/// once and then again while another pass of the median length still
/// fits before `seconds` have elapsed since `start`. Also returns the
/// peak resident memory after the first pass: later passes repeat the
/// same work and would only add the allocator's growth across them.
pub fn repeat_passes<T>(
    start: Instant,
    seconds: f64,
    mut pass: impl FnMut() -> T,
) -> (Vec<T>, f64) {
    let mut outs = Vec::new();
    let mut walls = Vec::new();
    let mut rss_mb = 0.0;
    loop {
        let t = Instant::now();
        outs.push(pass());
        walls.push(t.elapsed().as_secs_f64());
        if outs.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        if start.elapsed().as_secs_f64() + stats::median(&walls) > seconds {
            return (outs, rss_mb);
        }
    }
}

/// What an untraced run measured, before it is summarized.
#[derive(Default)]
pub struct Samples {
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// Pass times, s.
    pub pass_s: Vec<f64>,
    /// Checked outputs.
    pub attempted: u64,
    /// Checked outputs that failed.
    pub failed: u64,
    /// Mean bytes a user site logs per deployment.
    pub log_bytes: f64,
    /// Peak resident memory after the first pass, MB.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(s: Samples) -> Outcome {
    let ok = s.attempted.saturating_sub(s.failed) as f64;
    Outcome {
        attempted: s.attempted,
        failed: s.failed,
        metrics: vec![
            metric("setup_s", stats::median(&s.setup_s), "s"),
            metric("pass_s", stats::median(&s.pass_s), "s"),
            metric("peak_rss_mb", s.peak_rss_mb, "MB"),
            metric(
                "checked_pct",
                100.0 * stats::ratio(ok, s.attempted as f64),
                "%",
            ),
            metric("log_bytes", s.log_bytes, "bytes"),
        ],
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("retrace-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "userver_replay" => ureplay::run(&args),
        "userver_analysis" => uanalysis::run(&args),
        "fleet_triage" => fleet::run(&args),
        other => {
            eprintln!("retrace-perf: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", out::result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "retrace-perf: {} of {} checked outputs failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
