//! `userver_replay`: developer-site reproduction of the five uServer
//! Table 3 scenarios under three instrumentation methods (15 reports).
//!
//! Set-up generates the scenarios from the seed, builds the LC analysis
//! and the plans, and captures each report with `Workbench::logged_run`.
//! The pass replays every report with `Workbench::replay` at budget 300.
//! Each replay is checked on its own: its witness is re-deployed with
//! `logged_run_assignment` and must crash with the report's crash digest.

use std::time::Instant;

use instrument::{BugReport, Method, Plan};
use progs::Program;
use retrace_bench::experiments::userver_analysis_bench;
use retrace_bench::setup::{userver_scenario, Coverage, Experiment};
use retrace_triage::{class_key, crash_digest, report_digest, DEFAULT_PREFIX_BITS};

use crate::probe::{self, Execution};
use crate::stats::ratio;
use crate::trace::{self, count, span};
use crate::{
    end_to_end, layers, metric, out, repeat_passes, timed, Args, Metric, Outcome, Samples,
};

/// Replay run budget per report (Table 3's).
const BUDGET: usize = 300;

const METHODS: [(&str, Method); 3] = [
    ("dynamic", Method::Dynamic),
    ("dynamic+static", Method::DynamicStatic),
    ("static", Method::Static),
];

struct Case {
    exp: usize,
    name: String,
    plan: Plan,
    report: BugReport,
}

struct Setup {
    exps: Vec<Experiment>,
    cases: Vec<Case>,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let scenarios = span("workloads.scenarios", || workloads::scenarios(seed));
    count("workloads.gen_us", t.elapsed().as_secs_f64() * 1e6);
    let exps: Vec<Experiment> = span("bench.setup", || {
        scenarios.iter().map(userver_scenario).collect()
    });
    // The LC analysis all three methods plan from (Table 3's lc rows;
    // the static plan depends only on the static labels).
    let abench = span("bench.setup", || userver_analysis_bench(seed));
    let bundle = layers::analyze(&abench.wb, Coverage::Lc.runs());
    let mut cases = Vec::new();
    for (i, (exp, sc)) in exps.iter().zip(&scenarios).enumerate() {
        for (mname, method) in METHODS {
            let t = Instant::now();
            let plan = span("instrument.plan", || exp.wb.plan(method, &bundle));
            layers::count_plan(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let run = span("instrument.logged_run", || {
                exp.wb.logged_run(&plan, &exp.parts)
            });
            layers::count_deployment(
                run.log_bits,
                run.meter.syscalls,
                run.requests,
                t.elapsed().as_secs_f64() * 1e6,
            );
            let report = run
                .report
                .unwrap_or_else(|| panic!("uServer exp {} ({mname}) must crash", sc.id));
            cases.push(Case {
                exp: i,
                name: format!("exp{}.{mname}", sc.id),
                plan,
                report,
            });
        }
    }
    Setup { exps, cases }
}

/// One replay pass over every report.
struct Pass {
    wall_s: f64,
    /// Per report: wall ms, runs, solver calls.
    per_case: Vec<(f64, usize, usize)>,
    failed: u64,
}

/// Replays every report; `between` runs before each replay, outside the
/// timed region.
fn pass(s: &Setup, between: &mut dyn FnMut()) -> Pass {
    let mut wall_s = 0.0;
    let mut results = Vec::new();
    let mut per_case = Vec::new();
    for c in &s.cases {
        between();
        let wb = &s.exps[c.exp].wb;
        let t = Instant::now();
        let res = span("replay.replay", || wb.replay(&c.plan, &c.report, BUDGET));
        let dt = t.elapsed().as_secs_f64();
        wall_s += dt;
        per_case.push((dt * 1e3, res.runs, res.solver_calls));
        layers::count_replay(&res);
        results.push(res);
    }
    let mut failed = 0;
    for (c, res) in s.cases.iter().zip(&results) {
        let wb = &s.exps[c.exp].wb;
        let ok = res.reproduced
            && res.witness_assignment.as_ref().is_some_and(|a| {
                span("check.redeploy", || {
                    wb.logged_run_assignment(&c.plan, &wb.spec, &wb.kernel, a)
                })
                .report
                .is_some_and(|r| crash_digest(&r.crash) == crash_digest(&c.report.crash))
            });
        if !ok {
            eprintln!("userver_replay: {} did not reproduce and re-deploy", c.name);
            failed += 1;
        }
    }
    Pass {
        wall_s,
        per_case,
        failed,
    }
}

/// Mean bytes a user uploads per report.
fn report_bytes(s: &Setup) -> f64 {
    let total: u64 = s.cases.iter().map(|c| c.report.transfer_bytes()).sum();
    total as f64 / s.cases.len() as f64
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let start = Instant::now();
    let mut m = Samples::default();
    let (s, t) = timed(|| setup(args.seed));
    m.setup_s.push(t);
    // One more set-up before every replay: the set-up samples are spread
    // over the whole run instead of bunched at its start.
    let (passes, rss_mb) = repeat_passes(start, args.seconds, || {
        pass(&s, &mut || m.setup_s.push(timed(|| setup(args.seed)).1))
    });
    for p in &passes {
        m.pass_s.push(p.wall_s);
        m.attempted += s.cases.len() as u64;
        m.failed += p.failed;
    }
    m.log_bytes = report_bytes(&s);
    m.peak_rss_mb = rss_mb;
    end_to_end(m)
}

fn run_traced(args: &Args) -> Outcome {
    let deadline = Instant::now() + probe::TRACED_RUN_BUDGET;
    let s = setup(args.seed);
    let untraced = pass(&s, &mut || ());
    trace::set(true);
    let s = setup(args.seed);
    let traced = span(layers::PASS_SPAN, || pass(&s, &mut || ()));
    for exp in &s.exps {
        probe::solver(&Execution::of(exp), deadline);
    }
    for c in &s.cases {
        probe::overhead(&Execution::of(&s.exps[c.exp]), &c.plan);
    }
    probe::program(Program::Userver);
    // Which of the 15 reports the fleet clustering would merge.
    let t = Instant::now();
    let keys: std::collections::HashSet<_> = span("triage.cluster", || {
        s.cases
            .iter()
            .map(|c| {
                (
                    class_key(0, &c.report, DEFAULT_PREFIX_BITS),
                    report_digest(&c.report),
                )
            })
            .collect()
    });
    count("triage.cluster_us", t.elapsed().as_secs_f64() * 1e6);
    count("triage.reports", s.cases.len() as f64);
    count("triage.classes", keys.len() as f64);
    let (spans, counts) = trace::take();
    trace::set(false);
    let metrics = layers::finish(&spans, &counts, traced.wall_s, untraced.wall_s);
    let details: Vec<(String, Vec<Metric>)> = s
        .cases
        .iter()
        .zip(&untraced.per_case)
        .map(|(c, &(ms, runs, calls))| {
            (
                format!("replay.{}", c.name),
                vec![
                    metric("wall_ms", ms, "ms"),
                    metric("runs", runs as f64, "count"),
                    metric("solver_calls", calls as f64, "count"),
                    metric("ms_per_run", ratio(ms, runs as f64), "ms"),
                    metric("report_bytes", c.report.transfer_bytes() as f64, "bytes"),
                ],
            )
        })
        .chain(std::iter::once((
            "pass".to_string(),
            vec![
                metric("untraced_pass_s", untraced.wall_s, "s"),
                metric("traced_pass_s", traced.wall_s, "s"),
                metric(
                    "triage.cluster_us_per_report",
                    ratio(
                        counts.get("triage.cluster_us").copied().unwrap_or(0.0),
                        s.cases.len() as f64,
                    ),
                    "us",
                ),
            ],
        )))
        .collect();
    match out::write_trace(&args.workload, args.seed, &spans, &metrics, &details) {
        Ok(p) => eprintln!("trace written to {}", p.display()),
        Err(e) => eprintln!("trace not written: {e}"),
    }
    Outcome {
        attempted: 2 * s.cases.len() as u64,
        failed: untraced.failed + traced.failed,
        metrics,
    }
}
